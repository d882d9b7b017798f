import gc
import importlib
import math
import weakref

import numpy as np
import pytest

from sublap import solver, sublinear
from sublap.acceptance import _chain_instances
from sublap.errors import InternalInvariantError, ValidationError
from sublap.measures import (
    RadonMeasure,
    TabulatedDensity,
    ZeroDensity,
    dirac,
    lebesgue,
    manufactured_measure,
    power_measure,
)
from sublap.params import envelope_constant, hardy_threshold
from sublap.quadrature import graded_grid, points_from_edge, points_from_x
from sublap.solver import DEFAULT_OPTIONS, GridFunction, SolverOptions, potential
from sublap.sublinear import (
    bounded_solution_check,
    finite_energy_check,
    hardy_sweep,
    iterate,
    iterated_inequality_check,
    lower_envelope,
    verify_equivalence,
)
from sublap.weights import constant_weight, power_weight

W1 = constant_weight()
D0 = dirac(0.0)


# -- lower envelope -----------------------------------------------------------

def test_envelope_dirac_closed_form():
    # c_V = 1/4 at (p, q) = (2, 1/2) and W delta = (1-|x|)/2, so the envelope
    # is ((1-|x|)/2)^2 / 4
    env = lower_envelope(2.0, W1, D0, 0.5)
    exact = 0.25 * ((1.0 - np.abs(env.u.x)) / 2.0) ** 2
    assert np.max(np.abs(env.u.values - exact)) < 1e-12
    assert not env.diverged


def test_envelope_zero_measure():
    env = lower_envelope(2.0, W1, RadonMeasure(), 0.5)
    assert np.all(env.u.values == 0.0)


XS = np.linspace(-0.99, 0.99, 4001)
REF = SolverOptions(n_nodes=8192)


@pytest.mark.parametrize("p, w, sigma", [
    (2.4, power_weight(0.3), dirac(0.2).add(power_measure(0.6, 0.8))),
    (2.5, W1, lebesgue(0.5).add(dirac(0.3))),
], ids=["atom+power", "lebesgue+atom"])
def test_the_public_reads_of_a_solve_read_it_by_its_own_rule(monkeypatch, p, w, sigma):
    # res.u(x), Envelope.u(x) and the iterates against 8192-node solves;
    # through a PCHIP res.u(x) erred by 1.35e-3 and 8.6e-4 of sup u
    solves = []

    def recording(*args, **kwargs):
        solves.append(potential(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(sublinear, "potential", recording)
    ref = potential(p, w, sigma, REF).u(XS)
    assert np.max(np.abs(potential(p, w, sigma).u(XS) - ref)) <= 1e-12 * np.max(ref)
    q = 0.5
    rho = (p - 1.0) / (p - 1.0 - q)
    env = lower_envelope(p, w, sigma, q)
    ref = envelope_constant(p, q) * ref ** rho
    assert np.max(np.abs(env.u(XS) - ref)) <= 1e-12 * np.max(ref)
    tr = iterate(p, w, sigma, q)
    assert tr.converged and len(tr.iterates) == tr.steps + 1
    # solves[1] is the envelope's solve of sigma, solves[1 + i] step i's
    for i in (1, tr.steps):
        ref = tr.scales[i - 1] * potential(p, w, solves[1 + i].measure, REF).u(XS)
        assert np.max(np.abs(tr.iterates[i](XS) - ref)) <= 1e-12 * np.max(ref)


def test_the_envelope_reads_as_its_constant_times_a_power_of_its_solve():
    # c_V * (the read of sigma's solve) ** rho, in that order, as the first
    # pushforward factor reads it: in the endpoint cells the edge profile of
    # sigma's solve raised to rho, not a profile at rho times its exponent
    p, q, w, sigma = 2.4, 0.5, power_weight(0.3), dirac(0.2).add(power_measure(0.6, 0.8))
    env = lower_envelope(p, w, sigma, q)
    rho = (p - 1.0) / (p - 1.0 - q)
    base = env.base.u
    edge = np.concatenate([points_from_edge(side, base.grid.y[1] * np.geomspace(1e-9, 0.9, 40)).x
                           for side in (-1, 1)])
    for pts in (points_from_x(edge), solver.measure_quadrature(power_measure(0.3))[0]):
        assert np.array_equal(env.u.values_at(pts),
                              envelope_constant(p, q) * base.values_at(pts) ** rho)


def test_an_iteration_keeps_only_the_last_pushforward_alive(monkeypatch):
    # a solve's u holds its quadrature view, which holds no measure
    refs = []

    def recording(p, w, mu, *args, **kwargs):
        refs.append(weakref.ref(mu))
        return potential(p, w, mu, *args, **kwargs)

    monkeypatch.setattr(sublinear, "potential", recording)
    sigma = dirac(0.2).add(power_measure(0.6, 0.8))
    tr = iterate(2.4, power_weight(0.3), sigma, 0.5, keep_iterates=False)
    gc.collect()
    alive = [r() for r in refs if r() is not None]
    assert tr.converged and len(refs) > 3
    assert len(alive) == 2 and alive[0] is sigma and alive[1] is tr.last_solution.measure


def test_envelope_power_density_value_at_center():
    # W sigma(0) = 2 for sigma = (1-|x|)^(-1.5) dx (Green oracle), so
    # u_0(0) = c_V * 2^2 = 1
    env = lower_envelope(2.0, W1, power_measure(1.5), 0.5,
                         schedule=tuple(range(1, 81)))
    u0 = env.u(np.asarray([0.0]))[0]
    assert u0 == pytest.approx(1.0, rel=1e-7)


def test_envelope_divergence_flag():
    env = lower_envelope(2.0, W1, power_measure(2.0), 0.5)
    assert env.diverged


def test_envelope_pushforward_declares_the_limit_singularity():
    # W sigma ~ dist^0.4 for sigma = (1 - |x|)^-1.6 dx (p = 2), so the envelope
    # ~ dist^0.8 and u^(1/2) sigma ~ dist^-1.2; a truncated level's exponent
    # gave 0.6
    env = lower_envelope(2.0, W1, power_measure(1.6), 0.5)
    sigma_1 = power_measure(1.6).pushforward(env.u.power_factor(0.5))
    assert sigma_1.sing(1) == pytest.approx(1.2, abs=1e-12)
    assert sigma_1.sing(-1) == pytest.approx(1.2, abs=1e-12)


# -- the iteration ---------------------------------------------------------------

def test_iterate_dirac_fixed_point():
    # u solves -u'' = u(0)^(1/2) delta_0, so u = (1-|x|)/4 and u(0) = 1/4
    tr = iterate(2.0, W1, D0, 0.5)
    assert tr.converged and tr.monotone and not tr.diverged
    exact = (1.0 - np.abs(tr.solution.x)) / 4.0
    assert np.max(np.abs(tr.solution.values - exact)) < 1e-7
    assert tr.final_residual < 10.0 * 1e-8
    assert tr.norms[-1] == pytest.approx(0.25, rel=1e-7)
    # norms are nondecreasing along the monotone iteration
    assert all(b >= a - 1e-12 for a, b in zip(tr.norms, tr.norms[1:]))


def test_iterate_recovers_manufactured_solution():
    sigma = manufactured_measure(3.0, 0.5)
    tr = iterate(3.0, W1, sigma, 0.5, keep_iterates=False)
    assert tr.converged
    exact = 1.0 - tr.solution.x ** 2
    assert np.max(np.abs(tr.solution.values - exact)) < 1e-5


def test_manufactured_norm_is_the_hand_integral():
    # int u*^(3/2) d sigma = 4 for u* = 1 - x^2, so the minimal solution's
    # L^(3/2)(sigma) norm is 4^(2/3)
    tr = iterate(3.0, W1, manufactured_measure(3.0, 0.5), 0.5, keep_iterates=False)
    assert tr.norms[-1] == pytest.approx(4.0 ** (2.0 / 3.0), rel=3e-7)


def test_envelope_norm_is_converged_in_the_grid():
    # the envelope norm integrates (W sigma)^(rho (gamma + q)) on the solve of
    # sigma, read at its own panel points
    sigma = power_measure(1.3).add(dirac(0.2))
    norms = [iterate(2.0, W1, sigma, 0.5, max_steps=0, options=opts).norms[0]
             for opts in (DEFAULT_OPTIONS, SolverOptions(n_nodes=8192))]
    assert norms[0] == pytest.approx(norms[1], rel=1e-10)


def test_envelope_norm_does_not_underflow():
    # c_V = 1e-200 at (p, q) = (2, 0.99) and c_V^(gamma + q) underflows to 0:
    # the norm is c_V times the root of the integral of (W sigma)^(rho (gamma + q));
    # 4.3128654e-70 is the value on the 8192-node grid
    assert envelope_constant(2.0, 0.99) ** 1.99 == 0.0
    tr = iterate(2.0, W1, power_measure(1.95).add(dirac(0.2, 0.5)), 0.99, max_steps=0)
    assert tr.norms[0] == pytest.approx(4.3128654e-70, rel=1e-6, abs=0.0)


def test_iterate_and_the_weak_form_integrate_on_their_solves(monkeypatch):
    # every norm and the weak-form integral come from the solve that made the
    # iterate, not from a second quadrature of sigma
    def second_quadrature(*args, **kwargs):
        raise AssertionError("measure_quadrature called")

    monkeypatch.setattr(solver, "measure_quadrature", second_quadrature)
    monkeypatch.setattr(importlib.import_module("sublap.energy"), "measure_quadrature",
                        second_quadrature)
    rep = finite_energy_check(2.0, W1, dirac(0.2).add(power_measure(0.5)), 0.5)
    assert rep["pass"]
    tr = iterate(2.4, power_weight(0.3), dirac(0.2).add(power_measure(0.6, 0.8)), 0.5)
    assert tr.converged and all(0.0 < n < math.inf for n in tr.norms)


@pytest.mark.parametrize("p, q, w, sigma", [
    (2.4, 0.5, power_weight(0.3), dirac(0.2).add(power_measure(0.6, 0.8))),
    (3.0, 0.5, W1, manufactured_measure(3.0, 0.5)),
    (2.14, 0.74, W1, RadonMeasure(atoms=((-0.6, 1.25), (0.4, 0.5)))),
], ids=["roadmap", "manufactured", "atoms"])
def test_the_default_iteration_reads_no_pchip(monkeypatch, p, q, w, sigma):
    # each iterate is read from the solve that made it, the master grid's
    # values gathered from its nodes
    def pchip(*args):
        raise AssertionError("PCHIP coefficients computed")

    monkeypatch.setattr(solver, "_pchip_coefficients", pchip)
    tr = iterate(p, w, sigma, q)
    assert tr.converged and tr.monotone


def _plain_iterate(p, w, sigma, q, tol=1e-8, max_steps=200, options=DEFAULT_OPTIONS,
                   start=None):
    """The unscaled iteration u -> W(u^q sigma) with ``iterate``'s stopping
    rule, the reference for its scaled steps: (last iterate, steps).  After
    the first step it pushes forward through the solve reader, as
    ``iterate`` does."""
    u = lower_envelope(p, w, sigma, q, options).u if start is None else start
    master = graded_grid(options.n_nodes, options.grading_ratio, options.y_floor,
                         tuple(sigma.atom_locations.tolist()))
    vals = u.values_at(master)
    factor = u.power_factor(q)
    for steps in range(1, max_steps + 1):
        res = potential(p, w, sigma.pushforward(factor), options)
        u, factor = res.u, res.u.power_factor(q)
        nxt = u.values_at(master)
        change = float(np.max(np.abs(nxt - vals))) / max(float(np.max(nxt)), 1e-300)
        vals = nxt
        if change < tol:
            return u, steps
    return u, max_steps


def _iterate_instances():
    """(p, q, w, sigma): the benchmark's five iterate kinds (one draw each of
    the chain kinds) and criterion_5's ten chain instances."""
    out = [
        (2.0, 0.5, W1, D0),
        (3.0, 0.5, W1, manufactured_measure(3.0, 0.5)),
        (2.4, 0.5, power_weight(0.3), dirac(0.2).add(power_measure(0.6, 0.8))),
        (2.14, 0.74, W1, RadonMeasure(atoms=((-0.6, 1.25),))),
        (2.38, 0.29, power_weight(0.68),
         RadonMeasure(atoms=((-0.73, 1.4), (0.31, 0.36))).add(power_measure(0.04, 0.45))),
    ]
    out += [(p, q, w, mu) for p, q, _, w, mu in _chain_instances(np.random.default_rng(502), 10)]
    return out


def test_scaled_iteration_matches_the_plain_limit():
    # the plain loop stops up to tol r/(1-r) below the minimal solution; the
    # scaled one converges from below too, so it lies at most that far above.
    # Chain solutions live on kink grids that follow x*, so both are read on
    # one common grid.
    tol, slack = 1e-8, 1e-9
    for p, q, w, sigma in _iterate_instances():
        r = q / (p - 1.0)
        ref, ref_steps = _plain_iterate(p, w, sigma, q, tol=tol)
        tr = iterate(p, w, sigma, q, tol=tol, keep_iterates=False)
        assert tr.converged and tr.monotone and tr.steps < ref_steps
        grid = graded_grid(mandatory=tuple(sigma.atom_locations.tolist()))
        a, b = ref.values_at(grid), tr.solution.values_at(grid)
        gap = (b - a) / float(np.max(a))
        assert np.min(gap) >= -slack
        assert np.max(gap) <= tol * r / (1.0 - r) + slack


def test_custom_start_takes_the_plain_steps_exactly():
    sigma = manufactured_measure(3.0, 0.5)
    env = lower_envelope(3.0, W1, sigma, 0.5)
    start = GridFunction(grid=env.u.grid, values=1.5 * env.u.values,
                         left_exponent=env.u.left_exponent,
                         right_exponent=env.u.right_exponent)
    ref, ref_steps = _plain_iterate(3.0, W1, sigma, 0.5, start=start)
    tr = iterate(3.0, W1, sigma, 0.5, start=start, keep_iterates=False)
    assert tr.steps == ref_steps
    assert tr.scales == [1.0] * tr.steps
    assert np.array_equal(tr.solution.x, ref.x)
    assert np.array_equal(tr.solution.values, ref.values)


@pytest.mark.parametrize("p, q", [(2.0, 0.5), (3.0, 1.8)])
def test_dirac_iteration_is_exact_in_a_few_steps(p, q):
    # T maps every multiple of (1-|x|) to one, so the first scaled step lands
    # on the fixed point c (1-|x|), c^(p-1-q) = 1/2; the plain loop takes 28
    # and 184 steps
    c = 0.5 ** (1.0 / (p - 1.0 - q))
    tr = iterate(p, W1, D0, q, keep_iterates=False)
    assert tr.converged and tr.monotone and tr.steps <= 3
    u = tr.solution
    assert np.max(np.abs(u.values - c * (1.0 - np.abs(u.x)))) <= 1e-14


def test_scales_are_recorded_per_step():
    sigma = dirac(0.2).add(power_measure(0.6, 0.8))
    w = power_weight(0.3)
    tr = iterate(2.4, w, sigma, 0.5)
    assert len(tr.scales) == tr.steps == len(tr.iterates) - 1
    assert all(c >= 1.0 for c in tr.scales) and tr.scales[0] > 1.0
    # the solution is the last scale times the last, unscaled, solve
    last = tr.last_solution.u
    assert np.array_equal(tr.solution.x, last.x)
    assert np.allclose(tr.solution.values, tr.scales[-1] * last.values, rtol=1e-15, atol=0.0)
    assert tr.solution.left_exponent == last.left_exponent
    assert tr.solution.right_exponent == last.right_exponent


def test_non_monotone_step_from_the_envelope_raises(monkeypatch):
    # a step whose solve comes out far too low breaks the monotone invariant
    calls = []

    def shrunk(p, w, sigma, options=DEFAULT_OPTIONS):
        calls.append(sigma)
        return potential(p, w, sigma if len(calls) == 1 else sigma.scale(1e-3), options)

    monkeypatch.setattr(sublinear, "potential", shrunk)
    with pytest.raises(InternalInvariantError):
        iterate(2.0, W1, D0, 0.5)


def test_custom_start_never_raises_on_a_non_monotone_step():
    # from twice the fixed point the steps decrease: monotone is cleared,
    # nothing raises, and the limit is the fixed point c (1-|x|), c = 1/4
    env = lower_envelope(2.0, W1, D0, 0.5)
    start = GridFunction(grid=env.u.grid, values=0.5 * (1.0 - np.abs(env.u.x)),
                         left_exponent=1.0, right_exponent=1.0)
    tr = iterate(2.0, W1, D0, 0.5, start=start, keep_iterates=False)
    assert tr.converged and not tr.monotone
    assert np.max(np.abs(tr.solution.values - 0.25 * (1.0 - np.abs(tr.solution.x)))) < 1e-7


def test_norm_cap_past_the_float_range():
    # cap^(gamma+q) = 1e300^1.99 is no float; the cap bounds the norm itself
    # and is never reached here, so the iteration ends as under a lower cap
    sigma = power_measure(1.95)
    runs = [iterate(2.0, W1, sigma, 0.99, keep_iterates=False,
                    options=SolverOptions(divergence_cap=cap)) for cap in (1e100, 1e300)]
    for tr in runs:
        assert tr.converged and not tr.diverged
        assert 1e44 < tr.norms[-1] < 1e45
    assert runs[0].norms == runs[1].norms and runs[0].steps == runs[1].steps


def test_envelope_underflow_raises():
    # envelope_constant(2, 0.995) = (0.005)^200 is below the least double:
    # the envelope is zero everywhere and would pass for a fixed point
    assert envelope_constant(2.0, 0.995) == 0.0
    with pytest.raises(ValidationError, match="underflows"):
        iterate(2.0, W1, dirac(0.0, 3.0), 0.995)


# For 16 delta_0 at (p, q, gamma) = (2, 0.5, 10): sup W sigma = 8, the
# envelope's norm is 20.8, the first solve's sup 32 and, scaled by c = 2, the
# fixed point 64 (1-|x|) with norm 83.3.

def test_iterate_diverges_when_a_step_solve_passes_the_cap():
    tr = iterate(2.0, W1, dirac(0.0, 16.0), 0.5, gamma=10.0,
                 options=SolverOptions(divergence_cap=25.0))
    assert tr.diverged and not tr.converged and tr.steps == 1
    assert tr.last_solution.diverged and tr.scales == [1.0]
    assert len(tr.norms) == len(tr.iterates) == 1 and tr.final_residual == math.inf


def test_iterate_diverges_when_a_scaled_norm_passes_the_cap():
    tr = iterate(2.0, W1, dirac(0.0, 16.0), 0.5, gamma=10.0,
                 options=SolverOptions(divergence_cap=50.0))
    assert tr.diverged and not tr.converged and tr.steps == 1
    assert not tr.last_solution.diverged and tr.scales == [2.0]
    assert tr.norms[-1] == math.inf and len(tr.iterates) == 2
    assert tr.solution.sup() == pytest.approx(64.0, rel=1e-12)


def test_a_diverged_residual_solve_leaves_the_residual_infinite(monkeypatch):
    ref = iterate(2.0, W1, D0, 0.5, keep_iterates=False)
    calls = []

    def last_diverges(p, w, sigma, options=DEFAULT_OPTIONS):
        calls.append(sigma)
        # the envelope, one solve per step, then the residual solve
        cap = 0.0 if len(calls) == ref.steps + 2 else None
        return potential(p, w, sigma, options, cap=cap)

    monkeypatch.setattr(sublinear, "potential", last_diverges)
    tr = iterate(2.0, W1, D0, 0.5, keep_iterates=False)
    assert len(calls) == ref.steps + 2
    assert tr.converged and not tr.diverged and tr.final_residual == math.inf
    assert np.array_equal(tr.solution.values, ref.solution.values)


def test_iterate_rejects_zero_measure_and_bad_q():
    with pytest.raises(ValidationError):
        iterate(2.0, W1, RadonMeasure(), 0.5)
    with pytest.raises(ValidationError):
        iterate(2.0, W1, D0, 0.0)
    with pytest.raises(ValidationError):
        iterate(2.0, W1, D0, 1.0)


@pytest.mark.parametrize("sigma", [
    lebesgue(0.0),
    RadonMeasure(density=TabulatedDensity((-0.5, 0.2, 0.5), (0.0, 0.0, 0.0))),
    RadonMeasure(),
    power_measure(0.5, 0.0),
], ids=["zero constant", "zero tabulated", "zero measure", "zero power"])
def test_iterate_refuses_every_zero_measure_alike(sigma):
    assert sigma.is_zero
    with pytest.raises(ValidationError, match="sigma must be a nonzero measure"):
        iterate(2.0, W1, sigma, 0.5)


def test_a_zero_constant_density_adds_nothing():
    mu = lebesgue(0.0).add(dirac(0.3))
    assert isinstance(mu.density, ZeroDensity) and mu.atoms == dirac(0.3).atoms
    res, ref = potential(2.5, W1, mu), potential(2.5, W1, dirac(0.3))
    assert np.array_equal(res.u.values, ref.u.values)


def test_iterates_dominate_envelope():
    tr = iterate(2.0, W1, D0, 0.5)
    env = lower_envelope(2.0, W1, D0, 0.5)
    for u in tr.iterates:
        vals = u.values_at(env.u.grid)
        assert np.min(vals - env.u.values) > -1e-9


def test_iterate_empirical_uniqueness_from_clipped_start():
    # starting from min(2 u_0, u*) instead of the envelope converges to the
    # same limit: supports uniqueness without re-proving convexity
    sigma = manufactured_measure(3.0, 0.5)
    ref = iterate(3.0, W1, sigma, 0.5, keep_iterates=False)
    env = lower_envelope(3.0, W1, sigma, 0.5)
    ustar = 1.0 - env.u.x ** 2
    start = GridFunction(grid=env.u.grid,
                         values=np.minimum(2.0 * env.u.values, ustar),
                         left_exponent=env.u.left_exponent,
                         right_exponent=env.u.right_exponent)
    alt = iterate(3.0, W1, sigma, 0.5, start=start, require_monotone=False,
                  keep_iterates=False)
    assert alt.converged
    a = ref.solution.values_at(alt.solution.grid)
    assert np.max(np.abs(a - alt.solution.values)) < 1e-4


# -- iterated inequality ------------------------------------------------------------

def test_iterated_inequality_beta_one_is_identity():
    rep = iterated_inequality_check(2.0, W1, D0, 1.0)
    assert rep["pass"]
    assert rep["max_violation"] <= 1e-12


def test_iterated_inequality_dirac_beta_two_closed_form():
    # LHS ((1-|x|)/2)^2 against 2 W(u(0) delta) = (1-|x|)/2: holds strictly
    rep = iterated_inequality_check(2.0, W1, D0, 2.0)
    assert rep["pass"]
    lhs_peak = 0.25
    rhs_peak = 2.0 * 0.5 * 0.5
    assert lhs_peak <= rhs_peak


def test_iterated_inequality_lebesgue():
    rep = iterated_inequality_check(2.0, W1, lebesgue(), 1.5)
    assert rep["pass"]


def test_iterated_inequality_rejects_small_beta():
    with pytest.raises(ValidationError):
        iterated_inequality_check(2.0, W1, D0, 0.5)


# -- equivalence chain -----------------------------------------------------------------

def test_equivalence_chain_dirac_closed_form():
    # gamma = 1, q = 1/2: C_2 = (int (W sigma)^3 d sigma)^(1/1.5) = 1/4 and
    # the minimal solution norm C_1 = u(0) = 1/4: the upper link is equality
    rep = verify_equivalence(2.0, W1, D0, 0.5, 1.0)
    assert rep.chain_pass and not rep.diverged
    assert rep.C1 == pytest.approx(0.25, rel=1e-6)
    assert rep.C2 == pytest.approx(0.25, rel=1e-8)
    # the norm-inequality constant is bracketed through the chain
    lo, hi = rep.C3_bracket
    assert lo <= hi * (1.0 + 1e-9)
    assert lo == pytest.approx(0.25 ** (0.5 / 1.0), rel=1e-6)


def test_equivalence_chain_scaling_consistency():
    mu = lebesgue(0.5)
    r1 = verify_equivalence(2.0, W1, mu, 0.5, 1.0)
    r2 = verify_equivalence(2.0, W1, mu.scale(2.0), 0.5, 1.0)
    assert r1.chain_pass and r2.chain_pass
    # both constants carry the same homogeneity in sigma
    assert r2.C1 / r1.C1 == pytest.approx(r2.C2 / r1.C2, rel=1e-5)


def test_equivalence_divergent_criterion():
    # coefficient above the finite-energy threshold: C_2 = inf and the
    # iteration norms blow past the cap
    astar = hardy_threshold(2.0, 0.5, 0.0)
    rep = verify_equivalence(2.0, W1, power_measure(astar + 0.15), 0.5, 1.0)
    assert rep.diverged
    assert rep.C2 == math.inf
    assert rep.chain_pass  # here: divergence agreement
    assert rep.trace.diverged


# -- finite energy --------------------------------------------------------------------

def test_finite_energy_manufactured_hand_integrals():
    # for u* = 1 - x^2, p = 3, q = 1/2:
    #   |u*'|_3^3 = int |2x|^3 dx = 4   and   int u*^(3/2) d sigma = 4
    sigma = manufactured_measure(3.0, 0.5)
    rep = finite_energy_check(3.0, W1, sigma, 0.5)
    assert rep["pass"]
    assert rep["grad_norm_p"] == pytest.approx(4.0, rel=1e-5)
    assert rep["weak_form_integral"] == pytest.approx(4.0, rel=1e-5)
    assert rep["identity_gap"] < 1e-5


def test_finite_energy_manufactured_identity_gap():
    # criterion_4's instance
    rep = finite_energy_check(3.0, W1, manufactured_measure(3.0, 0.5), 0.5)
    assert rep["identity_gap"] <= 3e-7


def test_manufactured_iteration_is_exact_to_the_quadrature():
    # criterion_4's instance, u* = 1 - x^2: read from its solves, the
    # iteration keeps no interpolation error (1.5e-7 through a PCHIP)
    sigma = manufactured_measure(3.0, 0.5)
    rep = finite_energy_check(3.0, W1, sigma, 0.5)
    u = iterate(3.0, W1, sigma, 0.5, keep_iterates=False).solution
    assert rep["identity_gap"] <= 1e-9
    assert np.max(np.abs(u.values - (1.0 - u.x ** 2))) <= 1e-9


def test_finite_energy_dirac_sandwich():
    rep = finite_energy_check(2.0, W1, D0, 0.5)
    assert rep["pass"]
    c_v = envelope_constant(2.0, 0.5)
    assert c_v ** 1.5 * rep["energy"] <= rep["grad_norm_p"] * (1 + 1e-12)
    assert rep["grad_norm_p"] <= rep["energy"] * (1 + 1e-12)


def test_finite_energy_rejects_divergent_criterion():
    with pytest.raises(ValidationError):
        finite_energy_check(2.0, W1, power_measure(1.9), 0.5)


# -- bounded solutions ------------------------------------------------------------------

def test_bounded_solution_dirac():
    # |W delta|_{L^inf(delta)} = 1/2, C_2^inf = (1/2)^2 = 1/4 = sup u exactly
    rep = bounded_solution_check(2.0, W1, D0, 0.5)
    assert rep["pass"]
    assert rep["C2_inf"] == pytest.approx(0.25, rel=1e-9)
    assert rep["sup_u"] <= rep["C2_inf"] * (1 + 1e-6)


def test_bounded_solution_power_window():
    # alpha = 1.2 < p - beta = 2: bounded solution with boundary decay,
    # dominated by the explicit supersolution C (1-|x|)^A
    rep = bounded_solution_check(2.0, W1, power_measure(1.2), 0.5)
    assert rep["pass"]
    assert rep["boundary_decay"]
    assert rep["dominated"]
    assert rep["outermost_values"] <= 1e-4


def test_bounded_solution_rejects_zero():
    with pytest.raises(ValidationError):
        bounded_solution_check(2.0, W1, RadonMeasure(), 0.5)


# -- threshold sweep ----------------------------------------------------------------------

def test_hardy_sweep_spot_values():
    rows = hardy_sweep(2.0, 0.0, 0.5, [1.0])
    assert rows[0]["classification"] == "solvable"  # 1.0 < 1.75
    rows = hardy_sweep(2.0, 0.0, 0.5, [1.9])
    assert rows[0]["classification"] == "not_solvable"  # 1.9 > 1.75, though < 2
    # and the same coefficient still has a bounded solution (1.9 < p - beta)
    rep = bounded_solution_check(2.0, W1, power_measure(1.9), 0.5)
    assert rep["finite"]
    rows = hardy_sweep(3.0, 1.0, 0.0, [1.5])
    assert rows[0]["alpha_star"] == pytest.approx(4.0 / 3.0)
    assert rows[0]["classification"] == "not_solvable"


def test_hardy_sweep_long_transit_outside_band():
    # near-threshold convergent case with a huge limit (E ~ 1.6e4): the
    # increment ratios decelerate through one over many levels and must not
    # be cut off as divergent (regression: alpha = 1.30, alpha* = 1.375)
    rows = hardy_sweep(2.0, 0.5, 0.5, [1.25, 1.30, 1.45])
    assert all(r["agree"] for r in rows)
    assert rows[0]["classification"] == "solvable"
    assert rows[1]["classification"] == "solvable"
    assert rows[2]["classification"] == "not_solvable"


def test_hardy_sweep_validates_window():
    with pytest.raises(ValidationError):
        hardy_sweep(2.0, 0.0, 0.5, [2.5])  # outside alpha < p - beta
    with pytest.raises(ValidationError):
        hardy_sweep(2.0, 1.5, 0.5, [1.0])  # beta outside (-1, p-1)


@pytest.mark.parametrize("k", [4, 8])
def test_bounded_solution_check_reads_the_power_through_a_window(k):
    p, q, alpha = 2.0, 0.5, 0.5
    rep = bounded_solution_check(p, W1, power_measure(alpha).truncate(k), q)
    C, A = sublinear._supersolution_profile(p, 0.0, q, alpha)
    assert (rep["supersolution_C"], rep["supersolution_A"]) == (C, A)
    assert rep["pass"] and rep["dominated"] and rep["boundary_decay"]
