import math
import sys
import threading
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from sublap import solver
from sublap.energy import (
    energy,
    mee_bound,
    quasi_additivity_check,
    sup_norm_energy,
    triple_norm,
)
from sublap.errors import InternalInvariantError, ValidationError
from sublap.measures import (
    CustomDensity,
    ManufacturedDensity,
    PowerDensity,
    RadonMeasure,
    TabulatedDensity,
    dirac,
    lebesgue,
    manufactured_measure,
    power_measure,
)
from sublap.quadrature import Points, bracketed_root, graded_grid, points_from_x
from sublap.solver import (
    DEFAULT_OPTIONS,
    SolverOptions,
    check_comparison,
    potential,
    solve_dirichlet,
)
from sublap.sublinear import (
    bounded_solution_check,
    finite_energy_check,
    hardy_sweep,
    iterate,
    iterated_inequality_check,
    lower_envelope,
    verify_equivalence,
)
from sublap.trace import rayleigh_lower, trace_bracket
from sublap.weights import Weight, constant_weight, power_weight
from sublap.wolff import ratio_report

W1 = constant_weight()
LEVELS = tuple(range(1, 41))


# -- the paper's definition: monotone limits of truncation ladders ------------------

@dataclass
class _Limit:
    """Outcome of ``_monotone_limit``: the last level's value (+inf once the
    ladder diverged) and payload, every level's value, and how it stopped."""

    value: object = 0.0
    payload: object = None
    values: list = field(default_factory=list)
    levels: int = 0
    last_level: int = 0
    converged: bool = False
    diverged: bool = False


def _tail_ratio(increments):
    """Ratios of successive positive increments among the last six, and their
    geometric mean (nan when there is no ratio)."""
    tail = np.asarray(increments[-6:], dtype=float)
    pos = tail[tail > 0.0]
    ratios = pos[1:] / pos[:-1]
    gm = float(np.exp(np.mean(np.log(ratios)))) if ratios.size else math.nan
    return ratios, gm


def _monotone_limit(evaluate, schedule, tol: float, cap: float,
                    growth: float, drop_slack: float) -> _Limit:
    """Monotone limit of ``evaluate(k) -> (value, payload)`` along ``schedule``.

    The value is a number or an array compared pointwise.  The ladder stops
    as converged after two successive increments of at most ``tol`` times the
    current sup, and as diverged once the sup exceeds ``cap`` or the
    increments stagnate at ratio ``growth`` or more.  A decrease beyond
    drop_slack * (1 + the larger level magnitude) breaks the monotonicity the
    limit rests on and raises.
    """
    lim = _Limit()
    increments: list[float] = []
    for k in schedule:
        value, lim.payload = evaluate(k)
        lim.levels += 1
        lim.last_level = k
        if lim.values:
            prev = lim.values[-1]
            drop = float(np.max(prev - value))
            slack = drop_slack * (1.0 + max(float(np.max(np.abs(prev))),
                                            float(np.max(np.abs(value)))))
            if drop > slack:
                raise InternalInvariantError(
                    f"monotone_limit: level {k} lowered the values by "
                    f"{drop:.3e}; a truncation ladder must be monotone"
                )
            increments.append(float(np.max(value - prev)))
        lim.values.append(value)
        lim.value = value
        sup = float(np.max(value))
        if sup > cap:
            lim.diverged = True
            break
        floor = tol * max(abs(sup), 1e-300)
        if len(increments) >= 2 and increments[-1] <= floor and increments[-2] <= floor:
            lim.converged = True
            break
        if len(increments) >= 10 and increments[-1] > floor:
            # six positive increments whose ratios settled at ``growth`` or
            # more are not decaying: a slowly divergent limit
            ratios, gm = _tail_ratio(increments)
            if ratios.size == 5 and gm >= growth and np.max(ratios) / np.min(ratios) <= 1.06:
                lim.diverged = True
                break
    if lim.diverged:
        lim.value = math.inf
    return lim


def green_potential_at_zero(density_of_t) -> float:
    """Independent oracle for p=2, w=1: u(0) = int G(0, y) d mu(y) with the
    interval Green function G(0, y) = (1 - |y|)/2, by direct Gauss panels on
    a geometric grid in t = 1 - |y| (no solver machinery involved)."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    total = 0.0
    edges = np.geomspace(1e-14, 1.0, 300)
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = hi - lo
        ts = lo + (nodes + 1.0) / 2.0 * h
        total += h / 2.0 * float(np.dot(weights, ts / 2.0 * density_of_t(ts)))
    return 2.0 * total  # both halves of the interval contribute equally


# -- exact solutions ----------------------------------------------------------

def test_dirac_green_function_all_p():
    for p in (1.5, 2.0, 3.0):
        res = solve_dirichlet(p, W1, dirac(0.0))
        exact = 0.5 ** (1.0 / (p - 1.0)) * (1.0 - np.abs(res.u.x))
        assert np.max(np.abs(res.u.values - exact)) < 1e-12
        assert res.flux_constant == pytest.approx(0.5, abs=1e-12)
        # pure atoms with a constant weight are integrated in closed form,
        # so the peak carries no quadrature rounding
        assert res.u(0.0)[0] == 0.5 ** (1.0 / (p - 1.0))


def test_offcenter_dirac_green_function():
    res = solve_dirichlet(2.0, W1, dirac(0.5))
    x = res.u.x
    exact = np.where(x <= 0.5, (1.0 + x) * 0.25, (1.0 - x) * 0.75)
    assert np.max(np.abs(res.u.values - exact)) < 1e-12
    assert res.flux_constant == pytest.approx(0.25, abs=1e-12)


def test_lebesgue_parabola():
    res = solve_dirichlet(2.0, W1, lebesgue())
    exact = (1.0 - res.u.x ** 2) / 2.0
    assert np.max(np.abs(res.u.values - exact)) < 1e-12


def test_exact_power_family_spot_case():
    # the distributional identity family: u = (1-|x|)^A solves the problem
    # with density -A^(p-1) m (1-|x|)^(m-1), m = (A-1)(p-1)+beta, plus the
    # atom 2 A^(p-1) at 0; reached through the truncation ladder
    p, beta, A = 2.0, 0.5, 0.4
    m = (A - 1.0) * (p - 1.0) + beta
    mu = RadonMeasure(atoms=((0.0, 2.0 * A ** (p - 1.0)),),
                      density=PowerDensity(alpha=1.0 - m, coef=-A ** (p - 1.0) * m))
    res = potential(p, power_weight(beta), mu, schedule=tuple(range(1, 101)))
    exact = (1.0 - np.abs(res.u.x)) ** A
    assert np.max(np.abs(res.u.values - exact)) < 1e-6


# -- boundary conditions and flux ------------------------------------------------

def test_dirichlet_endpoints_and_residual():
    rng = np.random.default_rng(42)
    for _ in range(5):
        mu = dirac(float(rng.uniform(-0.7, 0.7)), float(rng.uniform(0.5, 2.0)))
        mu = mu.add(power_measure(float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.1, 1.0))))
        p = float(rng.uniform(1.6, 3.0))
        res = solve_dirichlet(p, W1, mu)
        assert res.u.values[0] == 0.0 and res.u.values[-1] == 0.0
        assert res.boundary_residual <= 1e-10
        assert 0.0 <= res.flux_constant <= mu.total_mass() * (1.0 + 1e-12)


def test_flux_monotone_and_uprime_nonincreasing_unweighted():
    # for w = 1 and mu >= 0 the flux c - M(x) is nonincreasing, hence so is u'
    mu = dirac(-0.3, 0.8).add(lebesgue(0.5))
    res = solve_dirichlet(2.5, W1, mu)
    assert np.all(np.diff(res.flux_nodes) <= 1e-14)
    assert np.all(np.diff(res.u_prime) <= 1e-12)


def _bisection_root(g, lo, hi, xtol):
    """Root of a nondecreasing g with g(lo) <= 0 <= g(hi) by plain
    bisection, the reference for the safeguarded Newton root."""
    assert g(lo) <= 0.0 <= g(hi)
    while hi - lo > xtol:
        m = 0.5 * (lo + hi)
        if not lo < m < hi:
            break  # the bracket is down to the float spacing
        if g(m) < 0.0:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


def test_bracketed_root_bisection_budget():
    # the flux-constant search must hit 1e-12 bracket width within 200 steps
    g = lambda c: (c ** 3 - 0.1, 3.0 * c ** 2)
    root, val, iters = bracketed_root(g, -2.0, 3.0, xtol=1e-12, max_iter=200)
    assert iters <= 200
    assert abs(root - 0.1 ** (1 / 3)) < 1e-10
    res = solve_dirichlet(3.0, W1, dirac(0.2, 1.7))
    assert res.root_iterations <= 200


def test_bracketed_root_rejects_an_empty_budget():
    # max_iter = 0 returned an unbound name
    g = lambda c: (c - 0.5, 1.0)
    with pytest.raises(ValidationError):
        bracketed_root(g, 0.0, 1.0, max_iter=0)
    assert bracketed_root(g, 0.0, 1.0, max_iter=1)[2] == 1


@pytest.mark.parametrize("bad", [
    {"max_root_iter": 0}, {"n_gauss": 0}, {"n_nodes": 7},
    {"grading_ratio": 0.0}, {"grading_ratio": 1.0}, {"grading_ratio": math.nan},
    {"y_floor": 0.0}, {"y_floor": 1.0}, {"bracket_tol": 0.0}, {"bracket_tol": -1e-12},
    {"divergence_cap": 0.0}, {"divergence_cap": -1.0},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_solver_options_reject_out_of_range_fields(bad):
    with pytest.raises(ValidationError):
        SolverOptions(**bad)


def test_solver_options_reproducers_raise_validation_errors():
    # max_root_iter = 0 raised UnboundLocalError inside the root find and
    # n_gauss = 0 numpy's ValueError inside the panel layout
    for bad in ({"max_root_iter": 0}, {"n_gauss": 0}):
        with pytest.raises(ValidationError):
            solve_dirichlet(2.0, W1, power_measure(0.5), SolverOptions(**bad))
    # the least admissible values still solve
    res = solve_dirichlet(2.0, W1, power_measure(0.5),
                          SolverOptions(n_nodes=8, max_root_iter=1, n_gauss=1))
    assert res.u.finite and not res.diverged


def _newton_cases():
    sigma = dirac(0.2).add(power_measure(0.6, 0.8))
    w = power_weight(0.3)
    u = potential(2.4, w, sigma).u
    return [
        (3.0,) + _power_family(3.0, 0.0, 0.65)[:2],
        (1.5,) + _power_family(1.5, -0.5, 0.85)[:2],
        (2.0, W1, power_measure(1.2)),
        (2.4, w, sigma.pushforward(u.power_factor(0.5))),
        # the flux vanishes between the atoms, where G' is infinite for p > 2
        (3.0, W1, dirac(-0.5).add(dirac(0.5))),
        (3.0, W1, dirac(-0.5, 0.3).add(dirac(0.2, 1.0)).add(dirac(0.7, 0.4))),
    ]


@pytest.mark.parametrize("case", range(6), ids=["criterion_2_p3", "criterion_2_p1.5",
                                                "power_1.2", "iterate_pushforward",
                                                "p3_flux_zero", "p3_atoms"])
def test_newton_root_matches_bisection_root(case):
    p, w, mu = _newton_cases()[case]
    ws = solver._Workspace(p, w, mu, DEFAULT_OPTIONS)
    c_old = _bisection_root(lambda c: ws.G(c)[0], *ws.bracket,
                            xtol=DEFAULT_OPTIONS.bracket_tol)
    c_new, _, evals = ws.solve_constant()
    assert abs(c_new - c_old) <= DEFAULT_OPTIONS.bracket_tol
    assert evals <= 12


def test_symmetric_solve_needs_few_root_evaluations():
    res = solve_dirichlet(2.0, W1, power_measure(0.5))
    assert 1 <= res.root_iterations <= 8


def test_root_iterations_count_every_evaluation_of_both_root_finds(monkeypatch):
    evals = []

    def counting(g, *args, **kwargs):
        def counted(c):
            evals.append(c)
            return g(c)
        return bracketed_root(counted, *args, **kwargs)

    monkeypatch.setattr(solver, "bracketed_root", counting)
    # the flux changes sign between nodes, so the solve is refined there
    res = solve_dirichlet(2.0, W1, lebesgue(1.0).add(dirac(0.6, 0.3)))
    assert res.resolved and res.root_iterations == len(evals)
    evals.clear()
    res = solve_dirichlet(2.0, W1, dirac(0.3))
    assert not res.resolved and res.root_iterations == len(evals)


@pytest.mark.parametrize("wrapped", [True, False], ids=["custom", "manufactured"])
def test_panel_rule_cumulative_matches_the_closed_form(wrapped):
    # the manufactured density has no closed cumulative: S comes from the
    # panel rule; its exact cumulative is 8 x^2 / (1 + sqrt(1 - x^2)).  The
    # x-evaluated wrapper's endpoint ladder runs from the innermost node
    # (~1e-13) down to a quarter of it (the 1e-12 cut is above the node),
    # the density itself runs it down to 1e-17 in many panels
    dens = ManufacturedDensity(3.0, 0.5)
    mu = RadonMeasure(density=CustomDensity(
        func=lambda x: dens.values(points_from_x(x)),
        sing_left=0.5, sing_right=0.5, breaks=(0.0,)) if wrapped else dens)
    ws = solver._Workspace(3.0, W1, mu, DEFAULT_OPTIONS)

    def exact(pts):
        return np.sign(pts.x) * 8.0 * pts.x ** 2 / (1.0 + np.sqrt(pts.y * (2.0 - pts.y)))

    pts = ws.panels.pts
    assert np.all(np.abs(ws.S - exact(pts)) <= 1e-9 * np.abs(exact(pts)))
    inner = slice(1, -1)
    assert np.allclose(ws.S_nodes[inner], exact(ws.grid)[inner], rtol=1e-9, atol=0.0)
    assert ws.S_nodes[0] == pytest.approx(-8.0, rel=1e-9)
    assert ws.S_nodes[-1] == pytest.approx(8.0, rel=1e-9)


@pytest.mark.parametrize("p, w, mu", [
    (2.0, W1, power_measure(0.5)),
    (1.7, power_weight(0.4), dirac(-0.3, 0.7).add(power_measure(0.6, 0.8))),
    (3.0, W1, lebesgue(0.5).add(dirac(0.0, 1.5))),
    (2.5, W1, dirac(0.4, 2.0)),
])
def test_flux_constant_is_the_anchor_plus_the_left_mass(p, w, mu):
    res = solve_dirichlet(p, w, mu)
    assert res.flux_constant == pytest.approx(res.flux_anchor + mu.side_mass(-1), rel=1e-13)


def test_solution_values_nonnegative():
    res = solve_dirichlet(1.7, W1, power_measure(0.3, 0.2).add(dirac(0.9, 0.1)))
    assert np.all(res.u.values >= 0.0)


# -- extended potential -----------------------------------------------------------

def test_potential_power_density_green_oracle():
    # mu = (1-|x|)^(-1.5) dx has infinite mass; for p = 2 the limit potential
    # at 0 equals int G(0,y) dmu = int_0^1 t^(-1/2) dt = 2 (hand integral),
    # cross-checked against the direct Green quadrature oracle
    oracle = green_potential_at_zero(lambda t: t ** -1.5)
    assert oracle == pytest.approx(2.0, rel=1e-5)
    res = potential(2.0, W1, power_measure(1.5), schedule=tuple(range(1, 81)))
    u0 = res.u(np.asarray([0.0]))[0]
    assert u0 == pytest.approx(2.0, rel=1e-8)
    assert not res.diverged


def test_potential_of_finite_measure_matches_direct_solve():
    # finite mass is solved once; the ladder it no longer walks must still
    # converge to that solve
    for mu in (dirac(0.1, 0.4).add(lebesgue(0.3)), power_measure(0.5)):
        res = potential(2.0, W1, mu)
        assert res.truncation_levels_used == 0 and res.ladder_converged
        assert np.array_equal(res.u.values, solve_dirichlet(2.0, W1, mu).u.values)
        grid = res.u.grid
        lim = _monotone_limit(
            lambda k: (solve_dirichlet(2.0, W1, mu.truncate(k)).u.values_at(grid), None),
            LEVELS, tol=1e-9, cap=1e12,
            growth=0.98, drop_slack=1e-10)
        assert lim.converged and lim.levels > 2
        assert np.max(np.abs(lim.value - res.u.values)) < 1e-9


def test_potential_divergence_detected():
    # int G(0,y) (1-y)^(-2) dy ~ int (1-y)^(-1) dy diverges: W mu == inf
    res = potential(2.0, W1, power_measure(2.0))
    assert res.diverged
    assert np.all(np.isinf(res.u.values))


@pytest.mark.parametrize("solve", [solve_dirichlet, potential], ids=["solve", "potential"])
def test_the_zero_measure_is_an_ordinary_solve(solve):
    res = solve(2.0, power_weight(0.5), RadonMeasure())
    assert not res.diverged and res.quad is not None and res.flux_constant == 0.0
    assert np.all(res.u.values == 0.0) and np.all(res.quad.u == 0.0)
    # w vanishes at +-1, where the flux is 0: u' is 0 there, not 0 * inf
    assert np.all(res.u_prime == 0.0)


def test_potential_monotone_in_truncation_level():
    mu = power_measure(1.2)
    prev = None
    for k in (2, 4, 8, 16):
        res = solve_dirichlet(2.0, W1, mu.truncate(k))
        if prev is not None:
            vals = res.u.values_at(prev.u.grid)
            assert np.min(vals - prev.u.values) > -1e-11
        prev = res


# -- infinite mass in one solve -----------------------------------------------------

def _power_family(p, beta, frac):
    """criterion_2's exact family: u = (1 - |x|)^A for an atom at 0 plus a
    power density of infinite mass."""
    A = frac * (1.0 - beta / (p - 1.0))
    m = (A - 1.0) * (p - 1.0) + beta
    mu = RadonMeasure(atoms=((0.0, 2.0 * A ** (p - 1.0)),),
                      density=PowerDensity(alpha=1.0 - m, coef=-A ** (p - 1.0) * m))
    return (power_weight(beta) if beta != 0.0 else W1), mu, A


@pytest.mark.parametrize("p, beta, frac", [(1.555, 0.394, 0.544), (3.0, 1.8, 0.5)])
def test_power_family_near_the_edge_of_the_weight_window(p, beta, frac):
    # beta/(p-1) ~0.71, 8e-6 off along the 100-level ladder, and
    # beta/(p-1) = 0.9, where u' ~ dist^-0.95: cutting the tail at the
    # 1e-280 floor would overflow the density (1 - |x|)^-1.1
    w, mu, A = _power_family(p, beta, frac)
    res = potential(p, w, mu)
    assert not res.diverged and res.u.finite
    assert np.max(np.abs(res.u.values - (1.0 - np.abs(res.u.x)) ** A)) < 1e-6
    assert res.u.left_exponent == pytest.approx(A, abs=1e-12)
    assert res.u.right_exponent == pytest.approx(A, abs=1e-12)


def _mirror_gap(res) -> tuple[float, float]:
    """Largest relative gap of u between mirrored nodes (x[k] == -x[n-1-k])
    and between the mirrored quadrature points of the two endpoint cells."""
    x, u = res.u.x, res.u.values
    k = np.arange(x.size // 2)
    k = k[x[k] == -x[::-1][k]]
    nodes = np.max(np.abs(u[k] - u[::-1][k]) / np.maximum(u[k], 1e-300))
    pts, qu = res.quad.pts, res.quad.u
    ends = [np.flatnonzero(pts.x < x[1]), np.flatnonzero(pts.x > x[-2])]
    left, right = (i[np.argsort(pts.y[i], kind="stable")] for i in ends)
    assert np.array_equal(pts.y[left], pts.y[right])  # the cells are placed in y
    cells = np.max(np.abs(qu[left] - qu[right]) / np.maximum(qu[left], 1e-300))
    return float(nodes), float(cells)


@pytest.mark.parametrize("p, w, mu", [
    (2.0, W1, power_measure(0.5)),
    (1.5,) + _power_family(1.5, -0.5, 0.65)[:2],
], ids=["power0.5", "family-beta-0.5"])
def test_u_of_a_symmetric_measure_is_mirror_symmetric(p, w, mu):
    # each half is integrated from its own endpoint, so u keeps its relative
    # accuracy near x = +1 as near x = -1 (a sum from -1 lost all of it there
    # for the family at p = 1.5, beta = -0.5)
    res = potential(p, w, mu)
    nodes, cells = _mirror_gap(res)
    assert nodes <= 1e-12 and cells <= 1e-12
    assert res.boundary_residual <= 1e-12 * res.u.sup()


def test_potential_declares_the_edge_exponents_of_the_limit():
    # u ~ dist^(1 - s), s = (alpha - 1)/(p - 1) = 0.2, not the exponent 1 of a
    # truncated level; the classical flux constant is infinite
    res = potential(2.0, W1, power_measure(1.2))
    assert res.u.left_exponent == pytest.approx(0.8, abs=1e-12)
    assert res.u.right_exponent == pytest.approx(0.8, abs=1e-12)
    assert res.flux_constant == math.inf and res.truncation_levels_used == 0


@pytest.mark.parametrize("p, w, mu", [
    (3.0,) + _power_family(3.0, 0.0, 0.65)[:2],
    (1.5,) + _power_family(1.5, -0.5, 0.85)[:2],
    (2.0, W1, power_measure(1.2)),
    (2.0, power_weight(0.3), power_measure(1.2)),
    (2.5, W1, dirac(0.3, 0.7).add(power_measure(1.3, 0.8))),
], ids=["criterion_2_p3", "criterion_2_p1.5", "constant_weight", "power_weight",
        "atom_plus_density"])
def test_direct_potential_is_the_monotone_limit_of_truncations(p, w, mu):
    # the extended potential is defined as the monotone limit of the solves
    # of mu.truncate(k); _monotone_limit raises on a level that drops
    res = potential(p, w, mu)
    grid = res.u.grid
    lim = _monotone_limit(
        lambda k: (solve_dirichlet(p, w, mu.truncate(k)).u.values_at(grid), None),
        tuple(range(1, 101)), tol=1e-9, cap=1e12, growth=0.98, drop_slack=1e-10)
    assert lim.converged
    sup = res.u.sup()
    # the ladder climbs to the direct solve from below and stops within ten
    # times its own tolerance of it
    assert np.max(lim.value - res.u.values) <= 1e-10 * sup
    assert np.max(np.abs(lim.value - res.u.values)) <= 1e-8 * sup


# -- the monotone-limit driver on synthetic ladders ---------------------------------

def _ladder(values):
    return lambda k: (values[k - 1], k)


@pytest.mark.parametrize("growth", [0.98, 1.02])
def test_monotone_limit_geometric_decay_converges(growth):
    # increments 2^-k: the first two at most 1e-9 of the value are 2^-30, 2^-31
    lim = _monotone_limit(_ladder([1.0 - 0.5 ** k for k in LEVELS]), LEVELS,
                          tol=1e-9, cap=1e12, growth=growth, drop_slack=1e-9)
    assert lim.converged and not lim.diverged
    assert lim.levels == lim.last_level == 31 and lim.payload == 31
    assert lim.value == 1.0 - 0.5 ** 31 and len(lim.values) == 31


def test_monotone_limit_constant_increments_stagnate_only_at_ratio_one():
    ramp = _ladder([float(k) for k in LEVELS])
    lim = _monotone_limit(ramp, LEVELS, tol=1e-9, cap=1e12, growth=0.98, drop_slack=1e-10)
    # ten increments of ratio one: a logarithmic-type divergence
    assert lim.diverged and not lim.converged
    assert lim.levels == 11 and lim.value == math.inf
    lim = _monotone_limit(ramp, LEVELS, tol=1e-9, cap=1e12, growth=1.02, drop_slack=1e-9)
    # growth mode waits for genuine geometric growth: the schedule runs out
    assert not lim.diverged and not lim.converged
    assert lim.levels == 40 and lim.value == 40.0


def test_monotone_limit_cap_crossing_diverges():
    lim = _monotone_limit(_ladder([10.0 ** k for k in LEVELS]), LEVELS,
                          tol=1e-9, cap=1e5, growth=1.02, drop_slack=1e-9)
    assert lim.diverged and not lim.converged
    assert lim.levels == 6 and lim.value == math.inf
    assert lim.values[-1] == 1e6


def test_monotone_limit_vector_values_use_the_sup():
    vals = [np.array([0.0, 1.0 - 0.5 ** k, 0.5]) for k in LEVELS]
    lim = _monotone_limit(_ladder(vals), LEVELS, tol=1e-9, cap=1e12,
                          growth=0.98, drop_slack=1e-10)
    assert lim.converged and lim.levels == 31
    lim = _monotone_limit(_ladder(vals), LEVELS, tol=1e-9, cap=0.7,
                          growth=0.98, drop_slack=1e-10)
    assert lim.diverged and lim.levels == 2


def test_monotone_limit_drop_beyond_slack_raises():
    dropping = _ladder([1.0, 2.0, 2.0 - 1e-6, 3.0])
    with pytest.raises(InternalInvariantError):
        _monotone_limit(dropping, (1, 2, 3, 4), tol=1e-9, cap=1e12,
                        growth=1.02, drop_slack=1e-9)
    # a drop within the slack is rounding, not a broken ladder
    _monotone_limit(_ladder([1.0, 2.0, 2.0 - 1e-10, 3.0]), (1, 2, 3, 4),
                    tol=1e-9, cap=1e12, growth=1.02, drop_slack=1e-9)


# -- panel cache ------------------------------------------------------------------

def _stress_measure(k: int) -> RadonMeasure:
    # an atom off the center and a density without a closed cumulative: the
    # panel rule's cumulative, a flux sign change and its re-solve
    return RadonMeasure(atoms=((-0.7 + 0.02 * k, 0.5),),
                        density=CustomDensity(func=lambda x: 1.0 + x * x))


def test_panel_cache_evictions_racing_lookups_keep_results_and_bound():
    w = power_weight(0.3)
    n_measures, n_threads = 30, 8
    measures = [_stress_measure(k) for k in range(n_measures)]
    misses = solver.panel_cache_info().misses
    serial = [solve_dirichlet(2.4, w, mu) for mu in measures]
    serial_quad = [solver.measure_quadrature(mu) for mu in measures]
    # more distinct structures than the bound (a solve, its re-solve and a
    # measure quadrature each): every pass evicts
    assert solver.panel_cache_info().misses - misses > solver._PANEL_CACHE_SIZE
    sizes, mismatches = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = threading.Barrier(n_threads, timeout=60.0)

        def run(t):
            start.wait()
            for k in np.random.default_rng(t).permutation(n_measures):
                res = solve_dirichlet(2.4, w, measures[k])
                pts, wq, dens = solver.measure_quadrature(measures[k])
                sizes.append(solver.panel_cache_info().size)
                ref, (ref_pts, ref_wq, ref_dens) = serial[k], serial_quad[k]
                if not (np.array_equal(res.u.values, ref.u.values)
                        and res.flux_anchor == ref.flux_anchor
                        and np.array_equal(pts.x, ref_pts.x)
                        and np.array_equal(wq, ref_wq) and np.array_equal(dens, ref_dens)):
                    mismatches.append(int(k))

        threads = [threading.Thread(target=run, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []
    assert len(sizes) == n_threads * n_measures
    assert max(sizes) <= solver._PANEL_CACHE_SIZE == 64
    assert solver.panel_cache_info().size <= 64


def test_panel_cache_lookup_survives_concurrent_clear():
    # one thread empties the cache in a loop while four solve: lookups,
    # builds and insertions race the clears, and every result equals the
    # serial one bit for bit
    w = power_weight(0.3)
    measures = [_stress_measure(k) for k in range(8)]
    serial = [solve_dirichlet(2.4, w, mu) for mu in measures]
    n_threads, clears, errors, mismatches = 4, [0], [], []
    done = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = threading.Barrier(n_threads + 1, timeout=60.0)

        def clear():
            start.wait()
            while not done.is_set():
                solver._PANEL_CACHE.clear()
                clears[0] += 1

        def run(t):
            start.wait()
            try:
                for k in np.random.default_rng(t).permutation(2 * len(measures)) % len(measures):
                    res, ref = solve_dirichlet(2.4, w, measures[k]), serial[k]
                    if not (np.array_equal(res.u.values, ref.u.values)
                            and res.flux_anchor == ref.flux_anchor):
                        mismatches.append(int(k))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        clearer = threading.Thread(target=clear)
        threads = [threading.Thread(target=run, args=(t,)) for t in range(n_threads)]
        for t in [clearer, *threads]:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive()
    finally:
        done.set()
        sys.setswitchinterval(interval)
    clearer.join(timeout=60.0)
    assert not clearer.is_alive()
    assert errors == [] and mismatches == []
    assert clears[0] > 0


def test_repeated_iteration_makes_no_panel_cache_miss():
    # the ROADMAP instance: every structure of the second run is cached
    sigma = dirac(0.2).add(power_measure(0.6, 0.8))
    first = iterate(2.4, power_weight(0.3), sigma, 0.5)
    before = solver.panel_cache_info()
    second = iterate(2.4, power_weight(0.3), sigma, 0.5)
    after = solver.panel_cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
    assert after.maxsize == 64 and after.size <= 64
    assert np.array_equal(first.solution.values, second.solution.values)


@pytest.mark.parametrize("mu", [power_measure(0.5), dirac(0.0),
                                manufactured_measure(3.0, 0.5)],
                         ids=["power", "dirac", "manufactured"])
def test_the_panel_structure_does_not_read_the_mass(mu):
    # the endpoint ladders are cut from declared powers alone, so mu and its
    # multiples share one structure; at p = 1.5 an estimate of the mass
    # would move the cut across decades within this range of factors
    solver._PANEL_CACHE.clear()
    before = solver.panel_cache_info().misses
    for a in np.geomspace(0.25, 4.0, 9):
        res = solve_dirichlet(1.5, W1, mu.scale(float(a)))
        assert not res.resolved
    assert solver.panel_cache_info().misses - before == 1


def test_cached_structures_give_the_results_of_fresh_builds():
    # the second solve and measure quadrature reuse the structure and what
    # is kept with it (weight values)
    sigma = dirac(0.2).add(power_measure(0.6, 0.8))
    u = solve_dirichlet(2.4, power_weight(0.3), sigma).u
    cases = [(2.4, power_weight(0.3), sigma.pushforward(u.power_factor(0.5))),
             (3.0, constant_weight(), _stress_measure(3))]
    solver._PANEL_CACHE.clear()
    fresh = [solve_dirichlet(*case) for case in cases]
    quads = [solver.measure_quadrature(case[2]) for case in cases[1:]]
    again = [solve_dirichlet(*case) for case in cases]
    assert solver.panel_cache_info().size > 0
    assert fresh[1].resolved  # the re-solve's structure is reused too
    for a, b in zip(fresh, again):
        assert a.resolved == b.resolved
        assert np.array_equal(a.u.values, b.u.values) and a.flux_anchor == b.flux_anchor
        assert np.array_equal(a.quad.w_vals, b.quad.w_vals)
    for (pts, wq, dens), case in zip(quads, cases[1:]):
        pts2, wq2, dens2 = solver.measure_quadrature(case[2])
        assert pts2 is pts and np.array_equal(wq2, wq) and np.array_equal(dens2, dens)


@pytest.mark.parametrize("k", [41, 42, 43])
def test_a_solve_does_not_depend_on_the_structures_cached_before(k):
    # 2^-40 .. 2^-43 lie between the grid floor (1e-13) and the 1e-12 below
    # which a window edge is no interior break: each truncation edge is a
    # grid node, so each truncation has a grid of its own
    mu = manufactured_measure(3.0, 0.5).truncate(k)
    solver._PANEL_CACHE.clear()
    fresh = solve_dirichlet(2.0, W1, mu)
    solver._PANEL_CACHE.clear()
    solve_dirichlet(2.0, W1, manufactured_measure(3.0, 0.5).truncate(40))
    after = solve_dirichlet(2.0, W1, mu)
    assert after.flux_constant == fresh.flux_constant
    assert np.array_equal(after.u.x, fresh.u.x)
    assert np.array_equal(after.u.values, fresh.u.values)


def _workspace_cases():
    rng = np.random.default_rng(16)
    cases = [(2.0, W1, lebesgue().add(dirac(0.6, 0.3))),
             (3.0, power_weight(0.4), power_measure(0.5, 0.7).add(dirac(0.6, 0.3))),
             (3.0, W1, manufactured_measure(3.0, 0.5)),
             (2.4, power_weight(0.3), _stress_measure(3)),
             (2.0, W1, power_measure(1.2)),
             (2.4, power_weight(0.3),
              RadonMeasure(density=TabulatedDensity((-1.0, 0.2, 1.0), (0.5, 2.0, 0.1))))]
    for _ in range(6):
        atoms = tuple((float(x), float(m)) for x, m in
                      zip(rng.uniform(-0.9, 0.9, 2), rng.uniform(0.1, 2.0, 2)))
        mu = RadonMeasure(atoms=atoms).add(
            power_measure(float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.1, 2.0))))
        cases.append((float(rng.uniform(1.6, 3.2)), power_weight(float(rng.uniform(0.0, 0.5))),
                      mu))
    return cases


@pytest.mark.parametrize("case", range(12))
def test_S_does_not_decrease_in_storage_order(case):
    # kink_location looks the flux zero up in S as it is stored, which
    # relies on build_panels' x order; a re-solve's structure too
    p, w, mu = _workspace_cases()[case]
    ws = solver._Workspace(p, w, mu, DEFAULT_OPTIONS)
    c = ws.solve_constant()[0]
    x_star = ws.kink_location(c)
    workspaces = [ws]
    if x_star is not None:
        workspaces.append(solver._Workspace(p, w, mu, DEFAULT_OPTIONS, extra_nodes=(x_star,),
                                            ladder_nodes=(x_star,)))
    for ws in workspaces:
        assert np.all(np.diff(ws.S) >= 0.0)
        assert np.all(np.diff(ws.panels.pts.x) >= 0.0)


def test_what_the_cache_shares_is_read_only():
    res = solve_dirichlet(2.4, power_weight(0.3), lebesgue().add(dirac(0.3, 0.5)))
    for arr in (res.u.grid.x, res.u.grid.y, res.quad.pts.x, res.quad.w_quad, res.quad.w_vals):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    _, wq, dens = solver.measure_quadrature(power_measure(0.6, 0.8))
    for arr in (wq, dens):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # a writable user point set is looked up afresh on every query
    pts = points_from_x(np.linspace(-0.9, 0.9, 7))
    first = res.u.values_at(pts)
    moved = np.linspace(-0.5, 0.5, 7)
    pts.x[:], pts.side[:], pts.y[:] = moved, np.where(moved >= 0.0, 1.0, -1.0), 1.0 - np.abs(moved)
    assert np.array_equal(res.u.values_at(pts), res.u(moved))
    assert not np.array_equal(res.u.values_at(pts), first)


# -- homogeneity ------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_homogeneity(p):
    mu = dirac(0.3, 0.7).add(lebesgue(0.4))
    r1 = solve_dirichlet(p, W1, mu)
    r2 = solve_dirichlet(p, W1, mu.scale(5.0))
    scale = np.max(r2.u.values)
    rel = np.max(np.abs(r2.u.values - 5.0 ** (1.0 / (p - 1.0)) * r1.u.values)) / scale
    assert rel < 1e-9


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_scaled_density_solves_are_homogeneous(p):
    # the manufactured density has no scaled() of its own, so a * mu carries
    # the generic scaled density: W(a mu) = a^(1/(p-1)) W mu
    mu = manufactured_measure(3.0, 0.5)
    base = solve_dirichlet(p, W1, mu)
    for a in (0.25, 3.0):
        scaled = mu.scale(a)
        assert type(scaled.density).__name__ == "_ScaledDensity"
        assert scaled.density.side_mass(1) == a * mu.density.side_mass(1)
        assert scaled.density.kinks() == mu.density.kinks()
        res = solve_dirichlet(p, W1, scaled)
        ref = a ** (1.0 / (p - 1.0)) * base.u.values
        assert np.max(np.abs(res.u.values - ref)) <= 1e-14 * np.max(ref)
    # scaling twice multiplies the factors
    assert mu.scale(2.0).scale(1.5).density == mu.scale(3.0).density


# -- comparison principle -----------------------------------------------------------

def test_comparison_scaling_ratio_exact():
    # potential(2 delta) / potential(delta) = 2^(1/(p-1)) pointwise
    for p in (1.5, 2.0, 3.0):
        r1 = solve_dirichlet(p, W1, dirac(0.0))
        r2 = solve_dirichlet(p, W1, dirac(0.0, 2.0))
        # nodal ratios are meaningful where u is resolved above round-off
        mask = r1.u.values > 1e-3 * np.max(r1.u.values)
        ratio = r2.u.values[mask] / r1.u.values[mask]
        assert np.max(np.abs(ratio - 2.0 ** (1.0 / (p - 1.0)))) < 1e-9
        rep = check_comparison(p, W1, dirac(0.0), dirac(0.0, 2.0))
        assert rep["pass"]


def test_comparison_truncation_minorant():
    nu = power_measure(0.8, 0.7).add(dirac(-0.2, 0.3))
    for k in (1, 3, 6):
        rep = check_comparison(2.0, W1, nu.truncate(k), nu)
        assert rep["pass"] and rep["cdf_ordered"]


def test_comparison_restricted_lebesgue():
    rep = check_comparison(2.0, W1, lebesgue().truncate(1), lebesgue())
    assert rep["pass"]


# -- weighted solves ---------------------------------------------------------------

def test_weighted_dirac_solve_against_quadrature():
    # w = (1-|x|)^beta, mu = delta_0: by symmetry c = 1/2 and
    # u(0) = int_0^1 (1/2)^(1/(p-1)) t^(-beta/(p-1)) dt (hand integral)
    p, beta = 2.5, 0.6
    res = solve_dirichlet(p, power_weight(beta), dirac(0.0))
    e = 1.0 / (p - 1.0)
    exact_u0 = 0.5 ** e / (1.0 - beta * e)
    u0 = res.u(np.asarray([0.0]))[0]
    assert u0 == pytest.approx(exact_u0, rel=1e-10)
    assert res.flux_constant == pytest.approx(0.5, abs=1e-12)


def test_custom_weight_matches_power_twin():
    beta = 0.4
    custom = Weight(family="custom",
                    func=lambda x: (1.0 - np.abs(x)) ** beta,
                    edge_exponent_left=beta, edge_exponent_right=beta)
    mu = dirac(0.15, 0.9)
    a = solve_dirichlet(2.0, power_weight(beta), mu)
    b = solve_dirichlet(2.0, custom, mu)
    assert np.max(np.abs(a.u.values - b.u.values)) < 1e-9


def test_kink_location_matches_the_closed_cumulative():
    # the flux zero from the Hermite cubic of S and the density at the ends
    # of the gap, against the zero of c - S(x) from the closed cumulative
    mu = power_measure(0.5, 0.7).add(dirac(0.6, 0.3))
    ws = solver._Workspace(3.0, power_weight(0.4), mu, DEFAULT_OPTIONS)
    c = ws.solve_constant()[0]
    x_star = ws.kink_location(c)
    assert x_star is not None

    def excess(x):
        return float(mu.density.cum0_many(points_from_x(np.asarray([x])))[0]) \
            + float(mu.atom_cum_center(np.asarray([x]))[0]) - c

    exact = _bisection_root(excess, x_star - 1e-3, x_star + 1e-3, xtol=1e-15)
    assert abs(x_star - exact) <= 1e-9


def test_a_flux_zero_next_to_a_plain_node_is_refined():
    # the flux zero lies in the gap between two cells' Gauss points, on one
    # side of the plain node between them: the cusp of |flux|^(1/(p-1)) is
    # refined there, not left in the neighbouring panel (2.2e-7 unrefined)
    mu = lebesgue().add(dirac(0.5, 0.201629))
    res = solve_dirichlet(3.0, W1, mu)
    ref = solve_dirichlet(3.0, W1, mu, SolverOptions(n_nodes=8192))
    assert res.resolved
    err = np.max(np.abs(ref.u.values_at(res.u.grid) - res.u.values)) / res.u.sup()
    assert err <= 3e-8


def test_solve_rejects_non_invertible_weight():
    # declared endpoint exponent p - 1 makes w^(-1/(p-1)) non-integrable
    bad = Weight(family="custom", func=lambda x: (1.0 - np.abs(x)),
                 edge_exponent_left=1.0, edge_exponent_right=1.0)
    with pytest.raises(ValidationError):
        solve_dirichlet(2.0, bad, dirac(0.0))
    with pytest.raises(ValidationError):
        solve_dirichlet(2.0, W1, power_measure(1.5))  # infinite mass needs potential()


def test_zero_measure_shortcut():
    res = solve_dirichlet(2.0, W1, RadonMeasure())
    assert np.all(res.u.values == 0.0)
    assert res.flux_constant == 0.0


def test_grid_contract():
    res = solve_dirichlet(2.0, W1, dirac(0.123))
    x = res.u.x
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0.0)
    assert 0.123 in x  # atoms become mandatory nodes


def test_gridfunction_interpolation_between_nodes():
    res = solve_dirichlet(2.0, W1, lebesgue())
    xq = np.asarray([-0.777, -0.123, 0.001, 0.456, 0.987])
    exact = (1.0 - xq ** 2) / 2.0
    # a solve's u reads itself by the solve's own rule, between nodes too
    assert np.max(np.abs(res.u(xq) - exact)) < 1e-13


def test_custom_grid_options():
    opts = SolverOptions(n_nodes=128, grading_ratio=0.8)
    res = solve_dirichlet(2.0, W1, dirac(0.0), opts)
    exact = (1.0 - np.abs(res.u.x)) / 2.0
    assert np.max(np.abs(res.u.values - exact)) < 1e-12


# -- PCHIP: sublap's own, bit-identical to scipy's ----------------------------------

def _pchip_case(seed: int):
    rng = np.random.default_rng(seed)
    grid = graded_grid(int(rng.integers(8, 160)), float(rng.uniform(0.5, 0.95)),
                       float(10.0 ** -rng.uniform(3.0, 13.0)),
                       tuple(rng.uniform(-1.0, 1.0, int(rng.integers(0, 4)))))
    x = grid.x
    profile = seed % 4
    if profile == 0:    # random values
        values = rng.normal(size=x.size)
    elif profile == 1:  # flat runs
        values = np.round(rng.normal(size=x.size))
        values[rng.random(x.size) < 0.5] = 0.0
    elif profile == 2:  # sign changes
        values = np.sin(rng.uniform(1.0, 30.0) * x + rng.uniform(0.0, 3.0))
    else:               # power profile
        values = (1.0 - np.abs(x)) ** rng.uniform(0.1, 3.0)
    ulp = [np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0),
           np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0)]
    query = np.concatenate([x, [-1.0, 1.0], ulp, np.linspace(-1.0, 1.0, 2001),
                            rng.uniform(-1.0, 1.0, 500)])
    return grid, values, query


@pytest.mark.parametrize("seed", range(40))
def test_pchip_values_and_derivative_match_scipy_bit_for_bit(seed):
    grid, values, query = _pchip_case(seed)
    u = solver.GridFunction(grid=grid, values=values)
    ref = PchipInterpolator(grid.x, values, extrapolate=False)
    # y = 1 routes every query to the PCHIP branch of values_at (points
    # below the innermost node otherwise follow the boundary power profile)
    pts = Points(x=query, side=np.where(query >= 0.0, 1.0, -1.0), y=np.ones(query.size))
    assert np.array_equal(u.values_at(pts), np.nan_to_num(ref(query), nan=0.0))
    assert np.array_equal(u.derivative(query), ref.derivative()(query), equal_nan=True)
    assert u.derivative(query[-1]) == ref.derivative()(query[-1])
    # the same values on the natural path, for points above the innermost nodes
    natural = points_from_x(query[1.0 - np.abs(query) >= max(grid.y[1], grid.y[-2])])
    assert len(natural) > 2000
    assert np.array_equal(u.values_at(natural), ref(natural.x))


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_values_outside_the_interval_read_zero(p):
    # kappa = 1 for the Lebesgue solution at p = 2, 0.8 for w = (1-|x|)^0.3
    # at p = 2.5
    w = W1 if p == 2.0 else power_weight(0.3)
    u = solve_dirichlet(p, w, lebesgue()).u
    assert u.right_exponent == pytest.approx(1.0 if p == 2.0 else 0.8)
    outside = [1.5, -1.2, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)]
    assert np.array_equal(u(outside), np.zeros(4))
    assert np.array_equal(u([-1.0, 1.0]), np.zeros(2))
    assert np.all(u([np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)]) > 0.0)


# -- SolutionQuad.u is filled on first read ------------------------------------------

def _count_hermite(monkeypatch) -> list:
    calls = []
    hermite = solver._hermite_at_points

    def counted(*args):
        calls.append(1)
        return hermite(*args)

    monkeypatch.setattr(solver, "_hermite_at_points", counted)
    return calls


@pytest.mark.parametrize("p, w, mu", [
    (2.4, power_weight(0.3), RadonMeasure(density=TabulatedDensity((-1.0, 0.2, 1.0),
                                                                   (0.5, 2.0, 0.1)))),
    (2.0, W1, power_measure(1.2)),
], ids=["finite-resolved", "power1.2"])
def test_quad_u_filled_on_first_read_equals_the_eager_fill(monkeypatch, p, w, mu):
    structures = []
    panel_structure = solver._panel_structure

    def recorded(*args, **kwargs):
        structures.append(panel_structure(*args, **kwargs))
        return structures[-1]

    monkeypatch.setattr(solver, "_panel_structure", recorded)
    res = potential(p, w, mu)
    calls = _count_hermite(monkeypatch)
    # the eager fill on the panels of the last workspace, its run built anew
    grid, panels = structures[-1]
    n_left = int(np.searchsorted(panels.panel_cell, np.searchsorted(grid.x, 0.0)))
    eager = solver._hermite_at_points(panels, res.quad.uprime, DEFAULT_OPTIONS.n_gauss,
                                      n_left, None)
    assert np.array_equal(res.quad.u, eager)
    assert res.quad.u is res.quad.u
    assert len(calls) == 2  # the eager fill and the first read only


def test_quad_u_matches_the_closed_form_at_every_panel_point():
    # -u'' = 1 on (-1, 1): u = y - y^2/2 in the distance y to the nearer
    # endpoint, at the interior points and the tail pseudo-points alike
    res = potential(2.0, W1, lebesgue())
    pts, grid = res.quad.pts, res.u.grid
    exact = pts.y - 0.5 * pts.y ** 2
    err = np.abs(res.quad.u - exact)
    # the endpoint ladders lie below the innermost node of their side
    ladder = pts.y < np.where(pts.side < 0.0, grid.y[1], grid.y[-2])
    assert ladder[[0, -1]].all() and 0 < ladder.sum() < ladder.size
    assert np.all(err[ladder] <= 1e-14 * exact[ladder])
    # interior points near +-1 carry the rounding of x in y
    assert np.max(err[~ladder]) <= 1e-15


def test_solves_and_iterations_skip_the_hermite_fill(monkeypatch):
    calls = _count_hermite(monkeypatch)
    solve_dirichlet(2.4, power_weight(0.3), lebesgue().add(dirac(0.3, 0.5)))
    iterate(2.0, W1, dirac(0.0), 0.5, max_steps=60)
    assert calls == []


# -- reading a solve from the solve itself --------------------------------------------

def test_the_solve_reader_returns_quad_u_at_the_solve_points():
    res = solve_dirichlet(2.4, power_weight(0.3), lebesgue().add(dirac(0.3, 0.5)))
    assert res.u.values_at(res.quad.pts) is res.quad.u
    assert not res.quad.u.flags.writeable  # no caller can write into the solve


def test_the_solve_reader_follows_the_panel_rule_off_the_solve_points():
    # with the first and last point moved nothing is shared, and every
    # interior point is read by the panel rule
    res = solve_dirichlet(2.4, power_weight(0.3), lebesgue().add(dirac(0.3, 0.5)))
    pts = res.quad.pts
    y = pts.y.copy()
    y[[0, -1]] *= 0.5
    x = pts.x.copy()
    x[[0, -1]] = pts.side[[0, -1]] * (1.0 - y[[0, -1]])
    vals = res.u.values_at(Points(x=x, side=pts.side.copy(), y=y))
    err = np.abs(vals - res.quad.u)[1:-1]
    assert np.max(err) <= 1e-13 * res.u.sup()


@pytest.mark.parametrize("mu", [lebesgue().add(dirac(0.3, 0.5)),
                                RadonMeasure(atoms=((-0.6, 1.25), (0.4, 0.5)))],
                         ids=["density", "atoms"])
def test_the_solve_reader_reads_the_atoms_from_the_nodal_u(mu):
    res = solve_dirichlet(2.4, power_weight(0.3), mu)
    locs = mu.atom_locations
    nodal = res.u.values[np.searchsorted(res.u.x, locs)]
    assert np.array_equal(res.u.values_at(points_from_x(locs)), nodal)


# -- the lazily filled caches under concurrent first reads -----------------------------

def test_concurrent_first_reads_of_the_lazy_caches_agree():
    res = solve_dirichlet(2.4, power_weight(0.3), lebesgue().add(dirac(0.3, 0.5)))
    pts = res.quad.pts
    ref_vals = solver.GridFunction(grid=res.u.grid, values=res.u.values).values_at(pts)
    ref_u = res.quad.u.copy()
    n_threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            # fresh shared objects: neither cache is filled yet
            shared_u = solver.GridFunction(grid=res.u.grid, values=res.u.values)
            shared_quad = replace(res.quad, _u=None)
            start = threading.Barrier(n_threads, timeout=60.0)
            reads = [None] * n_threads

            def read(k):
                start.wait()
                reads[k] = (shared_u.values_at(pts), shared_quad.u)

            threads = [threading.Thread(target=read, args=(k,)) for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            for vals, u in reads:
                assert np.array_equal(vals, ref_vals)
                assert np.array_equal(u, ref_u)
    finally:
        sys.setswitchinterval(interval)


SIGMA = dirac(0.2).add(power_measure(0.6, 0.8))
READ_X = np.linspace(-0.99, 0.99, 41)
READER_CALLS = {
    "energy": lambda w, s: energy(2.4, w, s, 1.0),
    "triple_norm": lambda w, s: triple_norm(2.4, w, s, 1.0),
    "sup_norm_energy": lambda w, s: sup_norm_energy(2.4, w, s),
    "mee_bound": lambda w, s: mee_bound(2.4, w, s, SIGMA, 1.0, 0.5),
    "quasi_additivity_check": lambda w, s: quasi_additivity_check(2.4, w, s, SIGMA, 1.0),
    "lower_envelope": lambda w, s: lower_envelope(2.4, w, s, 0.5),
    "iterate": lambda w, s: iterate(2.4, w, s, 0.5),
    "iterated_inequality_check": lambda w, s: iterated_inequality_check(2.4, w, s, 1.5),
    "verify_equivalence": lambda w, s: verify_equivalence(2.4, w, s, 0.5),
    "finite_energy_check": lambda w, s: finite_energy_check(2.4, w, s, 0.5),
    "bounded_solution_check": lambda w, s: bounded_solution_check(2.4, w, s, 0.5),
    "hardy_sweep": lambda w, s: hardy_sweep(2.4, 0.3, 0.5, (0.6,)),
    "trace_bracket": lambda w, s: trace_bracket(2.4, w, s, 0.5),
    "rayleigh_lower": lambda w, s: rayleigh_lower(2.4, w, s, 0.5),
    "ratio_report": lambda w, s: ratio_report(2.4, w, s),
    "check_comparison": lambda w, s: check_comparison(2.4, w, s, SIGMA),
    "res.u(x)": lambda w, s: solve_dirichlet(2.4, w, s).u(READ_X),
    "Envelope.u(x)": lambda w, s: lower_envelope(2.4, w, s, 0.5).u(READ_X),
    "iterates(x)": lambda w, s: [u(READ_X) for u in iterate(2.4, w, s, 0.5).iterates],
}


@pytest.mark.parametrize("sigma", [SIGMA, RadonMeasure()], ids=["sigma", "zero"])
@pytest.mark.parametrize("name", sorted(READER_CALLS))
def test_no_reader_of_a_solve_builds_a_pchip(monkeypatch, name, sigma):
    # every finite solve has a quadrature view and is read by its own rule;
    # the zero measure may only be refused as an input
    def pchip(*args):
        raise AssertionError("PCHIP coefficients computed")

    monkeypatch.setattr(solver, "_pchip_coefficients", pchip)
    try:
        READER_CALLS[name](power_weight(0.3), sigma)
    except ValidationError:
        assert sigma.is_zero
