import importlib
import math

import numpy as np
import pytest

from sublap.energy import (
    _gradient_energy,
    _level_energy,
    energy,
    energy_ladder,
    measure_integral,
    mee_bound,
    quasi_additivity_check,
    sup_norm_energy,
    triple_norm,
)
from sublap import solver
from sublap.errors import ValidationError
from sublap.measures import (
    PowerDensity,
    RadonMeasure,
    TabulatedDensity,
    dirac,
    lebesgue,
    power_measure,
)
from sublap.solver import SolverOptions, potential, solve_dirichlet
from sublap.sublinear import hardy_sweep, iterate
from sublap.trace import trace_bracket
from sublap.weights import constant_weight, power_weight

W1 = constant_weight()
D0 = dirac(0.0)


def test_dirac_energy_gamma_one():
    # E_1(delta_0) = u(0) = 1/2 and the gradient energy int |u'|^2 = 1/2
    rep = energy(2.0, W1, D0, 1.0)
    assert rep.e_gamma == pytest.approx(0.5, rel=1e-12)
    assert rep.grad_energy == pytest.approx(0.5, rel=1e-12)
    assert rep.identity_gap < 1e-12
    assert rep.sandwich_pass


def test_gradient_energy_of_dirac_green_function_is_exact():
    # u = (1 - |x|)/2: int |u'|^2 dx = 1/2 with no rounding on the pure-atom path
    assert _gradient_energy(solve_dirichlet(2.0, W1, D0), 1.0) == 0.5


def _atom_gradient_energy(res, gamma):
    """integral |u'|^p u^(gamma-1) w dx of a pure-atom solve under a constant
    weight in closed form: on each run of cells with one slope c, u is
    linear and the integral is w |c|^(p-1) |u_end^gamma - u_start^gamma| / gamma."""
    slope = res.u_prime[1:]  # cell i carries the flux just left of node i + 1
    u = res.u.values
    starts = np.flatnonzero(np.concatenate([[True], slope[1:] != slope[:-1]]))
    ends = np.append(starts[1:], slope.size)
    runs = np.abs(slope[starts]) ** (res.p - 1.0) * np.abs(u[ends] ** gamma - u[starts] ** gamma)
    return float(res.weight.value * np.sum(runs) / gamma)


@pytest.mark.parametrize("mu", [D0, RadonMeasure(atoms=((-0.6, 1.25), (0.4, 0.5)))],
                         ids=["dirac", "two_atoms"])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_energy_of_atoms_matches_the_closed_form(p, gamma, mu):
    # the solve's quadrature, read where u is piecewise linear
    res = solve_dirichlet(p, W1, mu)
    assert _gradient_energy(res, gamma) == pytest.approx(_atom_gradient_energy(res, gamma),
                                                         rel=1e-15, abs=0.0)


def test_dirac_energy_gamma_two():
    rep = energy(2.0, W1, D0, 2.0)
    assert rep.e_gamma == pytest.approx(0.25, rel=1e-12)


def test_lebesgue_energy_equals_gradient_integral():
    # E_1(dx) = int (1-x^2)/2 dx = 2/3 = int x^2 dx (hand integrals)
    rep = energy(2.0, W1, lebesgue(), 1.0)
    assert rep.e_gamma == pytest.approx(2.0 / 3.0, rel=1e-8)
    assert rep.grad_energy == pytest.approx(2.0 / 3.0, rel=1e-8)
    assert rep.identity_gap < 1e-6


def test_energy_identity_weighted_fractional_gamma():
    rep = energy(2.5, power_weight(0.4), lebesgue(0.7).add(dirac(0.2, 0.5)), 0.5)
    assert rep.identity_gap < 1e-5
    assert rep.sandwich_pass


def test_energy_rejects_bad_gamma():
    with pytest.raises(ValidationError):
        energy(2.0, W1, D0, 0.0)
    with pytest.raises(ValidationError):
        energy(2.0, W1, D0, math.inf)


def test_energy_divergence_flag():
    rep = energy(2.0, W1, power_measure(1.9), 1.0)
    assert rep.diverged
    assert rep.e_gamma == math.inf


def test_energy_homogeneity():
    mu = dirac(0.25, 0.7).add(lebesgue(0.4))
    for (p, gamma) in ((2.0, 1.0), (3.0, 0.5), (1.5, 2.0)):
        e1 = energy(p, W1, mu, gamma).e_gamma
        e2 = energy(p, W1, mu.scale(2.5), gamma).e_gamma
        expected = 2.5 ** ((p - 1.0 + gamma) / (p - 1.0)) * e1
        assert e2 == pytest.approx(expected, rel=1e-8)


# -- sup-norm energy ------------------------------------------------------------

def test_sup_norm_dirac():
    rep = sup_norm_energy(2.0, W1, D0)
    assert rep["value"] == pytest.approx(0.5, rel=1e-12)
    assert rep["agree"]


def test_sup_norm_lebesgue():
    rep = sup_norm_energy(2.0, W1, lebesgue())
    assert rep["value"] == pytest.approx(0.5, rel=1e-6)
    assert rep["agree"]


def test_sup_norm_support_restricted_measure():
    # measure supported on [0.5, 0.9]: the solution's peak lies inside the
    # support, so the support sup equals the global sup
    mu = RadonMeasure(density=TabulatedDensity(xs=(0.5, 0.9), vals=(1.0, 1.0)))
    rep = sup_norm_energy(2.0, W1, mu)
    assert rep["agree"]
    assert rep["gap"] < 1e-6


# -- triple norm -------------------------------------------------------------------

def test_triple_norm_dirac():
    # E_1 = 1/2, exponent (p-1)/(p-1+gamma) = 1/2
    assert triple_norm(2.0, W1, D0, 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_triple_norm_zero_measure():
    assert triple_norm(2.0, W1, RadonMeasure(), 1.0) == 0.0


def test_triple_norm_scaling():
    mu = lebesgue(0.6)
    p, gamma, a = 2.5, 1.5, 3.0
    t1 = triple_norm(p, W1, mu, gamma)
    t2 = triple_norm(p, W1, mu.scale(a), gamma)
    # E scales by a^((p-1+gamma)/(p-1)), the norm by that to the (p-1)/(p-1+gamma)
    assert t2 == pytest.approx(a * t1, rel=1e-8)


# -- cross-energy bound -------------------------------------------------------------

def test_mee_equality_at_dirac_equilibrium():
    rep = mee_bound(2.0, W1, D0, D0, gamma=1.0, q=0.0)
    assert rep["pass"]
    assert rep["lhs"] == pytest.approx(rep["rhs"], rel=1e-12)
    assert rep["lhs"] == pytest.approx(0.5, rel=1e-12)


def test_mee_zero_measure():
    rep = mee_bound(2.0, W1, RadonMeasure(), D0, gamma=1.0, q=0.0)
    assert rep["pass"] and rep["lhs"] == 0.0


def test_mee_lebesgue_vs_dirac_margin():
    rep = mee_bound(2.0, W1, lebesgue(), D0, gamma=1.0, q=0.5)
    assert rep["pass"]
    assert rep["margin"] > 0.0


def test_mee_bound_reuses_the_energy_solve_of_mu(monkeypatch):
    # sublap.energy the package attribute is the function, not the module
    module = importlib.import_module("sublap.energy")
    solved = []

    def counting(p, w, mu, *args, **kwargs):
        solved.append(mu)
        return potential(p, w, mu, *args, **kwargs)

    monkeypatch.setattr(module, "potential", counting)
    mu, nu = lebesgue(0.5).add(dirac(0.3)), power_measure(0.5)
    rep = mee_bound(2.5, W1, mu, nu, gamma=1.0, q=0.5)
    assert solved == [mu, nu]
    # the bound from a separate solve of mu
    res = potential(2.5, W1, mu)
    f = res.u.power_factor(1.5)
    lhs = measure_integral(f.values, nu, exponents=(f.edge_exponent(-1), f.edge_exponent(1)))
    assert rep["lhs"] == lhs[0] and rep["pass"] and not rep["diverged"]
    # sup W mu = 1/4 is past the cap where E_1(mu) = 1/8 and E_1(nu) are not:
    # diverged, as the potential of mu is
    half = dirac(0.0, 0.5)
    opts = SolverOptions(divergence_cap=0.2)
    assert potential(2.0, W1, half, opts).diverged
    assert mee_bound(2.0, W1, half, half, gamma=1.0, q=0.0, options=opts)["diverged"]


# the reference solves: an 8192-node grid, read by the solve's own rule; on these
# cases it agrees with a 16384-node one to 2e-15 (lhs) and 4e-15 of sup u (the reads)
REF = SolverOptions(n_nodes=8192)


@pytest.mark.parametrize("nu", [power_measure(0.5), lebesgue().window(0.0, 0.63)],
                         ids=["power", "jump_at_0.37"])
def test_mee_bound_reads_mu_from_its_solve(nu):
    # the PCHIP read of W mu put lhs 6.1e-6 (power) and 8.9e-6 (jump) high
    mu = lebesgue(0.5).add(dirac(0.3))
    ref = potential(2.5, W1, mu, REF)
    f = ref.u.power_factor(1.5)
    lhs_ref = measure_integral(f.values, nu, exponents=(f.edge_exponent(-1), f.edge_exponent(1)))
    assert mee_bound(2.5, W1, mu, nu, gamma=1.0, q=0.5)["lhs"] \
        == pytest.approx(lhs_ref[0], rel=1e-7, abs=0.0)


def test_mee_bound_reads_mu_next_to_an_atom(monkeypatch):
    # W mu in the cell right of the atom at 0.2, read at nu's quadrature points:
    # the PCHIP missed by 1.34e-3 of sup u at x = 0.2048
    module = importlib.import_module("sublap.energy")
    integrands = []

    def recording(fn, *args, **kwargs):
        integrands.append(fn)
        return measure_integral(fn, *args, **kwargs)

    monkeypatch.setattr(module, "measure_integral", recording)
    p, w, mu, nu = 2.4, power_weight(0.3), dirac(0.2).add(power_measure(0.6, 0.8)), \
        power_measure(0.3)
    mee_bound(p, w, mu, nu, gamma=1.0, q=0.5)
    pts = solver.measure_quadrature(nu)[0]
    ref = potential(p, w, mu, REF)
    u_ref = ref.u.values_at(pts)
    err = np.abs(integrands[0](pts) ** (1.0 / 1.5) - u_ref)
    assert np.max(err) <= 1e-12 * ref.u.sup()


def test_mee_rejects_bad_q():
    with pytest.raises(ValidationError):
        mee_bound(2.0, W1, D0, D0, gamma=1.0, q=1.5)


# -- quasi-additivity ----------------------------------------------------------------

def test_quasi_additivity_dirac_pair():
    # p=2, gamma=1: c_E = 1 and |||2 delta||| = sqrt(2) |||delta|||: equality
    rep = quasi_additivity_check(2.0, W1, D0, D0, 1.0)
    assert rep["pass"]
    assert rep["lhs"] == pytest.approx(rep["rhs"], rel=1e-10)


def test_quasi_additivity_zero_partner():
    rep = quasi_additivity_check(2.0, W1, D0, RadonMeasure(), 1.0)
    assert rep["pass"]


def test_quasi_additivity_mixed():
    rep = quasi_additivity_check(2.5, W1, lebesgue(0.8), dirac(0.1, 0.6), 1.5)
    assert rep["pass"]
    assert rep["lhs"] <= rep["rhs"]


# -- weighted norm inequality spot checks ---------------------------------------------

def test_weighted_norm_inequality_explicit_test_functions():
    # |W(f sigma)|_{L^(gamma+q)(sigma)} is controlled by
    # (c_E E_ghat(sigma)^((p-1-q)/(gamma+q)))^(1/(p-1)) |f|^(1/(p-1)) with
    # f measured in L^((gamma+q)/q)(sigma); checked on explicit f
    from sublap.measures import CallableFactor
    from sublap.params import energy_constant

    p, q, gamma = 2.0, 0.5, 1.0
    sigma = dirac(0.2, 0.8).add(lebesgue(0.5))
    ghat = (gamma + q) * (p - 1.0) / (p - 1.0 - q)
    lim = energy_ladder(p, W1, sigma, ghat)
    assert not lim.diverged
    e_sig = lim.value
    c_E = energy_constant(p, gamma)
    fs = [lambda x: np.ones_like(np.asarray(x, dtype=float)),
          lambda x: (1.0 + np.asarray(x)) / 2.0,
          lambda x: np.asarray(x) ** 2]
    for f in fs:
        fsig = sigma.pushforward(CallableFactor(f))
        res = potential(p, W1, fsig)
        u = res.u
        lhs_p, _ = measure_integral(
            lambda pts: u.values_at(pts) ** (gamma + q), sigma)
        lhs = lhs_p ** (1.0 / (gamma + q))
        fnorm_p, _ = measure_integral(
            lambda pts: np.asarray(f(pts.x)) ** ((gamma + q) / q), sigma)
        fnorm = fnorm_p ** (q / (gamma + q))
        rhs = (c_E * e_sig ** ((p - 1.0 - q) / (gamma + q))) ** (1.0 / (p - 1.0)) \
            * fnorm ** (1.0 / (p - 1.0))
        assert lhs <= rhs * (1.0 + 1e-6)


# -- ladders ---------------------------------------------------------------------------

def test_energy_ladder_monotone_levels():
    # infinite mass with finite energy: one solve, approached from below by
    # the nondecreasing energies of the truncations; for p = 2 and w = 1,
    # u = (y^0.8/0.8 - y)/0.2 with y = 1 - |x|, so E_1 = 10 (1/0.48 - 1/0.8)
    mu = power_measure(1.2)
    lim = energy_ladder(2.0, W1, mu, 1.0)
    assert not lim.diverged and lim.solution is not None
    assert lim.value == pytest.approx(25.0 / 3.0, rel=1e-6)
    levels = [_level_energy(solve_dirichlet(2.0, W1, mu.truncate(k)), mu.truncate(k), 1.0)
              for k in (2, 4, 8, 16, 32)]
    assert all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))
    assert levels[-1] <= lim.value and levels[-1] == pytest.approx(lim.value, rel=1e-5)


def _deep_cut_cases():
    # power weights with beta in (-1, p - 1), negative ones included, and
    # finite-mass power measures; each tail is closed at its own integrand's
    # power, so a cut at 1e-60 moves nothing but rounding.  The exceptions:
    # at beta <= 0 (u' ~ dist^(-beta/(p-1)) -> const or 0, cut at 1e-16) the
    # gradient integrand ~ dist^(gamma - 1) departs from its power by the mass
    # below, ~ dist^(1 - alpha), and the closure errs by up to
    # ~ 1e-16^(gamma + 1 - alpha): at gamma = 0.3, alpha = 0.6 that is
    # 1.5e-11 relative at beta = 0 and 1.8e-12 at p = 2.766, beta = -0.208
    for p, beta in ((2.0, 0.0), (2.0, 0.5), (3.0, 0.0), (3.0, 0.5), (3.0, 1.2),
                    (2.0, -0.5), (3.0, -0.5), (2.766, -0.208)):
        for alpha in (0.0, 0.6):
            for gamma in (0.3, 0.5, 1.0, 2.0):
                slow = beta in (0.0, -0.208) and alpha == 0.6 and gamma == 0.3
                yield p, beta, alpha, gamma, 1e-10 if slow else 1e-12


@pytest.mark.parametrize("p, beta, alpha, gamma, rel", list(_deep_cut_cases()))
def test_energies_do_not_move_with_a_deeper_tail_cut(monkeypatch, p, beta, alpha, gamma, rel):
    # p = 3, beta = 1.2, alpha = 0.6, gamma = 0.3 is the case where closing
    # the finite-mass tails at the power of u' left grad_energy 6.7e-6 off
    w, mu = power_weight(beta), power_measure(alpha)
    rep = energy(p, w, mu, gamma)
    monkeypatch.setattr(solver, "_TAIL_TARGET", 1e-60)
    deep = energy(p, w, mu, gamma)
    assert rep.e_gamma == pytest.approx(deep.e_gamma, rel=rel, abs=0.0)
    assert rep.grad_energy == pytest.approx(deep.grad_energy, rel=rel, abs=0.0)
    assert rep.identity_gap <= 1e-5


def _exact_family_cases():
    # criterion_2's family: u = (1 - |x|)^A for w = (1 - |x|)^beta and
    # mu = 2 A^(p-1) delta_0 + coef (1 - |x|)^-(1-m), m = (A-1)(p-1) + beta,
    # coef = -A^(p-1) m; the energy is finite where A gamma + m > 0
    for p in (1.5, 2.0, 3.0):
        for beta in (-0.5, 0.0, 0.5):
            if not beta < p - 1.0:
                continue
            for frac in (0.45, 0.65, 0.85):
                A = frac * (1.0 - beta / (p - 1.0))
                for gamma in (0.5, 1.0, 2.0):
                    if A * gamma + (A - 1.0) * (p - 1.0) + beta > 0.0:
                        yield p, beta, frac, gamma


@pytest.mark.parametrize("p, beta, frac, gamma", list(_exact_family_cases()))
def test_exact_family_energies_against_closed_forms(p, beta, frac, gamma):
    # E_gamma = 2 A^(p-1) + 2 coef / (A gamma + m) and gamma int |u'|^p
    # u^(gamma-1) w dx = 2 gamma A^p / ((A-1) p + A (gamma-1) + beta + 1)
    A = frac * (1.0 - beta / (p - 1.0))
    m = (A - 1.0) * (p - 1.0) + beta
    coef = -A ** (p - 1.0) * m
    mu = RadonMeasure(atoms=((0.0, 2.0 * A ** (p - 1.0)),),
                      density=PowerDensity(alpha=1.0 - m, coef=coef))
    rep = energy(p, power_weight(beta) if beta != 0.0 else W1, mu, gamma)
    e_exact = 2.0 * A ** (p - 1.0) + 2.0 * coef / (A * gamma + m)
    grad_exact = 2.0 * gamma * A ** p / ((A - 1.0) * p + A * (gamma - 1.0) + beta + 1.0)
    assert rep.e_gamma == pytest.approx(e_exact, rel=5e-8, abs=0.0)
    assert gamma * rep.grad_energy == pytest.approx(grad_exact, rel=5e-8, abs=0.0)


def test_infinite_mass_energy_against_closed_form():
    # u = (y^0.3/0.3 - y)/0.7 for (1 - |x|)^-1.7 dx: E_3 = 2 int_0^1 u^3 y^-1.7 dy
    # (897.745571065356 by 30-digit quadrature); the 40-level truncation
    # ladder stopped at 879.7 and its deeper levels settle near 895.26
    lim = energy_ladder(2.0, W1, power_measure(1.7), 3.0)
    assert lim.value == pytest.approx(897.745571065356, rel=1e-5)
    # u^3 dmu ~ dist^(3 * 0.3 - 1.7) = dist^-0.8: integrable; at gamma = 2 it
    # is dist^-1.1 and the energy is infinite
    assert energy_ladder(2.0, W1, power_measure(1.7), 2.0).diverged


@pytest.mark.parametrize("p, alpha, beta", [
    (1.6165100604565275, 1.2781029919812883, -0.2684139339666016),
    (1.9716376041262889, 1.013094157639383, -0.37665829891514135),
])
def test_infinite_mass_energy_at_gamma_one_half(p, alpha, beta):
    # the two infinite-mass reproducers of perfbench/defects.py: one missed
    # the identity after 40 unconverged levels, one raised as a level dropped
    gamma = 0.5
    rep = energy(p, power_weight(beta), power_measure(alpha), gamma)
    astar = 1.0 + gamma * (p - 1.0 - beta) / (p - 1.0 + gamma)
    assert alpha < astar - 0.05  # finite energy, outside the dead band
    assert not rep.diverged and math.isfinite(rep.e_gamma) and rep.e_gamma > 0.0
    assert rep.identity_gap <= 1e-5 and rep.sandwich_pass


def test_energy_of_finite_measure_is_one_solve():
    mu = power_measure(0.8)
    value, solution, diverged = energy_ladder(2.0, W1, mu, 1.0)
    direct = solve_dirichlet(2.0, W1, mu)
    assert not diverged and np.array_equal(solution.u.values, direct.u.values)
    assert value == _level_energy(direct, mu, 1.0)


def test_measure_integral_of_finite_measure_is_one_exact_sum():
    # the mass of (1 - |x|)^(-1/2) dx is 4
    val, div = measure_integral(lambda pts: np.ones(len(pts)), power_measure(0.5))
    assert val == pytest.approx(4.0, rel=1e-12)
    assert not div


def test_finite_mass_limits_keep_the_cap():
    assert potential(2.0, W1, D0, cap=0.4).diverged
    lim = energy_ladder(2.0, W1, D0, 1.0, cap=0.4)
    assert lim.diverged and lim.value == math.inf
    assert measure_integral(lambda pts: np.full(len(pts), 2.0), D0, cap=1.0) \
        == (math.inf, True)


@pytest.mark.parametrize("call, keywords, key", [
    (lambda **kw: potential(2.0, W1, power_measure(1.2), **kw),
     {"schedule": tuple(range(1, 41)), "tol": 1e-3, "start_level": 5},
     lambda res: (res.u.values.tobytes(), res.flux_anchor, res.diverged)),
    (lambda **kw: energy(2.0, W1, power_measure(1.2), 1.0, **kw), {"schedule": (1, 2)},
     lambda rep: (rep.e_gamma, rep.grad_energy, rep.identity_gap, rep.sandwich_pass)),
    (lambda **kw: triple_norm(2.0, W1, power_measure(1.2), 1.0, **kw), {"schedule": (1, 2)},
     lambda t: t),
    (lambda **kw: iterate(2.0, W1, D0, 0.5, keep_iterates=False, **kw), {"schedule": (1, 2)},
     lambda tr: (tr.solution.values.tobytes(), tr.norms, tr.steps)),
    (lambda **kw: hardy_sweep(2.0, 0.0, 0.5, [1.3, 1.9], **kw), {"schedule": (1, 2)},
     lambda rows: rows),
    (lambda **kw: trace_bracket(2.0, W1, D0, 0.0, **kw), {"schedule": (1, 2)},
     lambda tb: tb),
], ids=["potential", "energy", "triple_norm", "iterate", "hardy_sweep", "trace_bracket"])
def test_truncation_ladder_keywords_are_ignored(call, keywords, key):
    # they configured the truncation ladder of earlier versions
    assert key(call(**keywords)) == key(call())
