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
from sublap.errors import ValidationError
from sublap.measures import RadonMeasure, TabulatedDensity, dirac, lebesgue, power_measure
from sublap.solver import potential, solve_dirichlet
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
        lhs_p, _, _ = measure_integral(
            lambda pts: u.values_at(pts) ** (gamma + q), sigma)
        lhs = lhs_p ** (1.0 / (gamma + q))
        fnorm_p, _, _ = measure_integral(
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
    assert not lim.diverged and lim.converged and lim.levels == 0
    assert lim.value == pytest.approx(25.0 / 3.0, rel=1e-6)
    levels = [_level_energy(solve_dirichlet(2.0, W1, mu.truncate(k)), mu.truncate(k), 1.0)
              for k in (2, 4, 8, 16, 32)]
    assert all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))
    assert levels[-1] <= lim.value and levels[-1] == pytest.approx(lim.value, rel=1e-5)


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
    lim = energy_ladder(2.0, W1, mu, 1.0)
    assert lim.levels == 0 and lim.converged and not lim.diverged
    assert lim.value == _level_energy(solve_dirichlet(2.0, W1, mu), mu, 1.0)


def test_measure_integral_of_finite_measure_is_one_exact_sum():
    # the mass of (1 - |x|)^(-1/2) dx is 4
    val, conv, div = measure_integral(lambda pts: np.ones(len(pts)), power_measure(0.5))
    assert val == pytest.approx(4.0, rel=1e-12)
    assert conv and not div


def test_finite_mass_limits_keep_the_cap():
    assert potential(2.0, W1, D0, cap=0.4).diverged
    lim = energy_ladder(2.0, W1, D0, 1.0, cap=0.4)
    assert lim.diverged and lim.value == math.inf
    assert measure_integral(lambda pts: np.full(len(pts), 2.0), D0, cap=1.0) \
        == (math.inf, False, True)
