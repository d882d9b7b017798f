import math

import numpy as np
import pytest

from sublap.errors import ValidationError
from sublap.measures import RadonMeasure, dirac, lebesgue, manufactured_measure, power_measure
from sublap.params import envelope_constant, hardy_threshold
from sublap.solver import GridFunction
from sublap.sublinear import (
    bounded_solution_check,
    finite_energy_check,
    hardy_sweep,
    iterate,
    iterated_inequality_check,
    lower_envelope,
    verify_equivalence,
)
from sublap.weights import constant_weight

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


def test_iterate_rejects_zero_measure_and_bad_q():
    with pytest.raises(ValidationError):
        iterate(2.0, W1, RadonMeasure(), 0.5)
    with pytest.raises(ValidationError):
        iterate(2.0, W1, D0, 0.0)
    with pytest.raises(ValidationError):
        iterate(2.0, W1, D0, 1.0)


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
