import importlib
import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from sublap.errors import ValidationError
from sublap.measures import RadonMeasure, dirac, lebesgue, power_measure
from sublap.energy import _gradient_energy, measure_integral
from sublap.params import envelope_constant
from sublap.quadrature import gauss_rule, points_from_edge, points_from_x
from sublap.solver import SolverOptions, measure_quadrature, solve_dirichlet
from sublap.trace import HatFunction, rayleigh_lower, trace_bracket
from sublap.weights import constant_weight, power_weight

W1 = constant_weight()
D0 = dirac(0.0)


def test_bracket_collapses_at_q_zero_dirac():
    # both display constants equal 1 at q = 0, so lower = upper = E^(1/2)
    # with E = u(0) = 1/2; the true constant (Green extremal) is sqrt(1/2)
    tb = trace_bracket(2.0, W1, D0, 0.0)
    exact = math.sqrt(0.5)
    assert tb.lower == pytest.approx(exact, abs=1e-9)
    assert tb.upper == pytest.approx(exact, abs=1e-9)
    assert tb.energy_value == pytest.approx(0.5, rel=1e-12)


def test_bracket_zero_measure():
    tb = trace_bracket(2.0, W1, RadonMeasure(), 0.5)
    assert tb.lower == tb.upper == 0.0


def test_bracket_ratio_closed_form():
    # upper/lower = [(1+q)^((1+q)/(p-1-q)) c_V^(1+q)]^(-(p-1-q)/((1+q)p))
    p, q = 2.0, 0.5
    tb = trace_bracket(p, W1, lebesgue(), q)
    c_v = envelope_constant(p, q)
    theta = (1 + q) * p / (p - 1 - q)
    expected = ((1 + q) ** ((1 + q) / (p - 1 - q)) * c_v ** (1 + q)) ** (-1.0 / theta)
    assert tb.upper / tb.lower == pytest.approx(expected, rel=1e-12)
    assert tb.lower <= tb.upper


def test_bracket_rejects_divergent_energy():
    with pytest.raises(ValidationError):
        trace_bracket(2.0, W1, power_measure(1.9), 0.5)


def test_bracket_scaling_exponent():
    # C_T(a sigma) = a^(1/(1+q)) C_T(sigma): both bracket ends carry it
    p, q, a = 2.0, 0.5, 3.0
    t1 = trace_bracket(p, W1, lebesgue(0.4), q)
    t2 = trace_bracket(p, W1, lebesgue(0.4).scale(a), q)
    assert t2.upper / t1.upper == pytest.approx(a ** (1.0 / (1.0 + q)), rel=1e-9)
    assert t2.lower / t1.lower == pytest.approx(a ** (1.0 / (1.0 + q)), rel=1e-9)


def test_rayleigh_hat_achieves_dirac_constant():
    # the optimally scaled hat at the atom attains C_T = sqrt(1/2) for q = 0
    rep = rayleigh_lower(2.0, W1, D0, 0.0)
    assert rep["value"] == pytest.approx(math.sqrt(0.5), rel=1e-6)


def test_rayleigh_inside_bracket_q_half():
    tb = trace_bracket(2.0, W1, D0, 0.5)
    rep = rayleigh_lower(2.0, W1, D0, 0.5)
    assert rep["value"] <= tb.upper * (1.0 + 1e-6)
    assert tb.lower <= tb.upper * (1.0 + 1e-9)


def test_rayleigh_potential_power_member_for_density():
    tb = trace_bracket(2.0, W1, lebesgue(), 0.5)
    rep = rayleigh_lower(2.0, W1, lebesgue(), 0.5)
    assert 0.0 < rep["value"] <= tb.upper * (1.0 + 1e-6)


def test_rayleigh_rejects_all_zero_family():
    zero = (lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValidationError):
        rayleigh_lower(2.0, W1, lebesgue(), 0.5, family=(zero,), levels=())


def test_rayleigh_user_member():
    # f = 1 - x^2 with f' = -2x: the quotient is computable and valid
    member = (lambda x: 1.0 - np.asarray(x) ** 2, lambda x: -2.0 * np.asarray(x))
    tb = trace_bracket(2.0, W1, lebesgue(), 0.0)
    rep = rayleigh_lower(2.0, W1, lebesgue(), 0.0, family=(member,))
    assert rep["value"] <= tb.upper * (1.0 + 1e-6)


@pytest.mark.parametrize("p, w, rel", [(2.0, W1, 1e-12), (2.4, power_weight(0.3), 1e-10)],
                         ids=["p2-constant", "p2.4-beta0.3"])
def test_rayleigh_grid_function_member_matches_a_node_split_reference(p, w, rel):
    # the PCHIP derivative of a grid function has kinks at every node, the
    # atom included: |u'|^p w integrated with 40 Gauss points between nodes,
    # in y past |x| = 1/2.  For w = (1-|x|)^0.3 at p = 2.4, u ~ dist^kappa
    # with kappa = 1 - 0.3/1.4, so |u'|^p w grows like dist^(-0.3/1.4)
    # toward the endpoints, and the tail below the quadrature's ladder must
    # follow that power
    mu = lebesgue().add(dirac(0.3, 0.5))
    u = solve_dirichlet(p, w, mu).u
    rep = rayleigh_lower(p, w, mu, 0.5, family=(u,), levels=())
    d = PchipInterpolator(u.x, u.values, extrapolate=False).derivative()
    t, tw = gauss_rule(40)
    den = 0.0
    for a, b in zip(u.x[:-1], u.x[1:]):
        if a >= 0.5 or b <= -0.5:
            side, (ya, yb) = np.sign(a), sorted((1.0 - abs(a), 1.0 - abs(b)))
            pts = points_from_edge(side, ya + t * (yb - ya))
            h = yb - ya
        else:
            pts, h = points_from_x(a + t * (b - a)), b - a
        den += h * float(tw @ (np.abs(d(pts.x)) ** p * w.values(pts)))
    num = measure_integral(lambda pts: u(pts.x) ** 1.5, mu)[0]
    assert dict(rep["candidates"])["user_0"] == pytest.approx(num ** (1 / 1.5) / den ** (1 / p),
                                                               rel=rel)


SIGMA = dirac(0.2).add(power_measure(0.6, 0.8))


@pytest.mark.parametrize("level", [4, 24])
def test_potential_power_quotient_reads_its_solve(level):
    # the numerator used to read W sigma_k by its PCHIP, which misses next to
    # the atom: the "certified" lower bound came out 7.3e-6 relative too high.
    # Reference: the same quotient on an 8192-node solve
    p, w, q = 2.4, power_weight(0.3), 0.5
    rho = (p - 1.0) / (p - 1.0 - q)
    ref = solve_dirichlet(p, w, SIGMA.truncate(level), SolverOptions(n_nodes=8192))
    f = ref.u.power_factor(rho * (1.0 + q))
    num = measure_integral(f.values, SIGMA, exponents=(f.edge_exponent(-1), f.edge_exponent(1)))
    den_p = rho ** p * _gradient_energy(ref, (rho - 1.0) * p + 1.0)
    rep = rayleigh_lower(p, w, SIGMA, q, levels=(level,))
    assert dict(rep["candidates"])[f"potential_power_k{level}"] \
        == pytest.approx(num[0] ** (1.0 / (1.0 + q)) / den_p ** (1.0 / p), rel=0.0, abs=1e-11)


def test_deep_potential_power_quotient_meets_the_bracket_lower_end():
    # (W sigma_k)^rho tends to the bracket's lower end as k grows: its numerator
    # tends to the energy and its gradient norm to the energy identity's other
    # side.  At k = 24 lebesgue's truncation is below rounding; the PCHIP read
    # of W sigma_k put the quotient 8.4e-7 relative below that end
    tb = trace_bracket(2.0, W1, lebesgue(), 0.5)
    rep = rayleigh_lower(2.0, W1, lebesgue(), 0.5, levels=(24,))
    assert dict(rep["candidates"])["potential_power_k24"] \
        == pytest.approx(tb.lower, rel=1e-12, abs=0.0)


def test_rayleigh_lower_builds_one_quadrature_of_sigma_for_all_hats(monkeypatch):
    module = importlib.import_module("sublap.energy")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return measure_quadrature(*args, **kwargs)

    monkeypatch.setattr(module, "measure_quadrature", counting)
    sigma = SIGMA.add(dirac(-0.5, 0.3))
    rep = rayleigh_lower(2.4, power_weight(0.3), sigma, 0.5)
    # one per potential-power level and one for the 2 x 45 hats
    assert len(calls) == 1 + 4
    # the values of a fresh quadrature per hat, to the bit
    cands = dict(rep["candidates"])
    assert cands["hat_at_-0.5"] == 0.4926638066024854
    assert cands["hat_at_0.2"] == 1.0121292930115968


def test_hat_function_norms():
    hat = HatFunction(0.0, 1.0)
    assert hat(np.asarray([0.0]))[0] == 1.0
    assert hat(np.asarray([1.0]))[0] == 0.0
    # |hat'|_2 = sqrt(2) on the unit-halfwidth hat with w = 1
    assert hat.grad_norm_p(2.0, W1) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_trace_bracket_rejects_bad_q():
    with pytest.raises(ValidationError):
        trace_bracket(2.0, W1, D0, -1.0)
    with pytest.raises(ValidationError):
        trace_bracket(2.0, W1, D0, 1.0)
