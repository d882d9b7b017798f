import math

import numpy as np
import pytest

from sublap.measures import dirac, lebesgue, power_measure, RadonMeasure
from sublap.solver import SolverOptions, solve_dirichlet
from sublap.weights import constant_weight, power_weight
from sublap.wolff import DEFAULT_RADIUS, ratio_report, wolff_curve, wolff_truncated

W1 = constant_weight()


def test_dirac_closed_form_p2():
    # integrand (r^2 * 1/(2r))^1 / r = 1/2 for r > 0, so the value is R/2
    s = wolff_truncated(2.0, W1, dirac(0.0), 0.0, 0.5)
    assert s.value == pytest.approx(0.25, rel=1e-10)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dirac_closed_form_general_p(p):
    # (r^p/(2r))^(1/(p-1)) / r = 2^(-1/(p-1)): a constant integrand
    R = 0.5
    s = wolff_truncated(p, W1, dirac(0.0), 0.0, R)
    assert s.value == pytest.approx(2.0 ** (-1.0 / (p - 1.0)) * R, rel=1e-10)


def test_lebesgue_hand_integral():
    # mu = dx, x = 0, R = 0.5: mu(B) = 2r and w(B) = 2r, so the paper's
    # integrand is (r^2 * 2r/(2r))^(1/(p-1))/r = r and the hand integral is
    # int_0^R r dr = R^2/2 = 1/8.  (This is the correctly propagated power
    # of r; see the decisions ledger for the discrepancy with a stated value.)
    s = wolff_truncated(2.0, W1, lebesgue(), 0.0, 0.5)
    assert s.value == pytest.approx(0.125, rel=1e-9)


def test_monotone_in_radius_and_measure():
    rng = np.random.default_rng(5)
    mu = power_measure(0.5, 0.8).add(dirac(0.3, 0.4))
    nu = mu.add(lebesgue(0.2))
    for _ in range(6):
        x = float(rng.uniform(-0.7, 0.7))
        rs = np.sort(rng.uniform(0.05, 3.5, size=4))
        vals = [wolff_truncated(2.3, W1, mu, x, float(r)).value for r in rs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        v_mu = wolff_truncated(2.3, W1, mu, x, 2.0).value
        v_nu = wolff_truncated(2.3, W1, nu, x, 2.0).value
        assert v_nu >= v_mu - 1e-12


def test_homogeneity():
    mu = dirac(0.2, 1.0).add(lebesgue(0.5))
    for p in (1.5, 2.0, 3.0):
        v1 = wolff_truncated(p, W1, mu, 0.1, 2.0).value
        v2 = wolff_truncated(p, W1, mu.scale(3.0), 0.1, 2.0).value
        assert abs(v2 - 3.0 ** (1.0 / (p - 1.0)) * v1) / v2 < 1e-10


def test_sample_next_to_an_atom_is_finite():
    # x within 2.4e-6 of an atom: the innermost kink radius is so small that
    # the graded panels reach radii below the float spacing at x, where the
    # ball is empty and the integrand was 0/0 = nan
    p, x, a = 2.316315187136168, -0.2301246200270064, 3.252514059696759
    w = power_weight(-0.06359048409051127)
    mu = RadonMeasure(atoms=((0.3702158425127331, 1.6326008463812662),
                             (-0.23012238258379492, 1.3959036890658385))) \
        .add(power_measure(0.28296805038187894, 1.3128108152277251))
    v1 = wolff_truncated(p, w, mu, x, 2.0).value
    v2 = wolff_truncated(p, w, mu.scale(a), x, 2.0).value
    assert math.isfinite(v1) and v1 > 0.0
    assert abs(v2 - a ** (1.0 / (p - 1.0)) * v1) / v2 < 1e-10


def test_infinite_flag_when_ball_swallows_singular_edge():
    # (1-|x|)^(-1.5) has infinite mass near the endpoints; once the ball
    # reaches them the integrand is infinite on a range of radii
    s = wolff_truncated(2.0, W1, power_measure(1.5), 0.0, DEFAULT_RADIUS)
    assert math.isinf(s.value)
    # truncated to a compact window the same measure gives a finite sample
    s = wolff_truncated(2.0, W1, power_measure(1.5).truncate(3), 0.0, DEFAULT_RADIUS)
    assert math.isfinite(s.value)


def test_weighted_ball_quotient():
    # sanity under a power weight: finite positive value
    s = wolff_truncated(2.0, power_weight(0.5), dirac(0.0), 0.2, 1.0)
    assert 0.0 < s.value < math.inf


def test_ratio_report_dirac_band_from_closed_forms():
    # u(x) = (1-|x|)/2 and, for 0 <= x <= 1/2 and R = 4,
    # W(x) = (1-2x)/2 + 2x + (1-x) log(1-x) + (16 - (1+x)^2)/4
    # (piecewise hand integration of r * mu(B)/w(B); symmetric in x)
    rep = ratio_report(2.0, W1, dirac(0.0), interior_margin=0.5, R=4.0)
    assert not rep["empty"] and rep["finite_positive"]

    def wolff_exact(x):
        x = abs(x)
        return (1 - 2 * x) / 2 + 2 * x + (1 - x) * math.log(1 - x) \
            + (16 - (1 + x) ** 2) / 4

    xs = np.linspace(-0.5, 0.5, 41)
    u = (1 - np.abs(xs)) / 2
    wv = np.asarray([wolff_exact(t) for t in xs])
    ratios = u / wv
    assert rep["ratio_min"] == pytest.approx(float(np.min(ratios)), rel=1e-8)
    assert rep["ratio_max"] == pytest.approx(float(np.max(ratios)), rel=1e-8)


@pytest.mark.parametrize("p, w, mu", [
    (2.0, W1, dirac(0.1, 0.5).add(power_measure(0.3))),
    (2.5, power_weight(0.3), lebesgue(0.5).add(dirac(0.3))),
], ids=["dirac+power", "lebesgue+dirac"])
def test_ratio_report_reads_u_from_its_solve(p, w, mu):
    # u at the samples by the solve's own rule, against an 8192-node solve
    # (a PCHIP read of the nodal u misses by about 4e-6 of sup u here)
    rep = ratio_report(p, w, mu)
    ref = solve_dirichlet(p, w, mu, SolverOptions(n_nodes=8192))
    xs = np.linspace(-0.75, 0.75, 41)
    u = ref.u(xs)
    ratios = u / wolff_curve(p, w, mu, xs, DEFAULT_RADIUS)
    assert rep["ratio_min"] == pytest.approx(float(np.min(ratios)), rel=1e-12, abs=0.0)
    assert rep["ratio_max"] == pytest.approx(float(np.max(ratios)), rel=1e-12, abs=0.0)


def test_ratio_report_zero_measure_empty():
    rep = ratio_report(2.0, W1, RadonMeasure())
    assert rep["empty"]


def test_ratio_report_lebesgue_finite_band():
    rep = ratio_report(2.0, W1, lebesgue(), interior_margin=0.4, R=4.0)
    assert rep["finite_positive"]
    assert 0.0 < rep["ratio_min"] <= rep["ratio_max"] < math.inf
