import math

import numpy as np
import pytest

from sublap import solver
from sublap.errors import InternalInvariantError, ValidationError
from sublap.measures import PowerDensity, RadonMeasure, dirac, lebesgue, power_measure
from sublap.quadrature import bracketed_root
from sublap.solver import (
    SolverOptions,
    _ladder_schedule,
    _monotone_limit,
    check_comparison,
    potential,
    solve_dirichlet,
)
from sublap.weights import Weight, constant_weight, power_weight

W1 = constant_weight()


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


def test_bracketed_root_bisection_budget():
    # the flux-constant search must hit 1e-12 bracket width within 200 steps
    g = lambda c: c ** 3 - 0.1
    root, val, iters = bracketed_root(g, -2.0, 3.0, xtol=1e-12, max_iter=200)
    assert iters <= 200
    assert abs(root - 0.1 ** (1 / 3)) < 1e-10
    res = solve_dirichlet(3.0, W1, dirac(0.2, 1.7))
    assert res.root_iterations <= 200


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
            _ladder_schedule(solver.DEFAULT_OPTIONS), tol=1e-9, cap=1e12,
            growth=0.98, drop_slack=1e-10)
        assert lim.converged and lim.levels > 2
        assert np.max(np.abs(lim.value - res.u.values)) < 1e-9


def test_potential_divergence_detected():
    # int G(0,y) (1-y)^(-2) dy ~ int (1-y)^(-1) dy diverges: W mu == inf
    res = potential(2.0, W1, power_measure(2.0))
    assert res.diverged
    assert np.all(np.isinf(res.u.values))


def test_potential_monotone_in_truncation_level():
    mu = power_measure(1.2)
    prev = None
    for k in (2, 4, 8, 16):
        res = solve_dirichlet(2.0, W1, mu.truncate(k))
        if prev is not None:
            vals = res.u.values_at(prev.u.grid)
            assert np.min(vals - prev.u.values) > -1e-11
        prev = res


# -- the monotone-limit driver on synthetic ladders ---------------------------------

def _ladder(values):
    return lambda k: (values[k - 1], k)


LEVELS = tuple(range(1, 41))


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


def test_ladder_schedule_start_hint_keeps_three_levels():
    # two levels give one increment, on which a ladder can never converge
    opts = solver.DEFAULT_OPTIONS
    assert _ladder_schedule(opts, start_level=39) == (38, 39, 40)
    assert _ladder_schedule(opts, start_level=99) == (38, 39, 40)
    assert _ladder_schedule(opts, start_level=30) == tuple(range(30, 41))


# -- panel cache ------------------------------------------------------------------

def test_panel_cache_lookup_survives_concurrent_clear(monkeypatch):
    class ClearedAfterMembershipTest(dict):
        # another thread's clear() landing between a membership test and
        # the read that follows it
        def __contains__(self, key):
            found = super().__contains__(key)
            self.clear()
            return found

    monkeypatch.setattr(solver, "_PANEL_CACHE", ClearedAfterMembershipTest())
    first = solve_dirichlet(2.0, W1, dirac(0.0))
    second = solve_dirichlet(2.0, W1, dirac(0.0))
    assert np.array_equal(first.u.values, second.u.values)


# -- homogeneity ------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_homogeneity(p):
    mu = dirac(0.3, 0.7).add(lebesgue(0.4))
    r1 = solve_dirichlet(p, W1, mu)
    r2 = solve_dirichlet(p, W1, mu.scale(5.0))
    scale = np.max(r2.u.values)
    rel = np.max(np.abs(r2.u.values - 5.0 ** (1.0 / (p - 1.0)) * r1.u.values)) / scale
    assert rel < 1e-9


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
    # the public contract is monotone piecewise-cubic (PCHIP) interpolation,
    # whose derivative estimates are second order: micro-level accuracy only
    assert np.max(np.abs(res.u(xq) - exact)) < 1e-6


def test_custom_grid_options():
    opts = SolverOptions(n_nodes=128, grading_ratio=0.8)
    res = solve_dirichlet(2.0, W1, dirac(0.0), opts)
    exact = (1.0 - np.abs(res.u.x)) / 2.0
    assert np.max(np.abs(res.u.values - exact)) < 1e-12
