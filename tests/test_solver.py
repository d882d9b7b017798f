import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from sublap import solver
from sublap.errors import InternalInvariantError, ValidationError
from sublap.measures import PowerDensity, RadonMeasure, dirac, lebesgue, power_measure
from sublap.quadrature import bracketed_root
from sublap.solver import (
    SolverOptions,
    check_comparison,
    potential,
    solve_dirichlet,
)
from sublap.weights import Weight, constant_weight, power_weight

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
            LEVELS, tol=1e-9, cap=1e12,
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
