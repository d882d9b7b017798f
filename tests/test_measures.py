import math

import numpy as np
import pytest
from scipy import special

from sublap.errors import QuadratureError, ValidationError
from sublap.measures import (
    CallableFactor,
    ConstantDensity,
    CumulativeMass,
    CustomDensity,
    ManufacturedDensity,
    RadonMeasure,
    SumDensity,
    TabulatedDensity,
    WindowedDensity,
    ZeroDensity,
    add,
    ball_mass,
    cdf,
    dirac,
    lebesgue,
    manufactured_measure,
    power_measure,
    scale,
    truncate,
    weighted_pushforward,
)
from sublap.quadrature import gauss_rule, points_from_edge, points_from_x
from sublap.solver import potential
from sublap.sublinear import iterate
from sublap.weights import constant_weight, power_weight

# -- cdf -------------------------------------------------------------------

def test_cdf_single_atom():
    mu = dirac(0.0)
    assert cdf(mu, -0.5) == 0.0
    assert cdf(mu, 0.0) == 1.0  # right-continuous: the atom counts at its location
    assert cdf(mu, 0.5) == 1.0


def test_cdf_lebesgue():
    assert cdf(lebesgue(), 0.0) == pytest.approx(1.0, rel=1e-14)


def test_cdf_power_density_hand_integrated():
    # density (1-|x|)^(-1.5): non-integrable at both endpoints, so the
    # full CDF from -1 is +inf, while the anchored mass of (0, 0.9] has the
    # hand-integrated closed form  int_0^0.9 (1-t)^(-1.5) dt
    #   = [2 (1-t)^(-1/2)]_0^0.9 = 2 (0.1^(-1/2) - 1).
    mu = power_measure(1.5)
    oracle = 2.0 * (0.1 ** -0.5 - 1.0)
    assert mu.cum_center(0.9) == pytest.approx(oracle, rel=1e-12)
    assert cdf(mu, 0.9) == math.inf


def test_cdf_matches_quadrature_for_custom_density():
    # same power density without its closed form goes through quadrature
    closed = power_measure(0.5, 0.7)
    quad = RadonMeasure(density=CustomDensity(
        func=lambda x: 0.7 * (1.0 - np.abs(x)) ** -0.5,
        sing_left=0.5, sing_right=0.5))
    for x in (-0.7, -0.2, 0.4, 0.95):
        assert quad.cdf(x) == pytest.approx(closed.cdf(x), rel=1e-9)


def test_cdf_signals_quadrature_failure():
    # an undeclared interior near-singularity: the 10- and 16-point rules of
    # the graded cumulative disagree there
    nasty = RadonMeasure(density=CustomDensity(
        func=lambda x: np.abs(x - 0.3123) ** -0.97,
        sing_left=0.0, sing_right=0.0))
    with pytest.raises(QuadratureError):
        nasty.cdf(0.9)


def test_declared_break_corners_are_graded():
    # manufactured p = 2.5 behaves like |x|^0.5 at its declared break 0; its
    # mass on (-r, r) is c B(r^2; 3/4, 1/2) with c = 2^1.5 * 1.5
    m = manufactured_measure(2.5, 0.5)
    c = 2.0 ** 1.5 * 1.5 * special.beta(0.75, 0.5)
    ball = lambda r: c * special.betainc(0.75, 0.5, r * r)
    assert m.total_mass() == pytest.approx(ball(1.0), rel=1e-12)
    assert m.cdf(0.5) == pytest.approx(0.5 * (ball(1.0) + ball(0.5)), rel=1e-12)
    np.testing.assert_allclose(m.ball_masses(0.0, [0.1, 0.9]), [ball(0.1), ball(0.9)], rtol=1e-12)
    # a user density with a declared |x - c|^0.5 corner
    corner = RadonMeasure(density=CustomDensity(func=lambda x: np.abs(x - 0.3123) ** 0.5,
                                                breaks=(0.3123,)))
    assert corner.cdf(0.9) == pytest.approx((1.3123 ** 1.5 + 0.5877 ** 1.5) / 1.5, rel=1e-12)


def _gauss40(f, edges):
    t, tw = gauss_rule(40)
    return sum((hi - lo) * float(tw @ f(lo + t * (hi - lo))) for lo, hi in zip(edges[:-1], edges[1:]))


def test_pushforward_side_mass_and_cdf_match_a_node_split_reference():
    # the ROADMAP instance: dirac(0.2) + 0.8 (1-|x|)^-0.6, p = 2.4,
    # w = (1-|x|)^0.3, pushed forward by u^0.5 for the converged iterate u.
    # Reference: 40 Gauss points between u's nodes, in y toward each
    # endpoint, a dyadic ladder below the innermost node closed at the
    # declared power, where u^0.5 is the pure power
    sigma = dirac(0.2).add(power_measure(0.6, 0.8))
    u = iterate(2.4, power_weight(0.3), sigma, 0.5).iterates[-1]
    nu = sigma.pushforward(u.power_factor(0.5))

    def side_ref(side):
        ys = np.unique(np.append(u.grid.y[(u.grid.side == side) & (u.grid.y > 0.0)], 1.0))
        edges = np.unique(np.concatenate([ys[0] * 2.0 ** -np.arange(60.0), ys]))
        dens = lambda y: nu.density.values(points_from_edge(side, y))
        tail = dens(edges[:1])[0] * edges[0] / (1.0 - nu.sing(side))
        return _gauss40(dens, edges) + tail + nu.atom_side_mass(side)

    for side in (-1, 1):
        assert nu.side_mass(side) == pytest.approx(side_ref(side), rel=1e-12)
    inner = np.concatenate([[0.0], u.x[(u.x > 0.0) & (u.x < 0.95)], [0.95]])
    cum = _gauss40(lambda x: nu.density.values(points_from_x(x)), inner) + nu.atom_side_mass(1)
    assert nu.cdf(0.95) == pytest.approx(side_ref(-1) + cum, rel=1e-12)


# -- side masses -------------------------------------------------------------

def _manufactured_mass(b):
    # manufactured p = 3, q = 0.5 is 8 |x| (1 - x^2)^(-1/2): mass 8 (1 - sqrt(1 - b^2)) on (0, b)
    return 8.0 * (1.0 - math.sqrt(1.0 - b * b))


def _power_mass(alpha, coef, y):
    # coef (1 - t)^(-alpha) on (0, 1 - y)
    return coef * (1.0 - y ** (1.0 - alpha)) / (1.0 - alpha)


SIDE_MASSES = {
    "windowed manufactured": lambda: (
        manufactured_measure(3.0, 0.5).window(0.1, 0.2), _manufactured_mass(0.9),
        _manufactured_mass(0.8)),
    "one-sided power window": lambda: (
        power_measure(0.6, 0.8).window(0.25, 0.0), _power_mass(0.6, 0.8, 0.25),
        _power_mass(0.6, 0.8, 0.0)),
    "manufactured plus constant": lambda: (
        manufactured_measure(3.0, 0.5).add(lebesgue(0.5)), 8.5, 8.5),
    # linear through (-3/4, 1), (-1/4, 3), (0, 2), (1/2, 0) and (1, 2)
    "tabulated": lambda: (
        RadonMeasure(density=TabulatedDensity((-0.75, -0.25, 0.5, 1.0), (1.0, 3.0, 0.0, 2.0))),
        1.625, 1.0),
    "zero": lambda: (RadonMeasure(), 0.0, 0.0),
    "window of a windowed manufactured": lambda: (
        manufactured_measure(3.0, 0.5).window(0.1, 0.2).window(0.3, 0.05),
        _manufactured_mass(0.7), _manufactured_mass(0.8)),
    "window of a one-sided power window": lambda: (
        power_measure(0.6, 0.8).window(0.25, 0.0).window(0.0, 0.5),
        _power_mass(0.6, 0.8, 0.25), _power_mass(0.6, 0.8, 0.5)),
}


@pytest.mark.parametrize("case", sorted(SIDE_MASSES))
def test_side_masses_meet_their_closed_forms(case):
    mu, left, right = SIDE_MASSES[case]()
    for side, want in ((-1, left), (1, right)):
        assert abs(mu.side_mass(side) - want) <= 1e-15 * want
    if case.startswith("window of"):
        # windows merge into one window of the base
        assert isinstance(mu.density, WindowedDensity)
        assert not isinstance(mu.density.base, WindowedDensity)


def test_cdf_rejects_out_of_domain():
    with pytest.raises(ValidationError):
        cdf(dirac(0.0), 1.0)


@pytest.mark.parametrize("radii", [(0.5,), (0.5, 0.9, 0.99), (0.9, 1.0 - 1e-6)])
def test_ball_masses_without_closed_cumulative_are_exact(radii):
    # few radii: the density's interior break at 0 and a dyadic ladder toward
    # the edge join the points; the exact mass is 16 (1 - sqrt(1 - r^2))
    mu = manufactured_measure(3.0, 0.5)
    rs = np.asarray(radii)
    exact = 16.0 * (1.0 - np.sqrt((1.0 - rs) * (1.0 + rs)))
    assert np.allclose(mu.ball_masses(0.0, rs), exact, rtol=1e-12, atol=0.0)


def test_ball_masses_split_at_interior_breaks():
    # density 1 left of 0.3 and 2 right of it, declared break at 0.3
    mu = RadonMeasure(density=CustomDensity(func=lambda x: np.where(x < 0.3, 1.0, 2.0),
                                            breaks=(0.3,)))
    assert mu.ball_masses(0.0, np.asarray([0.9]))[0] == pytest.approx(2.4, rel=1e-14)


@pytest.mark.parametrize("gap", [1e-7, 1e-10, 1e-12])
def test_scalar_ball_mass_near_the_edge(gap):
    mu = manufactured_measure(3.0, 0.5)
    r = 1.0 - gap
    exact = 16.0 * (1.0 - math.sqrt((1.0 - r) * (1.0 + r)))
    assert mu.ball_mass(0.0, r) == pytest.approx(exact, rel=1e-12)


def test_cumulative_mass_wrapper():
    M = CumulativeMass(dirac(0.25, 2.0))
    assert M.right_continuous
    assert M(0.25) == 2.0
    assert M(0.2) == 0.0


# -- truncate ----------------------------------------------------------------

def test_truncate_keeps_interior_atom():
    mu = dirac(0.0)
    for k in (1, 3, 10):
        nu = truncate(mu, k)
        assert nu.atoms == mu.atoms
        assert nu.total_mass() == 1.0


def test_truncate_makes_power_density_finite():
    mu = power_measure(1.5)
    assert mu.total_mass() == math.inf
    for k in (1, 2, 5, 20):
        assert math.isfinite(truncate(mu, k).total_mass())


def test_truncate_lebesgue_level_one():
    nu = truncate(lebesgue(), 1)  # restriction to [-0.5, 0.5]
    assert nu.total_mass() == pytest.approx(1.0, rel=1e-14)


def test_truncate_rejects_bad_level():
    with pytest.raises(ValidationError):
        truncate(dirac(0.0), 0)


def test_truncations_increase_setwise():
    rng = np.random.default_rng(7)
    mu = power_measure(0.8, 0.9).add(dirac(0.3, 0.5))
    for x in rng.uniform(-0.95, 0.95, size=8):
        vals = [truncate(mu, k).cdf(float(x)) for k in (1, 2, 4, 8, 16)]
        vals.append(mu.cdf(float(x)))
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# -- ball_mass ---------------------------------------------------------------

def test_ball_mass_atom_cases():
    mu = dirac(0.0)
    assert ball_mass(mu, 0.0, 0.1) == 1.0
    assert ball_mass(mu, 0.5, 0.1) == 0.0


def test_ball_mass_lebesgue():
    assert ball_mass(lebesgue(), 0.0, 0.25) == pytest.approx(0.5, rel=1e-14)


def test_ball_mass_open_ball_excludes_boundary_atom():
    mu = dirac(0.5)
    # the open ball B(0.3, 0.2) = (0.1, 0.5) does not contain the atom at 0.5
    assert ball_mass(mu, 0.3, 0.2) == 0.0
    assert ball_mass(mu, 0.31, 0.2) == 1.0


def test_ball_masses_vectorized_matches_scalar():
    mu = power_measure(0.5, 0.8).add(dirac(-0.2, 0.6))
    rs = np.asarray([0.05, 0.3, 0.9, 1.7])
    vec = mu.ball_masses(0.1, rs)
    for r, v in zip(rs, vec):
        assert v == pytest.approx(ball_mass(mu, 0.1, float(r)), rel=1e-12)


def test_ball_masses_open_ball_with_atoms_on_the_ends():
    # x = 0.25 with atoms at x - r and x + r for r = 0.5, at x itself, at
    # x + r for r = 0.25 and at x - r for r = 0.75 (all exact in binary)
    atoms = ((-0.5, 16.0), (-0.25, 1.0), (0.25, 2.0), (0.5, 8.0), (0.75, 4.0))
    rs = np.asarray([0.25, 0.5, 0.75, 1.5])
    expected = np.asarray([2.0, 10.0, 15.0, 31.0])
    vec = RadonMeasure(atoms=atoms).ball_masses(0.25, rs)
    assert np.array_equal(vec, expected)
    mu = RadonMeasure(atoms=atoms).add(lebesgue(0.5))
    vec = mu.ball_masses(0.25, rs)
    for r, v in zip(rs, vec):
        assert v == ball_mass(mu, 0.25, float(r))
    assert np.array_equal(vec, expected + 0.5 * np.asarray([0.5, 1.0, 1.5, 2.0]))


# -- scale / add --------------------------------------------------------------

def test_scale_atom():
    assert scale(dirac(0.0), 2.0).atoms == ((0.0, 2.0),)


def test_add_atom_and_density():
    mu = add(dirac(0.0), lebesgue())
    assert len(mu.atoms) == 1
    assert mu.total_mass() == pytest.approx(3.0, rel=1e-14)


def test_scale_to_zero_measure():
    assert scale(dirac(0.0), 0.0).is_zero


def test_cdf_linearity_under_scale_and_add():
    rng = np.random.default_rng(11)
    mu = power_measure(0.4, 0.5).add(dirac(0.1, 0.9))
    nu = lebesgue(0.3).add(dirac(-0.4, 0.2))
    for x in rng.uniform(-0.9, 0.9, size=6):
        lhs = add(scale(mu, 2.0), scale(nu, 3.0)).cdf(float(x))
        rhs = 2.0 * mu.cdf(float(x)) + 3.0 * nu.cdf(float(x))
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_cdf_monotone_random_pairs():
    rng = np.random.default_rng(13)
    mu = manufactured_measure(3.0, 0.5).add(dirac(0.6, 0.1))
    xs = np.sort(rng.uniform(-0.99, 0.99, size=10))
    vals = [mu.cdf(float(x)) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# -- pushforward ---------------------------------------------------------------

def test_pushforward_scales_atom_by_factor_value():
    g = CallableFactor(lambda x: np.full_like(np.asarray(x, dtype=float), 3.0))
    nu = weighted_pushforward(dirac(0.0), g)
    assert nu.atoms == ((0.0, 3.0),)


def test_pushforward_density_hand_integrated():
    # g = u^q with u = (1 - x^2)/2, q = 1 against Lebesgue: the pushforward
    # density is (1 - x^2)/2 and its total mass is the hand integral
    # int_{-1}^{1} (1 - x^2)/2 dx = 2/3.
    g = CallableFactor(lambda x: (1.0 - np.asarray(x) ** 2) / 2.0,
                       exp_left=1.0, exp_right=1.0)
    nu = weighted_pushforward(lebesgue(), g)
    assert nu.total_mass() == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_pushforward_zero_factor_gives_zero_mass():
    g = CallableFactor(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    nu = weighted_pushforward(lebesgue(), g)
    assert nu.total_mass() == pytest.approx(0.0, abs=1e-15)


def test_pushforward_rejects_factor_blowing_up_at_atom():
    def blow_up(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(np.asarray(x, dtype=float))

    g = CallableFactor(blow_up)
    with pytest.raises(ValidationError):
        weighted_pushforward(dirac(0.0), g)


# -- construction validation -----------------------------------------------------

def test_atom_validation():
    with pytest.raises(ValidationError):
        RadonMeasure(atoms=((1.0, 1.0),))  # on the boundary
    with pytest.raises(ValidationError):
        RadonMeasure(atoms=((0.0, -1.0),))
    # duplicate locations merge
    mu = RadonMeasure(atoms=((0.2, 1.0), (0.2, 0.5)))
    assert mu.atoms == ((0.2, 1.5),)


# -- evaluators near x = 0, where y = 1 - |x| has lost |x| ----------------------

@pytest.mark.parametrize("x", [1e-12, -1e-12, 3e-17, -3e-17, 1e-300, 0.3, -0.7])
def test_manufactured_density_keeps_its_relative_accuracy_near_zero(x):
    # 2^(p-1) (p-1) |x|^(p-2) (1 - x^2)^(-q) at p = 3, q = 1/2
    got = ManufacturedDensity(3.0, 0.5).values(points_from_x(np.asarray([x])))[0]
    assert got == pytest.approx(8.0 * abs(x) / math.sqrt(1.0 - x * x), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x", [1e-20, -1e-20, 1e-9, -1e-9, 0.3, -0.7])
def test_constant_density_cumulative_is_exact_near_zero(x):
    pts = points_from_x(np.asarray([x]))
    assert ConstantDensity(2.0).cum0_many(pts)[0] == 2.0 * x


def test_tabulated_density_closed_cumulative():
    # trapezoid of a piecewise-linear density is exact
    dens = TabulatedDensity(xs=(-0.5, 0.0, 0.5), vals=(0.0, 2.0, 0.0))
    mu = RadonMeasure(density=dens)
    assert mu.total_mass() == pytest.approx(1.0, rel=1e-14)
    assert mu.cdf(0.0) == pytest.approx(0.5, rel=1e-14)


# -- composite densities ----------------------------------------------------------

def _custom(breaks):
    return RadonMeasure(density=CustomDensity(lambda x: 1.0 + 0.0 * x, sing_left=0.3,
                                              breaks=breaks))


def _scaled_pushforward():
    mu = power_measure(0.6)
    u = potential(2.0, constant_weight(), mu).u  # u ~ y at both ends
    s = 0.6 - 0.5 * 1.0
    return (mu.pushforward(u.power_factor(0.5)).scale(2.0), s, s, (), (), (),
            tuple(u.x[1:-1]), False, True)


# each row: measure, sing(-1), sing(1), breakpoints_y(-1), breakpoints_y(1),
# interior_breaks, kinks, is_zero, y_resolved
COMPOSITES = {
    "truncated power": lambda: (power_measure(1.2).truncate(3), 0.0, 0.0, (0.125,),
                                (0.125,), (-0.875, 0.875), (), False, True),
    "windowed power plus custom": lambda: (
        power_measure(0.5).window(0.25, 0.0).add(_custom((0.1,))), 0.3, 0.5, (0.25,),
        (), (-0.75, 0.1), (), False, False),
    "scaled pushforward": _scaled_pushforward,
    "window of a sum": lambda: (
        power_measure(1.5).truncate(4).add(_custom((0.1, 0.95))).window(0.5, 0.125),
        0.0, 0.0, (0.5, 0.0625), (0.125, 0.0625), (0.1, -0.5, 0.875), (), False, False),
    "sum of zeros": lambda: (RadonMeasure(density=SumDensity((ZeroDensity(), ZeroDensity()))),
                             0.0, 0.0, (), (), (), (), True, True),
}


@pytest.mark.parametrize("case", sorted(COMPOSITES))
def test_composite_geometry_follows_its_parts(case):
    mu, s_left, s_right, by_left, by_right, ib, kinks, is_zero, y_res = COMPOSITES[case]()
    dens = mu.density
    assert (dens.sing(-1), dens.sing(1)) == (s_left, s_right)
    assert (dens.breakpoints_y(-1), dens.breakpoints_y(1)) == (by_left, by_right)
    assert dens.interior_breaks() == ib
    assert dens.kinks() == kinks
    assert (dens.is_zero, dens.y_resolved) == (is_zero, y_res)


def test_atom_table_is_built_once_and_read_only():
    mu = RadonMeasure(atoms=((0.2, 1.0), (-0.5, 2.0)))
    assert mu.atom_locations is mu.atom_locations
    assert not mu.atom_locations.flags.writeable
    assert not mu.atom_masses.flags.writeable
    # S is right-continuous: an atom counts at its own location for x > 0,
    # and leaves (x, 0] there for x < 0
    x = np.asarray([np.nextafter(0.2, 0.0), 0.2, np.nextafter(-0.5, -1.0), -0.5])
    assert mu.atom_cum_center(x).tolist() == [0.0, 1.0, -2.0, 0.0]


# -- composite, custom and tabulated branches against closed forms or twins -------------

def test_scaled_sums_and_windows_equal_their_scaled_parts():
    assert lebesgue(0.5).add(power_measure(0.3)).scale(2.0).density == \
        lebesgue(1.0).add(power_measure(0.3, 2.0)).density
    assert power_measure(0.5).truncate(4).scale(3.0).density == \
        power_measure(0.5, 3.0).truncate(4).density


def test_a_sum_with_a_manufactured_part_has_no_closed_cumulative():
    parts = (manufactured_measure(3, 0.5), lebesgue(0.5))
    mu = parts[0].add(parts[1])
    pts = points_from_x(np.linspace(-0.99, 0.99, 41))
    assert isinstance(mu.density, SumDensity) and mu.density.cum0_many(pts) is None
    want = parts[0].cum_center_many(pts) + parts[1].cum_center_many(pts)
    assert np.max(np.abs(mu.cum_center_many(pts) - want)) <= 1e-15 * np.max(np.abs(want))


def test_a_custom_density_reads_its_given_cumulative():
    # -u'' = 1 + x on (-1, 1): u = 1/2 + x/6 - x^2/2 - x^3/6
    mu = RadonMeasure(density=CustomDensity(func=lambda x: 1.0 + x,
                                            cum0=lambda x: x + 0.5 * x * x))
    x = np.linspace(-0.9, 0.9, 7)
    assert np.array_equal(mu.density.cum0_many(points_from_x(x)), x + 0.5 * x * x)
    assert mu.total_mass() == 2.0
    res = potential(2.0, constant_weight(), mu)
    x = res.u.x
    assert np.max(np.abs(res.u.values - (0.5 + x / 6 - x ** 2 / 2 - x ** 3 / 6))) <= 1e-15


def test_a_table_past_64_samples_declares_only_its_ends():
    # the same hat sampled at 101 points and at its 3 corners
    xs = np.linspace(-0.5, 0.5, 101)
    long = TabulatedDensity(tuple(xs), tuple(1.0 - 2.0 * np.abs(xs)))
    short = TabulatedDensity((-0.5, 0.0, 0.5), (0.0, 1.0, 0.0))
    assert long.interior_breaks() == (-0.5, 0.5)
    res = potential(2.0, constant_weight(), RadonMeasure(density=long))
    ref = potential(2.0, constant_weight(), RadonMeasure(density=short))
    assert np.array_equal(res.u.x, ref.u.x)
    assert np.max(np.abs(res.u.values - ref.u.values)) <= 1e-15 * ref.u.sup()
