import numpy as np
import pytest

from sublap.errors import QuadratureError, ValidationError
from sublap.weights import Weight, constant_weight, power_weight


def test_ball_weight_constant():
    w = constant_weight()
    assert w.ball_weight(0.0, 0.5) == pytest.approx(1.0)


def test_ball_weight_clips_at_boundary():
    # beta = 0 power weight is Lebesgue; B(0.9, 0.2) clips to (0.7, 1)
    w = power_weight(0.0)
    assert w.ball_weight(0.9, 0.2) == pytest.approx(0.3, rel=1e-14)


def test_ball_weight_linear_power():
    # w = (1-|x|): 2 * int_0^1 (1-t) dt = 1
    w = power_weight(1.0)
    assert w.ball_weight(0.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_conjugate_integrable():
    assert constant_weight().conjugate_integrable(1.3)
    assert not power_weight(1.0).conjugate_integrable(2.0)  # beta/(p-1) = 1
    assert power_weight(0.5).conjugate_integrable(2.0)


def test_validate_window():
    power_weight(0.4).validate_window(2.0)
    with pytest.raises(ValidationError):
        power_weight(1.0).validate_window(2.0)
    with pytest.raises(ValidationError):
        power_weight(-1.0).validate_window(2.0)


def test_weight_positivity_enforced():
    w = Weight(family="custom", func=lambda x: np.asarray(x), edge_exponent_left=0.0)
    with pytest.raises(ValidationError):
        w(np.asarray([-0.5, 0.5]))


def test_ball_weight_monotone_and_additive():
    w = power_weight(0.5)
    rs = np.linspace(0.05, 2.0, 17)
    vals = [w.ball_weight(0.2, float(r)) for r in rs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # additivity over disjoint pieces: B(0, 0.6) = (-0.6, -0.2) + B(0, 0.2) + (0.2, 0.6)
    total = w.ball_weight(0.0, 0.6)
    inner = w.ball_weight(0.0, 0.2)
    left = w.ball_weight(-0.4, 0.2)
    right = w.ball_weight(0.4, 0.2)
    assert total == pytest.approx(inner + left + right, rel=1e-13)


def test_power_closed_form_matches_quadrature():
    # the closed antiderivative against the generic quadrature path, 1e-12 relative
    for beta in (-0.5, 0.3, 0.9):
        closed = power_weight(beta)
        quad = Weight(family="custom",
                      func=lambda x, b=beta: (1.0 - np.abs(x)) ** b,
                      edge_exponent_left=beta, edge_exponent_right=beta)
        for (x, r) in ((0.0, 0.5), (0.6, 0.7), (-0.9, 0.3), (0.0, 1.0)):
            a = closed.ball_weight(x, r)
            b_val = quad.ball_weight(x, r)
            assert b_val == pytest.approx(a, rel=1e-12)


def test_conjugate_singularity_exponent():
    w = power_weight(0.6)
    assert w.conjugate_singularity(2.0, 1) == pytest.approx(0.6)
    assert power_weight(-0.5).conjugate_singularity(2.0, 1) == 0.0
    assert constant_weight().conjugate_singularity(3.0, -1) == 0.0


def test_ball_weight_of_an_array_matches_scalar_calls():
    # x = 0.3 clips at +1 from r = 0.7 and at both ends from r = 1.3;
    # x = -0.6 clips at -1 only for r in [0.4, 1.6)
    rs = np.asarray([0.1, 0.5, 0.9, 1.2, 1.5, 3.0])
    custom = Weight(family="custom", func=lambda x: 1.0 + 0.5 * x ** 2)
    for w in (constant_weight(2.5), power_weight(-0.4), power_weight(0.7), custom):
        for x in (0.3, -0.6):
            vec = w.ball_weight(x, rs)
            scalars = [w.ball_weight(x, float(r)) for r in rs]
            assert isinstance(scalars[0], float)
            assert vec.shape == rs.shape
            assert np.array_equal(vec, scalars)


def test_ball_weight_rejects_nonpositive_radii_in_an_array():
    w = power_weight(0.5)
    for rs in ([0.1, 0.0, 0.3], [-0.2], [0.5, np.nan]):
        with pytest.raises(ValidationError):
            w.ball_weight(0.0, np.asarray(rs))


def test_custom_ball_weight_signals_an_undeclared_kink():
    # |x - 0.3123| has a kink that no join of the graded cumulative meets
    w = Weight(family="custom", func=lambda x: 1.0 + np.abs(np.asarray(x) - 0.3123))
    with pytest.raises(QuadratureError):
        w.ball_weight(0.0, 0.5)
