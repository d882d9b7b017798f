"""Positive weights on (-1, 1): evaluation, ball integrals, flux-inversion admissibility.

The verified family is the power weight (1 - |x|)^beta with beta in the window
(-1, p - 1); constant weights are a special case.  Custom weights must declare
their endpoint behavior (w ~ C * dist^b near each endpoint) because the
quadrature grading and the conjugate-integrability test rely on the exponents,
not on numerical probing.  p-admissibility (doubling/Poincare) of custom
weights is the caller's responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .quadrature import Points, graded_cumulative, points_from_x


@dataclass(frozen=True)
class Weight:
    """Weight on (-1, 1).

    family: "constant" | "power" | "custom"
    beta:   exponent for the power family (w = (1 - |x|)^beta)
    value:  constant value for the constant family
    func:   vectorized evaluator for the custom family
    edge_exponent_left/right: declared b with w ~ C * dist^b at the endpoint
    """

    family: str = "constant"
    beta: float = 0.0
    value: float = 1.0
    func: Callable[[np.ndarray], np.ndarray] | None = None
    edge_exponent_left: float = 0.0
    edge_exponent_right: float = 0.0

    def __post_init__(self):
        if self.family not in ("constant", "power", "custom"):
            raise ValidationError(f"weights.Weight: unknown family {self.family!r}")
        if self.family == "constant" and not (self.value > 0.0):
            raise ValidationError("weights.Weight: constant weight must be positive")
        if self.family == "custom" and self.func is None:
            raise ValidationError("weights.Weight: custom family needs an evaluator")

    # -- evaluation -----------------------------------------------------

    def values(self, pts: Points) -> np.ndarray:
        if self.family == "constant":
            return np.full(len(pts), self.value)
        if self.family == "power":
            return pts.y ** self.beta
        vals = np.asarray(self.func(pts.x), dtype=float)
        # positivity is required on the open interval only; a custom weight
        # may vanish at the endpoints themselves (like the power family)
        if np.any(vals[pts.y > 1e-15] <= 0.0):
            raise ValidationError("weights.Weight: custom weight evaluated non-positive")
        return vals

    def __call__(self, x) -> np.ndarray:
        return self.values(points_from_x(np.atleast_1d(np.asarray(x, dtype=float))))

    def edge_exponent(self, side: int) -> float:
        if self.family == "constant":
            return 0.0
        if self.family == "power":
            return self.beta
        return self.edge_exponent_left if side < 0 else self.edge_exponent_right

    # -- admissibility ---------------------------------------------------

    def validate_window(self, p: float) -> None:
        """Power-family admissibility window beta in (-1, p - 1)."""
        if self.family == "power" and not (-1.0 < self.beta < p - 1.0):
            raise ValidationError(
                f"weights.Weight: beta={self.beta} outside (-1, {p - 1.0}) for p={p}"
            )

    def conjugate_integrable(self, p: float) -> bool:
        """True iff the flux inversion integrand w^(-1/(p-1)) is integrable.

        Closed condition b/(p - 1) < 1 at each endpoint, with b the (declared)
        endpoint exponent of w.
        """
        if p <= 1.0:
            raise ValidationError(f"weights.conjugate_integrable: need p > 1, got {p}")
        if self.family == "constant":
            return True
        for side in (-1, 1):
            if self.edge_exponent(side) / (p - 1.0) >= 1.0:
                return False
        return True

    def conjugate_singularity(self, p: float, side: int) -> float:
        """Exponent s with w^(-1/(p-1)) ~ dist^(-s) at the given endpoint (s=0 if regular)."""
        return max(0.0, self.edge_exponent(side) / (p - 1.0))

    # -- ball integrals ---------------------------------------------------

    def _cum_power(self, x: np.ndarray) -> np.ndarray:
        """Antiderivative of (1 - |t|)^beta from 0, evaluated at x."""
        b1 = self.beta + 1.0
        ax = np.abs(x)
        mag = (1.0 - (1.0 - ax) ** b1) / b1
        return np.sign(x) * mag

    def ball_weight(self, x: float, r: float | np.ndarray,
                    rel_tol: float = 1e-10) -> float | np.ndarray:
        """w(B(x, r) cap (-1, 1)) for one radius (a float) or an array of
        radii (an array); an empty ball (x - r == x + r) has weight 0."""
        rs = np.asarray(r, dtype=float)
        if not np.all(rs > 0.0):
            raise ValidationError("weights.ball_weight: need r > 0")
        a = np.maximum(x - rs, -1.0)
        b = np.minimum(x + rs, 1.0)
        if self.family == "constant":
            out = self.value * (b - a)
        elif self.family == "power":
            out = self._cum_power(b) - self._cum_power(a)
        else:
            out = np.asarray([self._custom_ball(float(lo), float(hi), rel_tol)
                              if hi > lo else 0.0
                              for lo, hi in zip(a.ravel(), b.ravel())]).reshape(rs.shape)
        out = np.where(b > a, out, 0.0)
        return float(out) if out.ndim == 0 else out

    def _custom_ball(self, a: float, b: float, rel_tol: float) -> float:
        """Integral of a custom weight over (a, b) by the graded cumulative,
        anchored inside the ball so that a small ball is no difference of
        large masses; w ~ dist^b at an endpoint is the declared power -b in
        the cumulative's dist^(-a) convention."""
        S = graded_cumulative(self.values, points_from_x(np.asarray([a, b])),
                              sing=(-self.edge_exponent_left, -self.edge_exponent_right),
                              y_resolved=False, anchor=0.5 * (a + b), rel_tol=rel_tol)
        return float(S[1] - S[0])


def constant_weight(value: float = 1.0) -> Weight:
    return Weight(family="constant", value=value)


def power_weight(beta: float) -> Weight:
    return Weight(family="power", beta=beta,
                  edge_exponent_left=beta, edge_exponent_right=beta)
