"""Truncated Wolff potentials and the diagnostic ratio against the solver.

W^R(x) = integral over (0, R] of (r^p mu(B(x,r)) / w(B(x,r)))^(1/(p-1)) dr/r.

In one dimension the integrand (written against dr) stays bounded as r -> 0:
an atom at x makes it tend to (m / (2 w(x)))^(1/(p-1)), a locally bounded
density makes it vanish like r^(1/(p-1)).  The value is +inf exactly when the
ball of some admissible radius swallows an endpoint carrying non-integrable
density mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import RadonMeasure
from .quadrature import gauss_rule
from .solver import DEFAULT_OPTIONS, SolverOptions, solve_dirichlet
from .weights import Weight

INF = math.inf
DEFAULT_RADIUS = 4.0  # 2 * diam(-1, 1)


@dataclass(frozen=True)
class WolffSample:
    x: float
    R: float
    value: float  # nonnegative, possibly +inf


def _kink_radii(mu: RadonMeasure, x: float, R: float) -> np.ndarray:
    """Radii at which r -> mu(B(x,r)) or r -> w(B(x,r)) changes regime."""
    radii = {1.0 - x, 1.0 + x}
    for a in mu.atom_locations:
        radii.add(abs(x - a))
    for b in mu.interior_breaks():
        radii.add(abs(x - b))
    for side in (-1, 1):
        for yb in mu.breakpoints_y(side):
            radii.add(abs(x - side * (1.0 - yb)))
    return np.asarray(sorted(r for r in radii if 0.0 < r < R))


def _graded_offsets() -> np.ndarray:
    """Panel edges of one piece, scaled to [0, 1]: geometric grading toward
    both piece ends (kinks of mu(B)/w(B)), ratio 0.35 over 18 steps."""
    offs = [0.0, 0.5, 1.0]
    h = 0.5
    for _ in range(18):
        h *= 0.35
        offs.append(h)
        offs.append(1.0 - h)
    return np.unique(np.asarray(offs))


_OFFSETS = _graded_offsets()


def wolff_truncated(p: float, w: Weight, mu: RadonMeasure, x: float, R: float = DEFAULT_RADIUS,
                    n_gauss: int = 12) -> WolffSample:
    """One sample of the truncated Wolff potential by graded quadrature.

    The r-axis is split at the kink radii (atom distances, clipping radii,
    density regime edges); each piece gets geometrically graded Gauss panels
    so the power behavior of the integrand near r = 0 and near each kink is
    resolved.  The panel touching r = 0 evaluates at interior Gauss radii,
    where the integrand is bounded, so no special sliver is needed.

    The integrand is evaluated in one pass: the Gauss radii of every panel
    form one array, with one ``ball_masses`` and one ``ball_weight`` call.
    A radius below the float spacing at x gives an empty ball (x - r ==
    x + r, mass and weight 0); its integrand is taken as 0, since the true
    panel value is at most the bounded r -> 0 limit times r, below rounding.
    The sample is one dot product, of the panel lengths with the Gauss sums.
    """
    if not (R > 0.0):
        raise ValidationError("wolff.wolff_truncated: need R > 0")
    if not (-1.0 < x < 1.0):
        raise ValidationError("wolff.wolff_truncated: need x inside (-1, 1)")
    e = 1.0 / (p - 1.0)

    # +inf detection: the largest ball swallowing an endpoint with infinite mass
    if math.isinf(mu.ball_masses(x, np.asarray([R]))[0]):
        return WolffSample(x=x, R=R, value=INF)

    cuts = np.concatenate([[0.0], _kink_radii(mu, x, R), [R]])
    edges = cuts[:-1, None] + np.diff(cuts)[:, None] * _OFFSETS
    hj = np.diff(edges, axis=1)
    keep = hj > 0.0
    hj, lo = hj[keep], edges[:, :-1][keep]
    t, tw = gauss_rule(n_gauss)
    rj = (lo[:, None] + t * hj[:, None]).ravel()
    mb = mu.ball_masses(x, rj)
    wb = w.ball_weight(x, rj)
    q = np.divide(rj ** p * mb, wb, out=np.zeros_like(mb), where=wb > 0.0)
    g = (q ** e / rj).reshape(hj.size, t.size)
    return WolffSample(x=x, R=R, value=float(hj @ (g @ tw)))


def wolff_curve(p: float, w: Weight, mu: RadonMeasure, xs: np.ndarray,
                R: float = DEFAULT_RADIUS) -> np.ndarray:
    return np.asarray([wolff_truncated(p, w, mu, float(x), R).value for x in xs])


def ratio_report(p: float, w: Weight, mu: RadonMeasure, interior_margin: float = 0.25,
                 R: float = DEFAULT_RADIUS, n_samples: int = 41,
                 options: SolverOptions = DEFAULT_OPTIONS) -> dict:
    """min/max of u / W^R over the interior band [-1+margin, 1-margin].

    The two-sided pointwise estimate has a non-explicit constant; the
    diagnostic content is that both ratio ends are finite and positive.
    """
    if mu.is_zero:
        return {"empty": True, "ratio_min": None, "ratio_max": None}
    res = solve_dirichlet(p, w, mu, options)
    xs = np.linspace(-1.0 + interior_margin, 1.0 - interior_margin, n_samples)
    uvals = res.u(xs)
    wolff = wolff_curve(p, w, mu, xs, R)
    mask = wolff > 0.0
    if not np.any(mask):
        return {"empty": True, "ratio_min": None, "ratio_max": None}
    ratios = uvals[mask] / wolff[mask]
    return {
        "empty": False,
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
        "finite_positive": bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)),
        "n_samples": int(np.sum(mask)),
    }
