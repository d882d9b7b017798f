"""Two-sided brackets for the best trace constant and Rayleigh lower bounds.

With theta = (1+q)p/(p-1-q) and E the energy at the sandwich exponent
(1+q)(p-1)/(p-1-q), the best constant C_T of the trace inequality
|f|_{L^(1+q)(sigma)} <= C_T |f'|_{L^p(w)} satisfies

    [ (1+q)^((1+q)/(p-1-q)) c_V^(1+q) E ]^(1/theta) <= C_T <= E^(1/theta),

and the two ends coincide at q = 0.  Rayleigh quotients of explicit
zero-boundary test functions (powers of truncated potentials read from their
solves, hats on atoms on one shared quadrature of sigma) give certified lower
bounds inside the bracket.  The ``schedule`` keyword of ``trace_bracket``
configured the earlier truncation ladder; it is accepted and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .energy import _gradient_energy, _integrator, energy_ladder, measure_integral
from .measures import RadonMeasure
from .params import envelope_constant
from .quadrature import graded_cumulative, points_from_x
from .solver import DEFAULT_OPTIONS, GridFunction, SolverOptions, solve_dirichlet
from .weights import Weight

INF = math.inf


@dataclass(frozen=True)
class TraceBracket:
    lower: float
    upper: float
    energy_value: float


def _trace_exponents(p: float, q: float) -> tuple[float, float]:
    theta = (1.0 + q) * p / (p - 1.0 - q)
    ghat = (1.0 + q) * (p - 1.0) / (p - 1.0 - q)
    return theta, ghat


def trace_bracket(p: float, w: Weight, sigma: RadonMeasure, q: float,
                  options: SolverOptions = DEFAULT_OPTIONS,
                  schedule=None) -> TraceBracket:
    """Bracket C_T between the two explicit functions of the energy integral."""
    if not (-1.0 < q < p - 1.0):
        raise ValidationError(f"trace.trace_bracket: need -1 < q < p - 1, got q={q}")
    theta, ghat = _trace_exponents(p, q)
    lim = energy_ladder(p, w, sigma, ghat, options)
    if lim.diverged:
        raise ValidationError("trace.trace_bracket: the energy integral is infinite")
    e_val = lim.value
    c_v = envelope_constant(p, q)
    upper = e_val ** (1.0 / theta)
    lower = ((1.0 + q) ** ((1.0 + q) / (p - 1.0 - q)) * c_v ** (1.0 + q) * e_val) \
        ** (1.0 / theta)
    return TraceBracket(lower=lower, upper=upper, energy_value=e_val)


@dataclass(frozen=True)
class HatFunction:
    """max(0, 1 - |x - center|/halfwidth): the simplest zero-boundary tester."""

    center: float
    halfwidth: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(x) - self.center) / self.halfwidth)

    def grad_norm_p(self, p: float, w: Weight) -> float:
        return (w.ball_weight(self.center, self.halfwidth) / self.halfwidth ** p) ** (1.0 / p)


def _quotient_hat(p: float, w: Weight, q: float, hat: HatFunction, integral) -> float:
    num, div = integral(lambda pts: hat(pts.x) ** (1.0 + q))
    if div or num <= 0.0:
        return 0.0
    return num ** (1.0 / (1.0 + q)) / hat.grad_norm_p(p, w)


def _quotient_potential_power(p: float, w: Weight, sigma: RadonMeasure, q: float,
                              level: int, options: SolverOptions) -> float:
    """Test function (W sigma_k)^((p-1)/(p-1-q)) with analytic gradient norm."""
    res = solve_dirichlet(p, w, sigma.truncate(level), options)
    rho = (p - 1.0) / (p - 1.0 - q)
    # |(u^rho)'|^p = rho^p |u'|^p u^((rho - 1) p)
    den_p = rho ** p * _gradient_energy(res, (rho - 1.0) * p + 1.0)
    if den_p <= 0.0:
        return 0.0
    f = res.u.power_factor(rho * (1.0 + q))
    num, div = measure_integral(f.values, sigma, options,
                                exponents=(f.edge_exponent(-1), f.edge_exponent(1)))
    if div:
        return 0.0
    return num ** (1.0 / (1.0 + q)) / den_p ** (1.0 / p)


def _quotient_callable(p: float, w: Weight, sigma: RadonMeasure, q: float,
                       f, fprime, options: SolverOptions, joins=(),
                       kappa: tuple[float, float] = (1.0, 1.0)) -> float:
    """Rayleigh quotient of a user pair with f ~ dist^kappa at the endpoints
    (1 for a bounded f'), so that |f'|^p w ~ dist^(p (kappa - 1) + b)."""
    num, div = measure_integral(
        lambda pts: np.abs(np.asarray(f(pts.x))) ** (1.0 + q), sigma, options)
    if div:
        return 0.0
    S = graded_cumulative(
        lambda pts: np.abs(np.asarray(fprime(pts.x))) ** p * w.values(pts),
        points_from_x(np.asarray([-1.0, 1.0])), points_from_x(np.asarray(joins, dtype=float)),
        sing=tuple(p * (1.0 - k) - w.edge_exponent(side) for k, side in zip(kappa, (-1, 1))),
        y_resolved=False)
    den_p = float(S[1] - S[0])
    if den_p <= 0.0 or num <= 0.0:
        return 0.0
    return num ** (1.0 / (1.0 + q)) / den_p ** (1.0 / p)


def rayleigh_lower(p: float, w: Weight, sigma: RadonMeasure, q: float,
                   family: tuple = (), options: SolverOptions = DEFAULT_OPTIONS,
                   levels: tuple[int, ...] = (4, 8, 16, 24),
                   hat_scan: int = 12) -> dict:
    """Certified lower bound for C_T: the best Rayleigh quotient over the
    built-in family (powers of truncated potentials, width-optimized hats on
    atoms) plus any user-supplied (f, f') pairs."""
    if not (-1.0 < q < p - 1.0):
        raise ValidationError(f"trace.rayleigh_lower: need -1 < q < p - 1, got q={q}")
    if sigma.is_zero:
        raise ValidationError("trace.rayleigh_lower: sigma must be nonzero")
    candidates: list[tuple[str, float]] = []

    for level in levels:
        val = _quotient_potential_power(p, w, sigma, q, level, options)
        candidates.append((f"potential_power_k{level}", val))

    # one quadrature of sigma for all hats; a hat vanishes at least linearly at +-1
    hats = _integrator(sigma, options, None, (1.0 + q, 1.0 + q)) if sigma.atoms else None
    for (c, _m) in sigma.atoms:
        h_max = min(1.0 - c, 1.0 + c)
        hs = h_max * np.exp(np.linspace(np.log(0.02), 0.0, hat_scan))
        vals = [_quotient_hat(p, w, q, HatFunction(c, float(h)), hats) for h in hs]
        i_best = int(np.argmax(vals))
        lo = hs[max(0, i_best - 1)]
        hi = hs[min(len(hs) - 1, i_best + 1)]
        # golden-section refinement of the hat width
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = float(lo), float(hi)
        for _ in range(16):
            h1 = b - gr * (b - a)
            h2 = a + gr * (b - a)
            v1 = _quotient_hat(p, w, q, HatFunction(c, h1), hats)
            v2 = _quotient_hat(p, w, q, HatFunction(c, h2), hats)
            if v1 < v2:
                a = h1
            else:
                b = h2
        h_best = 0.5 * (a + b)
        candidates.append(
            (f"hat_at_{c:g}", _quotient_hat(p, w, q, HatFunction(c, h_best), hats))
        )

    for i, member in enumerate(family):
        if isinstance(member, GridFunction):
            # f'' jumps at every node of a grid function
            val = _quotient_callable(p, w, sigma, q, member, member.derivative, options,
                                     joins=member.x,
                                     kappa=(member._edge_kappa(-1), member._edge_kappa(1)))
        else:
            f, fprime = member
            val = _quotient_callable(p, w, sigma, q, f, fprime, options)
        candidates.append((f"user_{i}", val))

    if not candidates:
        raise ValidationError("trace.rayleigh_lower: empty test family")
    best_name, best_val = max(candidates, key=lambda kv: kv[1])
    if best_val <= 0.0:
        raise ValidationError("trace.rayleigh_lower: no admissible test function "
                              "produced a positive quotient")
    return {"value": best_val, "best_member": best_name,
            "candidates": candidates}
