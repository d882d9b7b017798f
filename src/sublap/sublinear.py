"""Minimal positive solutions of -Delta_{p,w} u = sigma u^q by monotone iteration.

The iteration starts from the lower envelope c_V (W sigma)^((p-1)/(p-1-q))
and applies T(u) = W(u^q sigma); each step is one extended-potential
evaluation.  T is monotone and r-homogeneous, r = q/(p-1) < 1, so the plain
sequence u_{i+1} = T(u_i) from the envelope is nondecreasing and tends to the
minimal solution u_min, but its slowest error mode is u_min itself, which
decays only like r^i.  ``iterate`` removes that mode by scaling each step by
its subsolution certificate: with m = min T(u)/u > 1 over the grid nodes, the
next iterate is v = c T(u), c = m^(r/(1-r)).  Then v >= c m u >= u and

    T(v) = c^r T(T(u)) >= c^r T(m u) = c^r m^r T(u) = v,

so v is a subsolution.  It lies below u_min: v <= c T(u_min) = c u_min, and
with t the least factor such that v <= t u_min, v <= T(v) <= T(t u_min) =
t^r u_min forces t <= 1.  The scaled sequence therefore stays nondecreasing
and below u_min and converges to it (M. A. Krasnosel'skii, *Positive
Solutions of Operator Equations*, 1964, on u0-concave operators; A. C.
Thompson, Proc. AMS 14, 1963).  Custom starts (``start=``) take the plain
step.

The module also hosts the checks tied to the construction: the iterated
pointwise inequality, the equivalence-chain links with their explicit
constants, the finite-energy sandwich, the sup-norm criterion, and the
coefficient-singularity sweep against the closed-form solvability threshold.
The ``schedule`` keywords configured the truncation ladder of earlier
versions; they are accepted and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInvariantError, ValidationError
from .energy import (energy_ladder, measure_integral, sup_norm_energy, _gradient_energy,
                     _level_energy)
from .measures import PowerDensity, RadonMeasure, WindowedDensity, power_measure
from .params import energy_constant, envelope_constant, hardy_threshold
from .quadrature import gauss_rule, points_from_edge
from .solver import (
    DEFAULT_OPTIONS,
    GridFunction,
    PotentialResult,
    SolverOptions,
    _master_grid,
    potential,
)
from .weights import Weight, constant_weight, power_weight

INF = math.inf


@dataclass
class Envelope:
    u: GridFunction
    diverged: bool
    base: PotentialResult | None = None


@dataclass
class IterationTrace:
    """What ``iterate`` did.

    ``norms`` holds each iterate's L^(gamma+q)(sigma) norm.  ``scales`` holds
    one factor per step: the c that step's solve was multiplied by, 1.0
    where it was not scaled.  ``last_solution`` is the unscaled solve of the
    last step, so once a step is taken and its solve did not diverge,
    ``solution`` is ``scales[-1]`` times its u; ``finite_energy_check``
    integrates on that solve.
    """

    iterates: list
    norms: list
    monotone: bool
    converged: bool
    diverged: bool
    steps: int
    final_residual: float
    last_solution: PotentialResult | None = None
    scales: list = field(default_factory=list)

    @property
    def solution(self) -> GridFunction | None:
        return self.iterates[-1] if self.iterates else None


@dataclass
class CriterionReport:
    C1: float
    C2: float
    chain_pass: bool
    link_upper: bool   # C1 <= c_E^(1/(p-1-q)) C2
    link_lower: bool   # c_V C2 <= C1
    diverged: bool
    # the norm-inequality constant is bracketed through the chain, not
    # computed as an operator norm over all test functions
    C3_bracket: tuple[float, float] | None = None
    trace: IterationTrace | None = None


def _validate_sub_natural(p: float, q: float, sigma: RadonMeasure,
                          require_nonzero: bool = True) -> None:
    if not (0.0 < q < p - 1.0):
        raise ValidationError(
            f"sublinear: exponent window violated (p={p}, q={q})"
        )
    if require_nonzero and sigma.is_zero:
        raise ValidationError("sublinear: sigma must be a nonzero measure")


def lower_envelope(p: float, w: Weight, sigma: RadonMeasure, q: float,
                   options: SolverOptions = DEFAULT_OPTIONS,
                   schedule=None) -> Envelope:
    """c_V (W sigma)^((p-1)/(p-1-q)): every positive supersolution dominates it."""
    _validate_sub_natural(p, q, sigma, require_nonzero=False)
    res = potential(p, w, sigma, options)
    if res.diverged:
        return Envelope(u=res.u, diverged=True, base=res)
    rho = (p - 1.0) / (p - 1.0 - q)
    c_v = envelope_constant(p, q)
    return Envelope(u=res.u.scaled(c_v, rho), diverged=False, base=res)


def _norm(coef: float, integral: float, expo: float, cap: float) -> float:
    """The L^expo norm coef * integral^(1/expo) of coef u, +inf past ``cap``;
    neither cap^expo nor coef^expo (the envelope constant's) need be a float."""
    with np.errstate(over="ignore"):
        nrm = coef * float(np.float64(integral) ** (1.0 / expo))
    return nrm if nrm <= cap else INF


def iterate(p: float, w: Weight, sigma: RadonMeasure, q: float, gamma: float = 1.0,
            tol: float = 1e-8, max_steps: int = 200,
            options: SolverOptions = DEFAULT_OPTIONS,
            schedule=None, start: GridFunction | None = None,
            require_monotone: bool = True,
            keep_iterates: bool = True) -> IterationTrace:
    """Fixed-point iteration of T(u) = W(u^q sigma) from the lower envelope.

    From the envelope each step is scaled by its subsolution certificate:
    u_{i+1} = c T(u_i) with c = m^(r/(1-r)), r = q/(p-1), where m > 1 is the
    least ratio T(u_i)/u_i over the master-grid nodes with u_i > 0 (c = 1
    when m <= 1).  The iterates stay nondecreasing and below the minimal
    solution (see the module docstring) and lose the slowest error mode of
    the plain step.  A custom ``start`` takes the plain step u_{i+1} =
    T(u_i).

    Each iterate reads itself from the solve that made it (``values_at``),
    the envelope from the solve of sigma: each step pushes sigma forward by
    (c u)^q, (c_V u_sigma^rho)^q first, and each norm is integrated on that
    solve (``energy._level_energy``).  A custom ``start`` has no solve: the
    first step reads it by its PCHIP, and ``measure_integral`` integrates
    it.  The stopping test reads the nodal values at the nodes of sigma's
    master grid, which every step's grid holds.

    Stops when the sup-grid relative change drops below ``tol`` (then verifies
    the fixed-point residual with one extra application) or when the norms
    exceed the divergence cap, which signals failure of the existence
    criterion.  A non-monotone step from the envelope start is a bug and
    raises (unless ``require_monotone`` is False); steps from a custom
    ``start`` may legitimately be non-monotone and never raise, they only
    clear ``monotone``.  An envelope that underflows to zero everywhere (the
    envelope constant does once q is close to p - 1) raises ValidationError.
    """
    _validate_sub_natural(p, q, sigma)
    cap = options.divergence_cap
    expo = gamma + q
    r = q / (p - 1.0)

    env = lower_envelope(p, w, sigma, q, options)
    if env.diverged:
        return IterationTrace(iterates=[env.u], norms=[INF], monotone=True,
                              converged=False, diverged=True, steps=0,
                              final_residual=INF, last_solution=env.base)
    if start is None and not np.any(env.u.values > 0.0):
        raise ValidationError(
            f"sublinear.iterate: the lower envelope underflows to zero (p={p}, q={q})")
    # a subset of every step's grid: a flux zero's node stays 1e-13 from nodes
    master = _master_grid(sigma, options)
    iterates = [env.u if start is None else start]
    factor, cur_vals = iterates[0].power_factor(q), iterates[0].values_at(master)
    if start is None:  # c_V u^rho, u the solve of sigma
        rho = (p - 1.0) / (p - 1.0 - q)
        norms = [_norm(envelope_constant(p, q), _level_energy(env.base, sigma, rho * expo),
                       expo, cap)]
    else:
        f = start.power_factor(expo)
        norms = [_norm(1.0, measure_integral(f.values, sigma, options, cap=INF, exponents=(
            f.edge_exponent(-1), f.edge_exponent(1)))[0], expo, cap)]
    monotone = True
    converged = False
    diverged = not np.isfinite(norms[0])
    last_res: PotentialResult | None = env.base
    steps = 0
    residual = INF
    scales = []

    while not diverged and steps < max_steps:
        steps += 1
        res = potential(p, w, sigma.pushforward(factor), options)
        if res.diverged:
            diverged = True
            last_res = res
            scales.append(1.0)
            break
        u_next = res.u
        next_vals = u_next.values_at(master)
        drop = float(np.max(cur_vals - next_vals))
        slack = 1e-9 * (1.0 + float(np.max(next_vals)))
        if drop > slack:
            if require_monotone and start is None:
                raise InternalInvariantError(
                    f"sublinear.iterate: non-monotone step {steps} (drop {drop:.3e})"
                )
            monotone = False
        c = 1.0
        if start is None:
            pos = cur_vals > 0.0
            m = float(np.min(next_vals[pos] / cur_vals[pos])) if pos.any() else 1.0
            if m > 1.0:
                c = m ** (r / (1.0 - r))
                u_next = u_next.scaled(c, 1.0)
                next_vals = c * next_vals
        scales.append(c)
        factor = u_next.power_factor(q)
        nrm = _norm(c, _level_energy(res, sigma, expo), expo, cap)
        norms.append(nrm)
        if keep_iterates:
            iterates.append(u_next)
        else:
            iterates[-1:] = [u_next]
        last_res = res
        if not np.isfinite(nrm) or nrm > cap:
            diverged = True
            break
        scale = max(float(np.max(next_vals)), 1e-300)
        change = float(np.max(np.abs(next_vals - cur_vals))) / scale
        cur_vals = next_vals
        if change < tol:
            converged = True
            break

    if converged:
        res_f = potential(p, w, sigma.pushforward(factor), options)
        if res_f.diverged:
            residual = INF
        else:
            f_vals = res_f.u.values_at(master)
            residual = float(np.max(np.abs(f_vals - cur_vals))) \
                / max(float(np.max(cur_vals)), 1e-300)
    return IterationTrace(iterates=iterates, norms=norms, monotone=monotone,
                          converged=converged, diverged=diverged, steps=steps,
                          final_residual=residual, last_solution=last_res,
                          scales=scales)


def iterated_inequality_check(p: float, w: Weight, sigma: RadonMeasure, beta: float,
                              options: SolverOptions = DEFAULT_OPTIONS,
                              schedule=None, tol: float = 1e-8) -> dict:
    """(W sigma)^beta <= beta * W((W sigma)^((beta-1)(p-1)) sigma) at the nodes."""
    if not (beta >= 1.0):
        raise ValidationError("sublinear.iterated_inequality_check: need beta >= 1")
    res = potential(p, w, sigma, options)
    if res.diverged:
        return {"pass": True, "max_violation": 0.0, "diverged": True}
    u = res.u
    lhs = u.values ** beta
    factor = u.power_factor((beta - 1.0) * (p - 1.0))
    res2 = potential(p, w, sigma.pushforward(factor), options)
    if res2.diverged:
        return {"pass": True, "max_violation": 0.0, "diverged": True}
    rhs = beta * res2.u.values_at(u.grid)
    scale = max(float(np.max(lhs)), 1e-300)
    violation = float(np.max(lhs - rhs)) / scale
    return {"pass": bool(violation <= tol), "max_violation": violation,
            "diverged": False}


def verify_equivalence(p: float, w: Weight, sigma: RadonMeasure, q: float,
                       gamma: float = 1.0, options: SolverOptions = DEFAULT_OPTIONS,
                       schedule=None, tol: float = 1e-6,
                       max_steps: int = 200) -> CriterionReport:
    """The two computable links of the equivalence chain.

    C2 = (integral (W sigma)^((gamma+q)(p-1)/(p-1-q)) d sigma)^(1/(gamma+q));
    C1 = the achieved minimal-solution norm in L^(gamma+q)(sigma).  When C2 is
    infinite the iteration norms must blow past the cap instead.
    """
    _validate_sub_natural(p, q, sigma)
    ghat = (gamma + q) * (p - 1.0) / (p - 1.0 - q)
    lim = energy_ladder(p, w, sigma, ghat, options)
    if lim.diverged:
        trace = iterate(p, w, sigma, q, gamma, options=options,
                        max_steps=min(max_steps, 25), keep_iterates=False)
        return CriterionReport(C1=INF, C2=INF, chain_pass=bool(trace.diverged),
                               link_upper=trace.diverged, link_lower=trace.diverged,
                               diverged=True, trace=trace)
    C2 = lim.value ** (1.0 / (gamma + q))
    trace = iterate(p, w, sigma, q, gamma, options=options,
                    max_steps=max_steps, keep_iterates=False)
    C1 = trace.norms[-1]
    c_E = energy_constant(p, gamma)
    c_V = envelope_constant(p, q)
    upper = C1 <= c_E ** (1.0 / (p - 1.0 - q)) * C2 * (1.0 + tol)
    lower = c_V * C2 <= C1 * (1.0 + tol)
    e_link = (p - 1.0 - q) / (p - 1.0)
    c3 = (C1 ** e_link, c_E ** (1.0 / (p - 1.0)) * C2 ** e_link)
    return CriterionReport(C1=C1, C2=C2, chain_pass=bool(upper and lower),
                           link_upper=bool(upper), link_lower=bool(lower),
                           diverged=False, C3_bracket=c3, trace=trace)


def finite_energy_check(p: float, w: Weight, sigma: RadonMeasure, q: float,
                        options: SolverOptions = DEFAULT_OPTIONS, schedule=None,
                        tol: float = 1e-5, max_steps: int = 200) -> dict:
    """Finite-energy sandwich and the weak-form identity for gamma = 1.

    E = integral (W sigma)^((1+q)(p-1)/(p-1-q)) d sigma must be finite; then
    c_V^(1+q) E <= |u'|_p^p <= E and |u'|_p^p = integral u^(1+q) d sigma.
    """
    _validate_sub_natural(p, q, sigma)
    ghat = (1.0 + q) * (p - 1.0) / (p - 1.0 - q)
    lim = energy_ladder(p, w, sigma, ghat, options)
    if lim.diverged:
        raise ValidationError(
            "sublinear.finite_energy_check: the energy criterion is infinite"
        )
    e_val = lim.value
    trace = iterate(p, w, sigma, q, gamma=1.0, options=options,
                    max_steps=max_steps, keep_iterates=False)
    if not trace.converged:
        return {"pass": False, "converged": False}
    # the solution is scales[-1] times the last solve, and |(c u)'|^p = c^p |u'|^p
    c = trace.scales[-1]
    grad_p = c ** p * _gradient_energy(trace.last_solution, 1.0)
    rhs_int = c ** (1.0 + q) * _level_energy(trace.last_solution, sigma, 1.0 + q)
    c_V = envelope_constant(p, q)
    lower_ok = c_V ** (1.0 + q) * e_val <= grad_p * (1.0 + tol)
    upper_ok = grad_p <= e_val * (1.0 + tol)
    ident_gap = abs(grad_p - rhs_int) / max(grad_p, 1e-300)
    return {
        "pass": bool(lower_ok and upper_ok and ident_gap <= tol),
        "converged": True,
        "energy": e_val,
        "grad_norm_p": grad_p,
        "weak_form_integral": rhs_int,
        "identity_gap": ident_gap,
        "sandwich_lower": bool(lower_ok),
        "sandwich_upper": bool(upper_ok),
    }


def _supersolution_profile(p: float, beta: float, q: float, alpha: float) -> tuple[float, float]:
    """(C, A) with V = C (1 - |x|)^A an explicit bounded supersolution for the
    power-coefficient problem in the window alpha < p - beta."""
    window = 1.0 - beta / (p - 1.0)
    A = min((p - alpha - beta) / (p - 1.0 - q), 0.98 * window)
    if not (A > 0.0):
        raise ValidationError("sublinear: no admissible supersolution exponent")
    m = (A - 1.0) * (p - 1.0) + beta
    c_coef = -A ** (p - 1.0) * m
    C = max(1.0, c_coef ** (-1.0 / (p - 1.0 - q)))
    return C, A


def _power_alpha(sigma: RadonMeasure) -> float | None:
    dens = sigma.density
    if isinstance(dens, WindowedDensity):
        dens = dens.base
    if isinstance(dens, PowerDensity):
        return dens.alpha
    return None


def bounded_solution_check(p: float, w: Weight, sigma: RadonMeasure, q: float,
                           options: SolverOptions = DEFAULT_OPTIONS, schedule=None,
                           tol: float = 1e-6, max_steps: int = 200,
                           boundary_tol: float = 1e-4) -> dict:
    """Sup-norm criterion: C2_inf = |W sigma|_{L^inf(sigma)}^((p-1)/(p-1-q))
    bounds the minimal solution's sup; for a power coefficient inside the
    bounded-solution window the explicit supersolution C (1-|x|)^A dominates
    the solution and forces boundary decay."""
    _validate_sub_natural(p, q, sigma)
    sup_rep = sup_norm_energy(p, w, sigma, options)
    if sup_rep["diverged"] or not np.isfinite(sup_rep["value"]):
        return {"pass": True, "finite": False, "C2_inf": INF}
    C2_inf = sup_rep["value"] ** ((p - 1.0) / (p - 1.0 - q))
    trace = iterate(p, w, sigma, q, gamma=1.0, options=options,
                    max_steps=max_steps, keep_iterates=False)
    if not trace.converged:
        return {"pass": False, "finite": True, "converged": False, "C2_inf": C2_inf}
    u = trace.solution
    sup_u = u.sup()
    sup_ok = sup_u <= C2_inf * (1.0 + tol)
    out = {
        "pass": bool(sup_ok),
        "finite": True,
        "converged": True,
        "C2_inf": C2_inf,
        "sup_u": sup_u,
        "sup_bound_pass": bool(sup_ok),
    }
    alpha = _power_alpha(sigma)
    beta = w.beta if w.family == "power" else (0.0 if w.family == "constant" else None)
    if alpha is not None and beta is not None and alpha < p - beta:
        C, A = _supersolution_profile(p, beta, q, alpha)
        V = C * (1.0 - np.abs(u.x)) ** A
        dom_violation = float(np.max(u.values - V)) / max(sup_u, 1e-300)
        boundary_vals = max(u.values[1], u.values[-2])
        out.update({
            "supersolution_C": C,
            "supersolution_A": A,
            "dominated": bool(dom_violation <= tol),
            "dominance_violation": dom_violation,
            "boundary_decay": bool(boundary_vals <= boundary_tol),
            "outermost_values": float(boundary_vals),
        })
        out["pass"] = bool(out["pass"] and out["dominated"] and out["boundary_decay"])
    return out


def hardy_sweep(p: float, beta: float, q: float, alpha_grid,
                options: SolverOptions = DEFAULT_OPTIONS, schedule=None,
                dead_band: float = 0.05, cap: float | None = None) -> list[dict]:
    """Finite-energy solvability classification along a coefficient-singularity grid.

    For each alpha the energy at the sandwich exponent comes from one solve.
    The classification does not read its declared endpoint power: it is the
    trend of the energy in the dyadic shells next to the endpoints
    (``_shell_energies``), solvable when they shrink, not when they grow.
    Shells of ratio about one, only seen within the +-dead_band around the
    closed-form threshold, defer to the energy's finiteness.
    """
    if not (-1.0 < beta < p - 1.0):
        raise ValidationError("sublinear.hardy_sweep: beta outside (-1, p - 1)")
    alpha_star = hardy_threshold(p, q, beta)
    w = power_weight(beta) if beta != 0.0 else constant_weight()
    ghat = (1.0 + q) * (p - 1.0) / (p - 1.0 - q)
    rows = []
    for alpha in alpha_grid:
        if not (alpha < p - beta):
            raise ValidationError(
                f"sublinear.hardy_sweep: alpha={alpha} outside the bounded window"
            )
        sigma = power_measure(alpha)
        lim = energy_ladder(p, w, sigma, ghat, options, cap=cap)
        classification = "not_solvable" if lim.solution is None \
            else _trend_classification(_shell_energies(lim.solution, ghat))
        if classification == "inconclusive":
            # shells within 3 % of ratio one: alpha sits at the threshold,
            # where the energy is finite or logarithmically infinite
            classification = "not_solvable" if lim.diverged else "solvable"
        in_band = abs(alpha - alpha_star) <= dead_band * (1.0 + 1e-9) + 1e-12
        expected = "solvable" if alpha < alpha_star else "not_solvable"
        agree = (classification == expected) or in_band
        rows.append({
            "alpha": float(alpha),
            "alpha_star": alpha_star,
            "energy": lim.value,
            "classification": classification,
            "expected": expected,
            "in_dead_band": bool(in_band),
            "agree": bool(agree),
            "levels": 0,
        })
    return rows


def _shell_energies(res: PotentialResult, gamma: float,
                    levels: range = range(30, 36)) -> np.ndarray:
    """Energy of the solved density in the shells 2^-(k+1) <= dist <= 2^-k,
    k in ``levels``, i.e. the increments of the energy with its tail cut at
    2^-k: one Gauss panel each over u read from the solve (``values_at``)
    above the grid's innermost node, so no declared edge exponent enters.
    They shrink by about 2^(sigma - 1) per shell when u^gamma dmu ~ dist^(-sigma)."""
    t, tw = gauss_rule(12)
    lo = 2.0 ** -(np.asarray(levels, dtype=float) + 1.0)
    ys = lo[:, None] * (1.0 + t[None, :])
    shells = np.zeros(lo.size)
    for side in (-1, 1):
        pts = points_from_edge(side, ys.ravel())
        vals = res.u.values_at(pts) ** gamma * res.measure.density.values(pts)
        shells += lo * (vals.reshape(ys.shape) @ tw)
    return shells


def _trend_classification(increments: np.ndarray) -> str:
    """Classify increments by the geometric mean ratio of the last six
    positive ones: decaying is solvable, growing is not."""
    if len(increments) < 5:
        return "inconclusive"
    pos = increments[-6:][increments[-6:] > 0.0]
    if pos.size < 3:
        return "solvable"
    r = float(np.exp(np.mean(np.log(pos[1:] / pos[:-1]))))
    if r <= 0.97:
        return "solvable"
    if r >= 1.03:
        return "not_solvable"
    return "inconclusive"
