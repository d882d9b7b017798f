"""Generalized energies of measures and their sharp-constant identities.

E_gamma(mu) = integral of (W mu)^gamma against mu.  For a measure of finite
mass it comes from one exact Dirichlet solve; for infinite mass it is the
monotone limit over the truncation ladder (each level is one exact solve),
run by the solver's single driver ``_monotone_limit``, which also runs
potentials and the measure integrals here.
On each solved measure the measure-side integral, the gradient energy
gamma * integral |u'|^p u^(gamma-1) w dx and the transformed-gradient energy
integral |v'|^p w dx with v = u^((p-1+gamma)/p) are tied together by the
integration-by-parts identity with the explicit constant c_E; the module
computes the first two by independent quadratures (measure side vs weighted
gradient side) and reports the relative identity gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import RadonMeasure
from .params import energy_constant
from .quadrature import points_from_x
from .solver import (
    DEFAULT_OPTIONS,
    PotentialResult,
    SolverOptions,
    _ladder_schedule,
    _Limit,
    _truncation_limit,
    measure_quadrature,
    solve_dirichlet,
)
from .weights import Weight

INF = math.inf


@dataclass
class EnergyReport:
    e_gamma: float              # may be +inf
    grad_energy: float          # integral |u'|^p u^(gamma-1) w dx (last solved level)
    v_energy: float             # integral |v'|^p w dx, v = u^((p-1+gamma)/p)
    sandwich_pass: bool         # e_gamma <= v_energy <= c_E * e_gamma
    identity_gap: float         # relative deviation across the identity
    diverged: bool
    levels_used: int
    ladder_converged: bool
    solution: PotentialResult | None = None


def _level_energy(res: PotentialResult, mu_k: RadonMeasure, gamma: float) -> float:
    """E_gamma of a solved finite level, from the solve's own quadrature."""
    quad = res.quad
    total = 0.0
    if quad is not None:
        with np.errstate(invalid="ignore"):
            vals = np.where(quad.u > 0.0, quad.u ** gamma, 0.0 if gamma > 0.0 else 1.0)
        total += float(np.dot(quad.w_quad, vals * quad.dens_vals))
    locs = mu_k.atom_locations
    if locs.size:
        u_at = res.u.values_at(points_from_x(locs))
        total += float(np.dot(mu_k.atom_masses, u_at ** gamma))
    return total


def energy_ladder(p: float, w: Weight, mu: RadonMeasure, gamma: float,
                  options: SolverOptions = DEFAULT_OPTIONS,
                  schedule=None, cap: float | None = None,
                  tol: float = 1e-9) -> _Limit:
    """E_gamma(mu) as a ``_Limit``: ``value`` (+inf once diverged), the
    ``payload`` solution of the last solved level, the per-level energies in
    ``values``, and ``levels``, ``converged`` and ``diverged``.

    A measure of finite mass is one solve (``levels`` 0); one of infinite
    mass walks the truncation ladder, which diverges when it exceeds the cap
    or its increments settle into geometric growth.  Energy ladders near a
    solvability threshold decelerate through ratio one over many levels
    before their asymptotic rate appears, so only growth (ratio 1.02 or
    more) counts as divergence.
    """
    def level(mu_k):
        res = solve_dirichlet(p, w, mu_k, options)
        return _level_energy(res, mu_k, gamma), res

    return _truncation_limit(mu, level, _ladder_schedule(options, schedule), tol,
                             options.divergence_cap if cap is None else cap,
                             growth=1.02, drop_slack=1e-9)


def _gradient_energy(res: PotentialResult, gamma: float) -> float:
    """integral |u'|^p u^(gamma-1) w dx from the flux representation.

    Pure atoms with a constant weight (the case ``_assemble`` solves in
    closed form) are integrated in closed form too: on each run of cells
    with one slope c, u is linear, so the integral there is
    w |c|^(p-1) |u_end^gamma - u_start^gamma| / gamma.
    """
    quad = res.quad
    if quad is None:
        return 0.0
    p = res.p
    w = res.weight
    if res.measure.density.is_zero and w.family == "constant":
        # cell i carries the flux just left of node i + 1
        slope = res.u_prime[1:]
        u = res.u.values
        starts = np.flatnonzero(np.concatenate([[True], slope[1:] != slope[:-1]]))
        ends = np.append(starts[1:], slope.size)
        runs = np.abs(slope[starts]) ** (p - 1.0) * np.abs(u[ends] ** gamma - u[starts] ** gamma)
        return float(w.value * np.sum(runs) / gamma)
    pp = p / (p - 1.0)
    e = 1.0 / (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.abs(quad.flux) ** pp * quad.w_vals ** (-e)
        factor = np.where(quad.u > 0.0, quad.u ** (gamma - 1.0), 0.0)
    return float(np.dot(quad.w_quad, integrand * factor))


def energy(p: float, w: Weight, mu: RadonMeasure, gamma: float,
           options: SolverOptions = DEFAULT_OPTIONS, schedule=None,
           tol: float = 1e-5) -> EnergyReport:
    """Full energy report with the identity and sandwich checks."""
    if not (0.0 < gamma < INF):
        raise ValidationError(f"energy.energy: need finite gamma > 0, got {gamma}")
    c_E = energy_constant(p, gamma)
    lim = energy_ladder(p, w, mu, gamma, options, schedule)
    e_val, last_res = lim.value, lim.payload
    if lim.diverged:
        return EnergyReport(
            e_gamma=INF, grad_energy=INF, v_energy=INF, sandwich_pass=False,
            identity_gap=0.0, diverged=True, levels_used=lim.levels,
            ladder_converged=lim.converged, solution=last_res,
        )
    grad = _gradient_energy(last_res, gamma)
    v_energy = c_E * gamma * grad
    # measure side of the identity on the same (deepest) level
    mu_k = last_res.measure
    e_level = _level_energy(last_res, mu_k, gamma)
    scale = max(e_level, gamma * grad, 1e-300)
    gap = abs(e_level - gamma * grad) / scale
    sandwich = (e_val <= v_energy * (1.0 + tol)) and (v_energy <= c_E * e_val * (1.0 + tol))
    return EnergyReport(
        e_gamma=e_val, grad_energy=grad, v_energy=v_energy,
        sandwich_pass=bool(sandwich), identity_gap=gap, diverged=False,
        levels_used=lim.levels, ladder_converged=lim.converged, solution=last_res,
    )


def triple_norm(p: float, w: Weight, mu: RadonMeasure, gamma: float,
                options: SolverOptions = DEFAULT_OPTIONS, schedule=None) -> float:
    """|||mu|||_gamma = E_gamma(mu)^((p-1)/(p-1+gamma))."""
    if not (0.0 < gamma < INF):
        raise ValidationError("energy.triple_norm: need finite gamma > 0")
    lim = energy_ladder(p, w, mu, gamma, options, schedule)
    if lim.diverged:
        return INF
    return lim.value ** ((p - 1.0) / (p - 1.0 + gamma))


def sup_norm_energy(p: float, w: Weight, mu: RadonMeasure,
                    options: SolverOptions = DEFAULT_OPTIONS,
                    schedule=None, rel_tol: float = 1e-6) -> dict:
    """ess-sup of the potential over the support of mu, with the check that it
    agrees with the global sup (the weak-maximum-principle identity)."""
    from .solver import potential

    res = potential(p, w, mu, options, schedule=schedule)
    if res.diverged:
        return {"value": INF, "sup_support": INF, "sup_global": INF,
                "gap": 0.0, "agree": True, "diverged": True}
    sup_global = res.u.sup()
    cands = []
    locs = mu.atom_locations
    if locs.size:
        cands.append(float(np.max(res.u.values_at(points_from_x(locs)))))
    quad = res.quad
    if quad is not None:
        mask = quad.dens_vals > 0.0
        if np.any(mask):
            cands.append(float(np.max(quad.u[mask])))
    sup_support = max(cands) if cands else 0.0
    gap = abs(sup_global - sup_support) / max(sup_global, 1e-300)
    return {
        "value": sup_support,
        "sup_support": sup_support,
        "sup_global": sup_global,
        "gap": gap,
        "agree": bool(gap <= rel_tol),
        "diverged": False,
    }


def measure_integral(fn, mu: RadonMeasure, options: SolverOptions = DEFAULT_OPTIONS,
                     schedule=None, cap: float | None = None,
                     tol: float = 1e-9) -> tuple[float, bool, bool]:
    """Integral of fn (vectorized over Points) against mu.

    One quadrature sum for a measure of finite mass; for infinite mass the
    same monotone ladder as the energies, without solves.  fn must be
    nonnegative, so the ladder is monotone.  Returns (value, converged,
    diverged).
    """
    def level(mu_k):
        pts, wq, dens = measure_quadrature(mu_k, options)
        total = float(np.dot(wq, np.asarray(fn(pts)) * dens))
        locs = mu_k.atom_locations
        if locs.size:
            total += float(np.dot(mu_k.atom_masses, np.asarray(fn(points_from_x(locs)))))
        return total, None

    lim = _truncation_limit(mu, level, _ladder_schedule(options, schedule), tol,
                            options.divergence_cap if cap is None else cap,
                            growth=1.02, drop_slack=1e-9)
    return lim.value, lim.converged, lim.diverged


def mee_bound(p: float, w: Weight, mu: RadonMeasure, nu: RadonMeasure,
              gamma: float, q: float, options: SolverOptions = DEFAULT_OPTIONS,
              schedule=None, tol: float = 1e-6) -> dict:
    """Cross-energy bound: integral (W mu)^(gamma+q) d nu against the
    sharp-constant product of E_gamma(mu) and the conjugate energy of nu."""
    from .solver import potential

    if not (-gamma < q < p - 1.0):
        raise ValidationError("energy.mee_bound: need -gamma < q < p - 1")
    c_E = energy_constant(p, gamma)
    ghat = (gamma + q) * (p - 1.0) / (p - 1.0 - q)
    if mu.is_zero:
        return {"lhs": 0.0, "rhs": 0.0, "pass": True, "margin": 0.0}
    lim_mu = energy_ladder(p, w, mu, gamma, options, schedule)
    lim_nu = energy_ladder(p, w, nu, ghat, options, schedule)
    res_mu = potential(p, w, mu, options, schedule=schedule)
    if res_mu.diverged or lim_mu.diverged or lim_nu.diverged:
        return {"lhs": INF, "rhs": INF, "pass": True, "margin": 0.0,
                "diverged": True}
    u_mu = res_mu.u
    lhs, _, lhs_div = measure_integral(
        lambda pts: u_mu.values_at(pts) ** (gamma + q), nu, options, schedule)
    e_mu, e_nu = lim_mu.value, lim_nu.value
    rhs = (c_E * e_mu) ** ((gamma + q) / (p - 1.0 + gamma)) \
        * e_nu ** ((p - 1.0 - q) / (p - 1.0 + gamma))
    ok = bool(lhs <= rhs * (1.0 + tol)) if not lhs_div else False
    margin = (rhs - lhs) / max(rhs, 1e-300) if np.isfinite(rhs) else 0.0
    return {"lhs": lhs, "rhs": rhs, "pass": ok, "margin": margin,
            "e_mu": e_mu, "e_nu": e_nu, "diverged": False}


def quasi_additivity_check(p: float, w: Weight, mu: RadonMeasure, nu: RadonMeasure,
                           gamma: float, options: SolverOptions = DEFAULT_OPTIONS,
                           schedule=None, tol: float = 1e-9) -> dict:
    """|||mu + nu||| <= c_E^gamma (|||mu||| + |||nu|||): the convex-cone bound."""
    c_E = energy_constant(p, gamma)
    t_sum = triple_norm(p, w, mu.add(nu), gamma, options, schedule)
    t_mu = triple_norm(p, w, mu, gamma, options, schedule)
    t_nu = triple_norm(p, w, nu, gamma, options, schedule)
    rhs = c_E ** gamma * (t_mu + t_nu)
    if math.isinf(t_sum):
        ok = math.isinf(rhs)
    else:
        ok = t_sum <= rhs * (1.0 + tol)
    return {"lhs": t_sum, "rhs": rhs, "pass": bool(ok),
            "t_mu": t_mu, "t_nu": t_nu}
