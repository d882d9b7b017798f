"""Generalized energies of measures and their sharp-constant identities.

E_gamma(mu) = integral of (W mu)^gamma against mu, from one solve of the
extended potential u = W mu whatever the mass of mu.  Where mu ~ dist^(-a)
has infinite mass, u^gamma dmu ~ dist^(gamma kappa - a), kappa the declared
edge exponent of u: the energy is finite exactly when that power exceeds -1.
Every quadrature sum closes its tails at its own integrand's declared power,
on both sides whatever the mass: the energy at that of u^gamma dmu, the
gradient energy at that of |u'|^p u^(gamma-1) w dx and ``measure_integral``
at that of fn dmu.
On each solved measure the measure-side integral, the gradient energy
gamma * integral |u'|^p u^(gamma-1) w dx and the transformed-gradient energy
integral |v'|^p w dx with v = u^((p-1+gamma)/p) are tied together by the
integration-by-parts identity with the explicit constant c_E; the module
computes the first two by independent quadratures (measure side vs weighted
gradient side) and reports the relative identity gap.
The ``schedule`` keywords of the reports configured the truncation ladder
of earlier versions; they are accepted and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .measures import RadonMeasure
from .params import energy_constant
from .quadrature import close_tails, points_from_x
from .solver import (  # noqa: F401  (perfbench/tracing.py wraps energy.solve_dirichlet)
    DEFAULT_OPTIONS,
    PotentialResult,
    SolverOptions,
    measure_quadrature,
    potential,
    solve_dirichlet,
)
from .weights import Weight

INF = math.inf


@dataclass
class EnergyReport:
    e_gamma: float              # may be +inf
    grad_energy: float          # integral |u'|^p u^(gamma-1) w dx
    v_energy: float             # integral |v'|^p w dx, v = u^((p-1+gamma)/p)
    sandwich_pass: bool         # e_gamma <= v_energy <= c_E * e_gamma
    identity_gap: float         # relative deviation across the identity
    diverged: bool
    levels_used: int = 0        # no truncation ladder is walked
    solution: PotentialResult | None = None

    @property
    def ladder_converged(self) -> bool:
        return not self.diverged


class EnergyValue(NamedTuple):
    """``energy_ladder``'s energy (+inf once diverged) and the solve it
    integrates (None when the potential is infinite)."""

    value: float
    solution: PotentialResult | None
    diverged: bool


def _tail_powers(res: PotentialResult, gamma: float, mu: RadonMeasure,
                 least_a: float = -INF) -> list:
    """sigma per side with u^gamma dmu ~ dist^(-sigma): a - gamma kappa, mu ~
    dist^(-a) and u ~ dist^kappa, u the solve ``res``.  With ``least_a`` = 1
    it is the power of |u'|^p u^(gamma-1) w dx, whose flux tends to a
    constant where mu has finite mass."""
    return [max(mu.sing(side), least_a) - gamma * res.u._edge_kappa(side) for side in (-1, 1)]


def _level_energy(res: PotentialResult, mu: RadonMeasure, gamma: float) -> float:
    """integral of u^gamma dmu on the solve ``res`` of mu or of a multiple g
    mu: ``quad.u`` against mu's density at the solve's points, each tail
    closed at the power of u^gamma dmu, and the atoms at u there (the
    solve's read: the nodal u where g > 0); +inf when a tail power
    is 1 or more.  Not for another measure nu, whose breaks the solve's panels
    miss: ``mee_bound``'s u^1.5 dnu (mu = lebesgue(0.5) + dirac(0.3), p = 2.5)
    would err by 2.9e-5 for nu = power_measure(0.5).truncate(3) and 2.4e-4 for
    a jump at 0.37, against 2e-15 on nu's own quadrature (``measure_integral``)."""
    sigmas = _tail_powers(res, gamma, mu)
    if any(s >= 1.0 for s in sigmas):
        return INF
    quad = res.quad
    total = 0.0
    if not mu.density.is_zero:
        # not ==, which raises on a pushforward's grid function
        dens = quad.dens_vals if mu is res.measure else mu.density.values(quad.pts)
        with np.errstate(invalid="ignore"):
            vals = np.where(quad.u > 0.0, quad.u ** gamma, 0.0 if gamma > 0.0 else 1.0)
        total += float(np.dot(close_tails(quad.w_quad, quad.pts, sigmas), vals * dens))
    locs = mu.atom_locations
    if locs.size:
        u_at = res.u.values_at(points_from_x(locs))
        total += float(np.dot(mu.atom_masses, u_at ** gamma))
    return total


def energy_ladder(p: float, w: Weight, mu: RadonMeasure, gamma: float,
                  options: SolverOptions = DEFAULT_OPTIONS,
                  cap: float | None = None) -> EnergyValue:
    """E_gamma(mu) from one solve of the extended potential: +inf
    (diverged) when the potential is, when the tail power of u^gamma dmu is
    -1 or less, or past ``cap`` (default ``options.divergence_cap``)."""
    cap = options.divergence_cap if cap is None else cap
    res = potential(p, w, mu, options, cap=INF)
    if res.diverged:
        return EnergyValue(INF, None, True)
    value = _level_energy(res, mu, gamma)
    diverged = value > cap
    return EnergyValue(INF if diverged else value, res, diverged)


def _gradient_energy(res: PotentialResult, gamma: float) -> float:
    """integral |u'|^p u^(gamma-1) w dx from the flux representation, by the
    solve's own quadrature, each tail closed at the integrand's power.  On
    pure atoms with a constant weight it agrees with the closed form over
    the runs of one slope to rounding (at most 5.3e-16 relative)."""
    quad = res.quad
    p = res.p
    pp = p / (p - 1.0)
    e = 1.0 / (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.abs(quad.flux) ** pp * quad.w_vals ** (-e)
        factor = np.where(quad.u > 0.0, quad.u ** (gamma - 1.0), 0.0)
    sigmas = _tail_powers(res, gamma, res.measure, 1.0)
    return float(np.dot(close_tails(quad.w_quad, quad.pts, sigmas), integrand * factor))


def energy(p: float, w: Weight, mu: RadonMeasure, gamma: float,
           options: SolverOptions = DEFAULT_OPTIONS, schedule=None,
           tol: float = 1e-5) -> EnergyReport:
    """Full energy report with the identity and sandwich checks."""
    if not (0.0 < gamma < INF):
        raise ValidationError(f"energy.energy: need finite gamma > 0, got {gamma}")
    c_E = energy_constant(p, gamma)
    e_val, last_res, diverged = energy_ladder(p, w, mu, gamma, options)
    if diverged:
        return EnergyReport(
            e_gamma=INF, grad_energy=INF, v_energy=INF, sandwich_pass=False,
            identity_gap=0.0, diverged=True, solution=last_res,
        )
    grad = _gradient_energy(last_res, gamma)
    v_energy = c_E * gamma * grad
    scale = max(e_val, gamma * grad, 1e-300)
    gap = abs(e_val - gamma * grad) / scale
    sandwich = (e_val <= v_energy * (1.0 + tol)) and (v_energy <= c_E * e_val * (1.0 + tol))
    return EnergyReport(
        e_gamma=e_val, grad_energy=grad, v_energy=v_energy,
        sandwich_pass=bool(sandwich), identity_gap=gap, diverged=False,
        solution=last_res,
    )


def triple_norm(p: float, w: Weight, mu: RadonMeasure, gamma: float,
                options: SolverOptions = DEFAULT_OPTIONS, schedule=None) -> float:
    """|||mu|||_gamma = E_gamma(mu)^((p-1)/(p-1+gamma))."""
    if not (0.0 < gamma < INF):
        raise ValidationError("energy.triple_norm: need finite gamma > 0")
    lim = energy_ladder(p, w, mu, gamma, options)
    if lim.diverged:
        return INF
    return lim.value ** ((p - 1.0) / (p - 1.0 + gamma))


def sup_norm_energy(p: float, w: Weight, mu: RadonMeasure,
                    options: SolverOptions = DEFAULT_OPTIONS,
                    schedule=None, rel_tol: float = 1e-6) -> dict:
    """ess-sup of the potential over the support of mu, with the check that it
    agrees with the global sup (the weak-maximum-principle identity)."""
    res = potential(p, w, mu, options)
    if res.diverged:
        return {"value": INF, "sup_support": INF, "sup_global": INF,
                "gap": 0.0, "agree": True, "diverged": True}
    sup_global = res.u.sup()
    cands = []
    locs = mu.atom_locations
    if locs.size:  # atoms are nodes: the nodal u
        cands.append(float(np.max(res.u.values_at(points_from_x(locs)))))
    mask = res.quad.dens_vals > 0.0
    if np.any(mask):
        cands.append(float(np.max(res.quad.u[mask])))
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
                     cap: float | None = None,
                     exponents: tuple[float, float] = (0.0, 0.0)) -> tuple[float, bool]:
    """Integral of a nonnegative fn (vectorized over Points) against mu by one
    graded quadrature sum; returns (value, diverged).

    ``exponents`` declare fn ~ dist^kappa at each endpoint (0: bounded away
    from zero), and each tail is closed at the power kappa - a of fn dmu,
    mu ~ dist^(-a).  The value is +inf unless kappa - a > -1 on both sides;
    past ``cap`` (default ``options.divergence_cap``) too.
    """
    return _integrator(mu, options, cap, exponents)(fn)


def _integrator(mu: RadonMeasure, options: SolverOptions, cap: float | None, exponents: tuple):
    """``measure_integral`` against mu as a function of fn, on one quadrature of mu."""
    cap = options.divergence_cap if cap is None else cap
    if any(mu.sing(side) - kappa >= 1.0 for side, kappa in zip((-1, 1), exponents)):
        return lambda fn: (INF, True)
    pts, wq, dens = measure_quadrature(mu, options, exponents=exponents)
    atoms = points_from_x(mu.atom_locations)

    def integral(fn) -> tuple[float, bool]:
        total = float(np.dot(wq, np.asarray(fn(pts)) * dens))
        if atoms.x.size:
            total += float(np.dot(mu.atom_masses, np.asarray(fn(atoms))))
        return (INF, True) if total > cap else (total, False)
    return integral


def mee_bound(p: float, w: Weight, mu: RadonMeasure, nu: RadonMeasure,
              gamma: float, q: float, options: SolverOptions = DEFAULT_OPTIONS,
              schedule=None, tol: float = 1e-6) -> dict:
    """Cross-energy bound: integral (W mu)^(gamma+q) d nu against the
    sharp-constant product of E_gamma(mu) and the conjugate energy of nu."""
    if not (-gamma < q < p - 1.0):
        raise ValidationError("energy.mee_bound: need -gamma < q < p - 1")
    c_E = energy_constant(p, gamma)
    ghat = (gamma + q) * (p - 1.0) / (p - 1.0 - q)
    lim_mu = energy_ladder(p, w, mu, gamma, options)
    lim_nu = energy_ladder(p, w, nu, ghat, options)
    # W mu is the energy's solve, diverged past the cap as in ``potential``
    if lim_mu.diverged or lim_nu.diverged \
            or lim_mu.solution.u.sup() > options.divergence_cap:
        return {"lhs": INF, "rhs": INF, "pass": True, "margin": 0.0,
                "diverged": True}
    f = lim_mu.solution.u.power_factor(gamma + q)
    lhs, lhs_div = measure_integral(f.values, nu, options,
                                       exponents=(f.edge_exponent(-1), f.edge_exponent(1)))
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
    t_sum = triple_norm(p, w, mu.add(nu), gamma, options)
    t_mu = triple_norm(p, w, mu, gamma, options)
    t_nu = triple_norm(p, w, nu, gamma, options)
    rhs = c_E ** gamma * (t_mu + t_nu)
    if math.isinf(t_sum):
        ok = math.isinf(rhs)
    else:
        ok = t_sum <= rhs * (1.0 + tol)
    return {"lhs": t_sum, "rhs": rhs, "pass": bool(ok),
            "t_mu": t_mu, "t_nu": t_nu}
