"""Exact Dirichlet solver for -(w |u'|^(p-2) u')' = mu on (-1, 1), u(+-1) = 0.

Integrating the equation once gives the flux relation

    w(x) |u'(x)|^(p-2) u'(x) = c - mu([-1, x]),

so u' = sign(flux) * (|flux| / w)^(1/(p-1)) and the flux constant is pinned by
the second boundary condition through the strictly increasing map
c -> integral of u'.  Everything is anchored at the center: the solver root
finds on ctilde = flux just right of 0 and the cumulative S(x) = mu((0, x]),
which keeps interior fluxes fully accurate even when a deeply truncated
measure carries astronomically large one-sided mass.

The extended potential of a measure of infinite mass is the monotone limit
of these solves along the truncation ladder F_k = [-1 + 2^-k, 1 - 2^-k]; a
measure of finite mass is solved once, exactly.  ``_truncation_limit`` makes
that choice for every limit in the package (potentials here, energies and
measure integrals in ``energy``), and one driver, ``_monotone_limit``, walks
every ladder and holds the only convergence, stagnation and monotonicity
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ConvergenceError, InternalInvariantError, ValidationError
from .measures import RadonMeasure
from .quadrature import (
    PanelSet,
    Points,
    bracketed_root,
    build_panels,
    gauss_rule,
    graded_grid,
    points_from_x,
)
from .weights import Weight

INF = math.inf


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs of the 1D solver (defaults match the package contract)."""

    n_nodes: int = 512
    grading_ratio: float = 0.85
    y_floor: float = 1e-13
    n_gauss: int = 12
    cum_gauss: int = 10
    bracket_tol: float = 1e-12
    max_root_iter: int = 200
    divergence_cap: float = 1e12
    trunc_tol: float = 1e-9
    max_trunc_level: int = 40


DEFAULT_OPTIONS = SolverOptions()


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Sampled function on a graded grid with a monotone piecewise-cubic
    interpolation contract (PCHIP between nodes).

    ``left_exponent`` / ``right_exponent`` declare the boundary power profile
    u ~ C * dist^kappa, used to extend evaluation below the innermost node and
    to propagate boundary behavior into pushforward densities.
    """

    grid: Points
    values: np.ndarray
    left_exponent: float | None = None
    right_exponent: float | None = None
    _interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.grid.x.size != self.values.size:
            raise ValidationError("solver.GridFunction: grid/value size mismatch")
        if self.grid.x.size and not (np.all(np.diff(self.grid.x) > 0.0)):
            raise ValidationError("solver.GridFunction: grid must be strictly increasing")

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def sup(self) -> float:
        return float(np.max(self.values))

    def _interpolator(self):
        if self._interp is None:
            self._interp = PchipInterpolator(self.grid.x, self.values, extrapolate=False)
        return self._interp

    def _edge_kappa(self, side: int) -> float:
        declared = self.left_exponent if side < 0 else self.right_exponent
        if declared is not None:
            return declared
        # fall back on a fit through the two innermost nodes
        if side < 0:
            y0, y1 = self.grid.y[1], self.grid.y[2]
            v0, v1 = self.values[1], self.values[2]
        else:
            y0, y1 = self.grid.y[-2], self.grid.y[-3]
            v0, v1 = self.values[-2], self.values[-3]
        if v0 <= 0.0 or v1 <= 0.0 or y1 <= y0:
            return 0.0
        return float(np.log(v1 / v0) / np.log(y1 / y0))

    def values_at(self, pts: Points) -> np.ndarray:
        if not self.finite:
            raise ValidationError("solver.GridFunction: cannot interpolate non-finite values")
        out = np.empty(len(pts))
        y_min_left = self.grid.y[1]
        y_min_right = self.grid.y[-2]
        deep_left = (pts.side < 0) & (pts.y < y_min_left)
        deep_right = (pts.side > 0) & (pts.y < y_min_right)
        plain = ~(deep_left | deep_right)
        if np.any(plain):
            vals = self._interpolator()(pts.x[plain])
            out[plain] = np.nan_to_num(vals, nan=0.0)
        if np.any(deep_left):
            kappa = self._edge_kappa(-1)
            base = max(self.values[1], 0.0)
            out[deep_left] = base * (pts.y[deep_left] / y_min_left) ** kappa
        if np.any(deep_right):
            kappa = self._edge_kappa(1)
            base = max(self.values[-2], 0.0)
            out[deep_right] = base * (pts.y[deep_right] / y_min_right) ** kappa
        return out

    def __call__(self, x) -> np.ndarray:
        return self.values_at(points_from_x(np.atleast_1d(np.asarray(x, dtype=float))))

    def power_factor(self, q: float) -> "GridPowerFactor":
        return GridPowerFactor(self, q)


@dataclass(frozen=True)
class GridPowerFactor:
    """u^q as a pushforward factor (boundary exponent q * kappa)."""

    gridfn: GridFunction
    q: float

    def values(self, pts: Points) -> np.ndarray:
        return self.gridfn.values_at(pts) ** self.q

    def edge_exponent(self, side: int) -> float:
        return self.q * self.gridfn._edge_kappa(side)


def zero_grid_function(grid: Points) -> GridFunction:
    return GridFunction(grid=grid, values=np.zeros(grid.x.size),
                        left_exponent=1.0, right_exponent=1.0)


# ---------------------------------------------------------------------------
# solution container
# ---------------------------------------------------------------------------

@dataclass
class SolutionQuad:
    """Quadrature view of a solve: panel points with weights, weight values,
    flux, u' and interpolated u, ready for energy integrals."""

    pts: Points
    w_quad: np.ndarray
    w_vals: np.ndarray
    flux: np.ndarray
    uprime: np.ndarray
    u: np.ndarray
    dens_vals: np.ndarray  # density of the solved measure at the points


@dataclass
class PotentialResult:
    u: GridFunction
    flux_constant: float      # classical c in w|u'|^(p-2)u' = c - mu([-1, x])
    flux_anchor: float        # flux just right of the center anchor
    boundary_residual: float
    truncation_levels_used: int
    diverged: bool
    ladder_converged: bool = True
    truncation_last_level: int = 0
    root_iterations: int = 0
    u_prime: np.ndarray | None = None
    flux_nodes: np.ndarray | None = None
    quad: SolutionQuad | None = None
    p: float = 2.0
    weight: Weight | None = None
    measure: RadonMeasure | None = None


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------

def _master_grid(mu: RadonMeasure, opts: SolverOptions,
                 extra_nodes: tuple[float, ...] = ()) -> Points:
    mandatory = tuple(mu.atom_locations.tolist()) + tuple(extra_nodes)
    mandatory += tuple(b for b in mu.interior_breaks() if -1.0 < b < 1.0)
    # representable truncation / regime edges become grid nodes
    for side in (-1, 1):
        for yb in mu.breakpoints_y(side):
            if yb >= opts.y_floor:
                mandatory += (-1.0 + yb,) if side < 0 else (1.0 - yb,)
    return graded_grid(opts.n_nodes, opts.grading_ratio, opts.y_floor, mandatory)


_PANEL_CACHE: dict = {}


def _structure_key(mu: RadonMeasure, opts: SolverOptions,
                   extra_nodes: tuple, ladder_nodes: tuple,
                   y_cut_l: float, y_cut_r: float,
                   deep_l: tuple, deep_r: tuple):
    try:
        return (
            opts, extra_nodes, ladder_nodes,
            tuple(mu.atom_locations.tolist()),
            tuple(sorted(mu.interior_breaks())),
            deep_l, deep_r,
            float(np.round(np.log10(y_cut_l), 0)),
            float(np.round(np.log10(y_cut_r), 0)),
        )
    except TypeError:
        return None


def _panel_structure(mu: RadonMeasure, opts: SolverOptions,
                     extra_nodes: tuple, ladder_nodes: tuple,
                     y_cut_l: float, y_cut_r: float,
                     tail_s: tuple[float, float] = (0.0, 0.0)) -> tuple[Points, PanelSet]:
    deep = {-1: [], 1: []}
    for side in (-1, 1):
        for yb in mu.breakpoints_y(side):
            if yb < opts.y_floor:
                deep[side].append(float(yb))
    deep_l = tuple(sorted(deep[-1]))
    deep_r = tuple(sorted(deep[1]))
    if deep_l:
        y_cut_l = min(y_cut_l, deep_l[0] / 16.0)
    if deep_r:
        y_cut_r = min(y_cut_r, deep_r[0] / 16.0)
    # bucket the ladder depth so nearby mass scales share one structure
    y_cut_l = 10.0 ** np.floor(np.log10(max(y_cut_l, 1e-280)))
    y_cut_r = 10.0 ** np.floor(np.log10(max(y_cut_r, 1e-280)))
    key = _structure_key(mu, opts, extra_nodes, ladder_nodes,
                         y_cut_l, y_cut_r, deep_l + tail_s, deep_r + tail_s)
    # one lookup: a concurrent clear() between a membership test and the
    # read would raise KeyError
    cached = None if key is None else _PANEL_CACHE.get(key)
    if cached is not None:
        return cached
    grid = _master_grid(mu, opts, extra_nodes)
    panels = build_panels(
        grid,
        n_gauss=opts.n_gauss,
        y_cut_left=y_cut_l,
        y_cut_right=y_cut_r,
        edge_breaks_left=np.asarray(deep_l),
        edge_breaks_right=np.asarray(deep_r),
        ladder_nodes=ladder_nodes,
        tail_s_left=tail_s[0],
        tail_s_right=tail_s[1],
    )
    if key is not None:
        if len(_PANEL_CACHE) > 128:
            _PANEL_CACHE.clear()
        _PANEL_CACHE[key] = (grid, panels)
    return grid, panels


class _Workspace:
    """Panelized quadrature state for one Dirichlet solve."""

    def __init__(self, p: float, w: Weight, mu: RadonMeasure, opts: SolverOptions,
                 extra_nodes: tuple[float, ...] = (),
                 ladder_nodes: tuple[float, ...] = ()):
        self.p = p
        self.w = w
        self.mu = mu
        self.opts = opts
        self.exponent = 1.0 / (p - 1.0)

        # mass scale entering the bracket; sets how deep endpoint ladders go
        m_left = mu.side_mass(-1)
        m_right = mu.side_mass(1)
        if math.isinf(m_left) or math.isinf(m_right):
            raise ValidationError("solver.solve_dirichlet: measure must have finite total mass")
        self.bracket = (-m_left, m_right)
        flux_scale = max(m_left, m_right, 1e-300)
        self.flux_scale = flux_scale

        y_cuts = {}
        x_evaluated = (w.family == "custom") or not mu.density.y_resolved
        for side in (-1, 1):
            s = min(w.conjugate_singularity(p, side), 0.995)
            target = 1e-16 / (1.0 + flux_scale ** self.exponent)
            y_cuts[side] = max((target * (1.0 - s)) ** (1.0 / (1.0 - s)), 1e-280)
            if x_evaluated:
                # x-based evaluators cannot resolve deeper distances; the
                # pseudo tail panel closes the remainder analytically
                y_cuts[side] = max(y_cuts[side], 1e-12)

        self.grid, self.panels = _panel_structure(
            mu, opts, tuple(extra_nodes), tuple(ladder_nodes),
            y_cuts[-1], y_cuts[1],
            tail_s=(w.conjugate_singularity(p, -1), w.conjugate_singularity(p, 1)))
        pts = self.panels.pts
        self.w_vals = w.values(pts)
        self.w_fac = self.w_vals ** (-self.exponent)
        self.S = mu.cum_center_many(pts, n_gauss=opts.cum_gauss)

    # -- flux machinery ------------------------------------------------------

    def G(self, ctilde: float) -> float:
        flux = ctilde - self.S
        phi = np.sign(flux) * np.abs(flux) ** self.exponent * self.w_fac
        return float(np.dot(self.panels.w, phi))

    def solve_constant(self) -> tuple[float, float, int]:
        lo, hi = self.bracket
        xtol = self.opts.bracket_tol
        try:
            c, g, iters = bracketed_root(self.G, lo, hi, xtol=xtol,
                                         max_iter=self.opts.max_root_iter)
        except ValueError as exc:
            # the bracket is valid whenever S is a genuine cumulative; a
            # failure here points at an inconsistent cdf
            raise ConvergenceError(f"solver.solve_dirichlet: {exc}") from exc
        return c, g, iters

    def kink_location(self, ctilde: float) -> float | None:
        """Interior location where the flux crosses zero, or None when the
        crossing happens across an atom/node or out in an endpoint ladder."""
        order = np.lexsort((-self.panels.pts.side * self.panels.pts.y, self.panels.pts.x))
        S_sorted = self.S[order]
        xs = self.panels.pts.x[order]
        idx = int(np.searchsorted(S_sorted, ctilde))
        if idx <= 0 or idx >= xs.size:
            return None
        a, b = float(xs[idx - 1]), float(xs[idx])
        if b - a <= 1e-14:
            return None
        # a node inside the gap means the crossing sits at that node (panels
        # end at nodes, atoms are nodes): no refinement needed there
        if np.any((self.grid.x > a) & (self.grid.x < b)):
            return None
        if abs(a) > 0.999 or abs(b) > 0.999:
            return None  # inside an endpoint ladder: contribution negligible

        closed_probe = self.mu.density_cum_center_closed(points_from_x(np.asarray([a])))
        t, tw = gauss_rule(self.opts.cum_gauss)
        s_a = float(S_sorted[idx - 1])

        def excess(x: float) -> float:
            # S(x) - ctilde, using the gap-local increment for generic densities
            if closed_probe is not None:
                pts = points_from_x(np.asarray([x]))
                dens = float(self.mu.density_cum_center_closed(pts)[0])
                return dens + float(self.mu.atom_cum_center(np.asarray([x]))[0]) - ctilde
            seg = a + t * (x - a)
            v = self.mu.density.values(points_from_x(seg))
            return s_a + (x - a) * float(tw @ v) - ctilde

        fa, fb = excess(a), excess(b)
        if not (fa <= 0.0 <= fb):
            return None
        lo, hi = a, b
        for _ in range(80):
            if hi - lo < 1e-15:
                break
            m = 0.5 * (lo + hi)
            if excess(m) < 0.0:
                lo = m
            else:
                hi = m
        x_star = 0.5 * (lo + hi)
        if np.min(np.abs(self.grid.x - x_star)) < 1e-13:
            return None
        return x_star


# ---------------------------------------------------------------------------
# the public solves
# ---------------------------------------------------------------------------

def solve_dirichlet(p: float, w: Weight, mu: RadonMeasure,
                    options: SolverOptions = DEFAULT_OPTIONS,
                    extra_nodes: tuple[float, ...] = ()) -> PotentialResult:
    """Potential of a finite measure: the exact 1D realization of the
    zero-boundary solution operator."""
    if not (1.0 < p < INF):
        raise ValidationError(f"solver.solve_dirichlet: need 1 < p < inf, got {p}")
    w.validate_window(p)
    if not w.conjugate_integrable(p):
        raise ValidationError(
            "solver.solve_dirichlet: w^(-1/(p-1)) is not integrable; flux inversion undefined"
        )
    if mu.is_zero:
        grid = _master_grid(mu, options, extra_nodes)
        n = grid.x.size
        return PotentialResult(
            u=zero_grid_function(grid), flux_constant=0.0, flux_anchor=0.0,
            boundary_residual=0.0, truncation_levels_used=0, diverged=False,
            u_prime=np.zeros(n), flux_nodes=np.zeros(n),
            quad=None, p=p, weight=w, measure=mu,
        )

    ws = _Workspace(p, w, mu, options, extra_nodes=extra_nodes)
    c_a, _, it_a = ws.solve_constant()
    x_star = ws.kink_location(c_a)
    iters = it_a
    if x_star is not None:
        ws = _Workspace(p, w, mu, options,
                        extra_nodes=extra_nodes + (x_star,),
                        ladder_nodes=(x_star,))
        c, _, it_b = ws.solve_constant()
        iters += it_b
    else:
        c = c_a

    return _assemble(ws, c, iters)


def _assemble(ws: _Workspace, ctilde: float, iters: int) -> PotentialResult:
    """Nodal u, u' and flux of a solved workspace, plus its quadrature view.

    Pure-atom measures with a constant weight have a flux that is constant
    between atoms, so u is piecewise linear: each half is integrated in
    closed form from its endpoint toward the centre node
    (``_piecewise_linear_half``) and ``boundary_residual`` is the mismatch of
    the two halves at the centre.  Every other solve sums the per-cell
    quadrature of u' from -1 to the right and ``boundary_residual`` is the
    mismatch at x = 1.
    """
    p, w, mu, opts = ws.p, ws.w, ws.mu, ws.opts
    e = ws.exponent
    flux = ctilde - ws.S
    phi = np.sign(flux) * np.abs(flux) ** e * ws.w_fac

    # nodal flux with the left-continuous convention: the flux at a node
    # excludes the atom sitting exactly there (it jumps down across it)
    nodes = ws.grid
    closed = mu.density_cum_center_many(nodes, n_gauss=opts.cum_gauss)
    locs = mu.atom_locations
    if locs.size:
        masses = mu.atom_masses
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        upto0 = cum[np.searchsorted(locs, 0.0, side="right")]
        atom_cum_left = cum[np.searchsorted(locs, nodes.x, side="left")] - upto0
        atom_cum_right = cum[np.searchsorted(locs, nodes.x, side="right")] - upto0
    else:
        atom_cum_left = np.zeros(nodes.x.size)
        atom_cum_right = atom_cum_left
    flux_nodes = ctilde - (closed + atom_cum_left)
    flux_nodes_right = ctilde - (closed + atom_cum_right)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_nodes = w.values(nodes)
        uprime_nodes = np.sign(flux_nodes) * np.abs(flux_nodes) ** e * w_nodes ** (-e)
        uprime_right = np.sign(flux_nodes_right) * np.abs(flux_nodes_right) ** e \
            * w_nodes ** (-e)

    if mu.density.is_zero and w.family == "constant":
        # cell i carries the flux just right of node i
        slope = uprime_right[:-1]
        mid = int(np.searchsorted(nodes.x, 0.0))  # x = 0 is always a node
        u_left = _piecewise_linear_half(nodes.y[:mid + 1], slope[:mid])
        u_right = _piecewise_linear_half(nodes.y[mid:][::-1], -slope[mid:][::-1])
        residual = abs(float(u_left[-1] - u_right[-1]))
        u_nodes = np.concatenate([u_left[:-1], [0.5 * (u_left[-1] + u_right[-1])],
                                  u_right[-2::-1]])
    else:
        contrib = ws.panels.w * phi
        panel_int = np.bincount(ws.panels.panel_id, weights=contrib,
                                minlength=ws.panels.panel_cell.size)
        cell_int = np.bincount(ws.panels.panel_cell, weights=panel_int,
                               minlength=ws.panels.n_cells)
        u_nodes = np.concatenate([[0.0], np.cumsum(cell_int)])
        residual = abs(float(u_nodes[-1]))
        u_nodes[-1] = 0.0
    u_nodes = np.maximum(u_nodes, 0.0)

    # boundary exponents: finite measures have flux -> const != 0, so
    # u ~ dist^(1 - s) with s the conjugate weight singularity
    kappa_l = 1.0 - w.conjugate_singularity(p, -1)
    kappa_r = 1.0 - w.conjugate_singularity(p, 1)
    u = GridFunction(grid=nodes, values=u_nodes,
                     left_exponent=kappa_l, right_exponent=kappa_r)

    u_at_pts = _hermite_at_points(nodes, u_nodes, uprime_right, uprime_nodes,
                                  kappa_l, kappa_r, ws.panels)
    quad = SolutionQuad(
        pts=ws.panels.pts, w_quad=ws.panels.w, w_vals=ws.w_vals,
        flux=flux, uprime=phi, u=u_at_pts,
        dens_vals=mu.density.values(ws.panels.pts),
    )
    c_classical = ctilde + mu.side_mass(-1)
    return PotentialResult(
        u=u, flux_constant=c_classical, flux_anchor=ctilde,
        boundary_residual=residual, truncation_levels_used=0, diverged=False,
        root_iterations=iters, u_prime=uprime_nodes, flux_nodes=flux_nodes,
        quad=quad, p=p, weight=w, measure=mu,
    )


def _piecewise_linear_half(d: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """u at the nodes of one half, from u = 0 at its endpoint (node 0).

    ``d`` is each node's exact distance from the endpoint and ``slope[i]`` the
    constant u' on cell (i, i+1), oriented away from the endpoint.  On each
    maximal run of equal slopes u is linear, u = u(run start) + slope *
    (d - d(run start)); the run-start values are the only sum.  Distances
    telescope exactly, where a sum of per-cell products would not.
    """
    starts = np.flatnonzero(np.concatenate([[True], slope[1:] != slope[:-1]]))
    run_u = np.concatenate([[0.0], np.cumsum(slope[starts[:-1]] * np.diff(d[starts]))])
    run = np.searchsorted(starts, np.arange(slope.size), side="right") - 1
    u = np.empty(d.size)
    u[0] = 0.0
    u[1:] = run_u[run] + slope * (d[1:] - d[starts[run]])
    return u


def _hermite_at_points(nodes: Points, u_nodes: np.ndarray,
                       dR: np.ndarray, dL: np.ndarray,
                       kappa_l: float, kappa_r: float,
                       panels: PanelSet) -> np.ndarray:
    """u at the quadrature points by per-cell cubic Hermite interpolation.

    One-sided nodal derivatives come from the flux relation, so the
    interpolant is exact on polynomial flux profiles, unlike estimated
    derivatives.  The two endpoint cells use the boundary power profile
    u = u_1 (y/y_1)^kappa instead (u' may be infinite at the endpoints).
    """
    pts = panels.pts
    cells = panels.cell_id
    n_cells = panels.n_cells
    out = np.empty(len(pts))

    left_cell = cells == 0
    right_cell = cells == n_cells - 1
    if np.any(left_cell):
        y1 = nodes.y[1]
        out[left_cell] = max(u_nodes[1], 0.0) * (pts.y[left_cell] / y1) ** kappa_l
    if np.any(right_cell):
        y1 = nodes.y[-2]
        out[right_cell] = max(u_nodes[-2], 0.0) * (pts.y[right_cell] / y1) ** kappa_r

    interior = ~(left_cell | right_cell)
    if np.any(interior):
        c = cells[interior]
        same_side = nodes.side[c] == nodes.side[c + 1]
        # cell width and local coordinate, in the exact edge-distance
        # coordinate whenever the cell lies on one side of the center
        h_x = nodes.x[c + 1] - nodes.x[c]
        h_y = -(nodes.y[c + 1] - nodes.y[c]) * nodes.side[c]
        h = np.where(same_side, h_y, h_x)
        t_x = (pts.x[interior] - nodes.x[c]) / h
        t_y = -(pts.y[interior] - nodes.y[c]) * nodes.side[c] / h
        t = np.clip(np.where(same_side, t_y, t_x), 0.0, 1.0)
        u0 = u_nodes[c]
        u1 = u_nodes[c + 1]
        d0 = dR[c]
        d1 = dL[c + 1]
        t2 = t * t
        t3 = t2 * t
        vals = ((2 * t3 - 3 * t2 + 1) * u0 + (t3 - 2 * t2 + t) * h * d0
                + (-2 * t3 + 3 * t2) * u1 + (t3 - t2) * h * d1)
        out[interior] = vals
    return np.maximum(out, 0.0)


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


def _ladder_schedule(options: SolverOptions, schedule=None,
                     start_level: int | None = None) -> tuple[int, ...]:
    """Truncation levels to walk: ``schedule`` (default 1..max_trunc_level),
    from ``start_level`` on when given, but never fewer than its last three
    levels: two increments are the fewest the convergence test can pass on."""
    schedule = tuple(range(1, options.max_trunc_level + 1)) if schedule is None \
        else tuple(schedule)
    if start_level is not None:
        tail = tuple(k for k in schedule if k >= start_level)
        schedule = tail if len(tail) >= 3 else schedule[-3:]
    return schedule


def _tail_ratio(increments) -> tuple[np.ndarray, float]:
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
                    f"solver.monotone_limit: level {k} lowered the values by "
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
            # more are not decaying: a slowly divergent limit (convergent
            # ladders keep their ratios drifting down, which the settle
            # test excludes)
            ratios, gm = _tail_ratio(increments)
            if ratios.size == 5 and gm >= growth and np.max(ratios) / np.min(ratios) <= 1.06:
                lim.diverged = True
                break
    if lim.diverged:
        lim.value = INF
    return lim


def _truncation_limit(mu: RadonMeasure, evaluate, schedule, tol: float, cap: float,
                      growth: float, drop_slack: float) -> _Limit:
    """Limit of ``evaluate(measure) -> (value, payload)`` over the truncations
    of mu: the one place that decides whether a measure needs a ladder.

    Declared endpoint exponents below one on both sides mean finite mass (the
    rule of ``Density.side_mass``), and such a measure is its own limit: one
    exact evaluation of mu, converged at level 0 unless its sup exceeds
    ``cap``.  Only infinite mass walks mu.truncate(k) along ``schedule``
    through ``_monotone_limit``.
    """
    if mu.sing(-1) < 1.0 and mu.sing(1) < 1.0:
        value, payload = evaluate(mu)
        diverged = float(np.max(value)) > cap
        return _Limit(value=INF if diverged else value, payload=payload, values=[value],
                      converged=not diverged, diverged=diverged)
    return _monotone_limit(lambda k: evaluate(mu.truncate(k)), schedule, tol, cap,
                           growth, drop_slack)


def potential(p: float, w: Weight, mu: RadonMeasure,
              options: SolverOptions = DEFAULT_OPTIONS,
              schedule: tuple[int, ...] | None = None,
              cap: float | None = None,
              tol: float | None = None,
              extra_nodes: tuple[float, ...] = (),
              start_level: int | None = None) -> PotentialResult:
    """Extended potential of a possibly infinite measure.

    A measure of finite mass gets ``solve_dirichlet``'s result as it is,
    unless it passes the cap.  One of infinite mass runs the ladder mu_k = truncate(mu, k) through
    ``_monotone_limit`` on the values at master nodes shared by every level
    (atoms + graded grid, no window edges).  Divergence covers increments
    that settle at ratio 0.98 or more, not only the cap: slowly divergent
    limits never reach a fixed cap.
    """
    master = graded_grid(options.n_nodes, options.grading_ratio, options.y_floor,
                         tuple(mu.atom_locations.tolist()) + tuple(extra_nodes))

    def level(mu_k):
        res = solve_dirichlet(p, w, mu_k, options, extra_nodes=extra_nodes)
        return res.u.values_at(master), res

    lim = _truncation_limit(mu, level, _ladder_schedule(options, schedule, start_level),
                            options.trunc_tol if tol is None else tol,
                            options.divergence_cap if cap is None else cap,
                            growth=0.98, drop_slack=1e-10)
    res = lim.payload
    if lim.diverged:
        res = replace(res, u=GridFunction(grid=res.u.grid, values=np.full(res.u.x.size, INF)),
                      quad=None)
    return replace(res, truncation_levels_used=lim.levels, diverged=lim.diverged,
                   ladder_converged=lim.converged, truncation_last_level=lim.last_level)


def measure_quadrature(mu: RadonMeasure, options: SolverOptions = DEFAULT_OPTIONS,
                       extra_nodes: tuple[float, ...] = ()) -> tuple[Points, np.ndarray, np.ndarray]:
    """Panel points, weights and density values for integrating against mu.

    Used for integrals of bounded-at-the-boundary integrands against the
    measure's density part (atoms are summed separately by callers).
    """
    y_cuts = {}
    for side in (-1, 1):
        s = min(max(mu.sing(side), 0.0), 0.995)
        y_cuts[side] = max((1e-16 * (1.0 - s)) ** (1.0 / (1.0 - s)), 1e-280)
        if not mu.density.y_resolved:
            y_cuts[side] = max(y_cuts[side], 1e-12)
    _, panels = _panel_structure(mu, options, tuple(extra_nodes), (),
                                 y_cuts[-1], y_cuts[1],
                                 tail_s=(max(0.0, mu.sing(-1)), max(0.0, mu.sing(1))))
    dens = mu.density.values(panels.pts)
    return panels.pts, panels.w, dens


def check_comparison(p: float, w: Weight, mu: RadonMeasure, nu: RadonMeasure,
                     options: SolverOptions = DEFAULT_OPTIONS,
                     tol: float = 1e-9) -> dict:
    """Comparison principle report: potential(mu) <= potential(nu) + tol.

    The caller asserts mu <= nu as measures; the report also checks the
    ordering of the CDFs on the grid.
    """
    res_mu = potential(p, w, mu, options)
    res_nu = potential(p, w, nu, options)
    if res_mu.diverged or res_nu.diverged:
        return {"pass": bool(res_mu.diverged <= res_nu.diverged),
                "max_violation": INF if res_mu.diverged and not res_nu.diverged else 0.0,
                "cdf_ordered": None}
    xs = res_nu.u.grid
    v_mu = res_mu.u.values_at(xs)
    v_nu = res_nu.u.values
    violation = float(np.max(v_mu - v_nu))
    scale = max(res_nu.u.sup(), 1.0)
    probe = np.linspace(-0.999, 0.999, 101)
    cdf_ok = all(mu.cdf(t) <= nu.cdf(t) + 1e-9 * (1.0 + abs(nu.cdf(t))) for t in probe)
    return {
        "pass": bool(violation <= tol * scale),
        "max_violation": violation,
        "cdf_ordered": cdf_ok,
    }
