"""Exact Dirichlet solver for -(w |u'|^(p-2) u')' = mu on (-1, 1), u(+-1) = 0.

Integrating the equation once gives the flux relation

    w(x) |u'(x)|^(p-2) u'(x) = c - mu([-1, x]),

so u' = sign(flux) * (|flux| / w)^(1/(p-1)) and the flux constant is pinned by
the second boundary condition through the strictly increasing map
c -> integral of u'.  Everything is anchored at the center: the solver root
finds on ctilde = flux just right of 0 and the cumulative S(x) = mu((0, x]),
which keeps interior fluxes fully accurate even when a measure carries
astronomically large one-sided mass.

A solve evaluates the density once, at its panel points.  S comes from the
closed cumulative where the density has one and otherwise from those values
by the panel rule; the root bracket is (min S, max S), and the root is found
by safeguarded Newton steps on G and its derivative, both from one pass over
the same arrays.  The classical c is read from S at x = -1.

u is integrated by the same panel rule in the same kind of run
(``_panel_bounds``), each half from its endpoint toward the centre node, so
it keeps its relative accuracy near both endpoints; the two halves meet at
x = 0, where their mismatch is the solve's ``boundary_residual``.

The same single solve covers infinite mass near an endpoint: S is finite at
every interior point, and the flux-inversion integrand follows a declared
power there (``_edge_singularity``), at which the endpoint ladder is closed.
The result is the extended potential, the monotone limit of the solves of the
truncations of mu to [-1 + 2^-k, 1 - 2^-k].
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .measures import RadonMeasure, _freeze
from .quadrature import (
    PanelSet,
    Points,
    bracketed_root,
    build_panels,
    close_tails,
    gauss_antiderivative,
    gauss_cumulative,
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
    bracket_tol: float = 1e-12
    max_root_iter: int = 200
    divergence_cap: float = 1e12

    def __post_init__(self):
        for name, ok in (
            ("n_nodes", self.n_nodes >= 8),  # graded_grid's least grid
            ("grading_ratio", 0.0 < self.grading_ratio < 1.0),
            ("y_floor", 0.0 < self.y_floor < 1.0),
            ("n_gauss", self.n_gauss >= 1),
            ("bracket_tol", self.bracket_tol > 0.0),
            ("max_root_iter", self.max_root_iter >= 1),
            ("divergence_cap", self.divergence_cap > 0.0),
        ):
            if not ok:
                raise ValidationError(
                    f"solver.SolverOptions: {name}={getattr(self, name)!r} is out of range"
                )


DEFAULT_OPTIONS = SolverOptions()


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

def _pchip_coefficients(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients c[0..3] of the PCHIP cubic c0 s^3 + c1 s^2 + c2 s + c3
    on each interval, s = x - x_i: the nodal slopes of Fritsch-Carlson's
    weighted harmonic mean with Moler's shape-preserving one-sided ends, in
    the formulas and order of operations of scipy's ``PchipInterpolator``,
    so the values agree to the bit."""
    h = x[1:] - x[:-1]
    m = (v[1:] - v[:-1]) / h
    if v.size == 2:
        d = np.full(2, m[0])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.zeros_like(v)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], v[:-1]))


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end, zeroed against the sign of the
    first secant and capped at three times it where the secants turn."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass
class GridFunction:
    """Sampled function on a graded grid.

    A solve's u (``_assemble``) reads itself by the solve's own rule
    (``_solve_values``), a ``scaled`` copy c u^r as c * (u's read) ** r.
    Any other grid function (a custom ``start``, ``family`` members) is read
    by a PCHIP, sublap's own (``_pchip_coefficients``), bit-identical to
    ``scipy.interpolate.PchipInterpolator(x, values, extrapolate=False)``
    (0 outside the nodes), computed on the first evaluation and kept.
    ``derivative`` is that PCHIP's for every grid function, a solve's too.

    ``left_exponent`` / ``right_exponent`` declare the boundary power profile
    u ~ C * dist^kappa, used to extend evaluation below the innermost node and
    to propagate boundary behavior into pushforward densities.
    """

    grid: Points
    values: np.ndarray
    left_exponent: float | None = None
    right_exponent: float | None = None
    _coef: np.ndarray | None = field(default=None, repr=False, compare=False)
    # how the function is read when it is not by the PCHIP, set by its
    # maker: the solve that made it, or (base, c, r) for c base^r
    _quad: SolutionQuad | None = field(default=None, init=False, repr=False, compare=False)
    _scale: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def _coefficients(self) -> np.ndarray:
        coef = self._coef
        if coef is None:
            # a concurrent first evaluation computes the same array
            coef = self._coef = _pchip_coefficients(self.grid.x, self.values)
        return coef

    def _interval(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of the interval holding each x (the last one closed at its
        right end), and whether x lies in [x_0, x_n]."""
        nodes = self.grid.x
        i = np.searchsorted(nodes, x, side="right")
        i -= 1
        np.maximum(i, 0, out=i)
        np.minimum(i, nodes.size - 2, out=i)
        return i, (x >= nodes[0]) & (x <= nodes[-1])

    def derivative(self, x) -> np.ndarray:
        """Derivative of the PCHIP at x, NaN outside [x_0, x_n]."""
        x = np.asarray(x, dtype=float)
        x1 = x.ravel()
        i, inside = self._interval(x1)
        c = np.take(self._coefficients(), i, axis=1)
        s = x1 - self.grid.x[i]
        d = c[2] + (2.0 * c[1]) * s + (3.0 * c[0]) * (s * s)
        return np.where(inside, d, np.nan).reshape(x.shape)

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

    def _edge_profile(self, pts: Points, out: np.ndarray) -> np.ndarray:
        """``out`` with the points between each endpoint and its innermost
        node set to the boundary power profile (y < 0 lies beyond [-1, 1])."""
        for side, node in ((-1, 1), (1, -2)):
            y_m = self.grid.y[node]
            at = np.flatnonzero(pts.y < y_m)
            at = at[(pts.side[at] == side) & (pts.y[at] >= 0.0)]
            if at.size:
                out[at] = max(self.values[node], 0.0) * (pts.y[at] / y_m) ** self._edge_kappa(side)
        return out

    def values_at(self, pts: Points) -> np.ndarray:
        """u at the points: by the solve's rule, as c * (the base's read) ** r
        for a ``scaled`` copy, else the PCHIP, the boundary power profile
        below the innermost nodes and 0 outside [-1, 1]."""
        if self._scale is not None:
            base, c, r = self._scale
            return c * base.values_at(pts) ** r
        if self._quad is not None:
            return self._solve_values(pts)
        if not self.finite:
            raise ValidationError("solver.GridFunction: cannot interpolate non-finite values")
        i, inside = self._interval(pts.x)
        c = np.take(self._coefficients(), i, axis=1)
        s = pts.x - self.grid.x[i]
        s2 = s * s
        out = c[3] + c[2] * s + c[1] * s2 + c[0] * (s2 * s)
        return self._edge_profile(pts, np.where(inside, out, 0.0))

    def _solve_values(self, pts: Points) -> np.ndarray:
        """u at the points, read from its solve's quadrature view: ``quad.u``
        at the solve's points and at the head and tail that ``pts`` shares
        with them (structures of one measure are in x order and differ only
        in the cells refined at a flux zero); elsewhere the nodal u at nodes
        (atoms are nodes), ``_panel_rule`` in the interior cells, the boundary
        power profile in the endpoint cells, 0 outside [-1, 1]."""
        quad = self._quad
        own = quad.pts
        if pts is own:
            return quad.u
        head = _shared_run(own.x, own.y, pts.x, pts.y)
        tail = _shared_run(own.x[::-1], own.y[::-1], pts.x[::-1], pts.y[::-1])
        end = pts.x.size - min(tail, min(own.x.size, pts.x.size) - head)
        x, y = pts.x[head:end], pts.y[head:end]
        nodes = self.grid.x
        g = np.minimum(np.searchsorted(nodes, x), nodes.size - 1)
        # x = +-1 is an endpoint only at y = 0: a tail point's x rounds to it
        at = (nodes[g] == x) & ((np.abs(x) < 1.0) | (y == 0.0))
        if x.size == pts.x.size and at.all():  # nodes only, by index
            return self.values[g]
        out = np.empty(pts.x.size)
        if head or end < pts.x.size:  # an atom-only solve never fills quad.u
            out[:head], out[end:] = quad.u[:head], quad.u[own.x.size - pts.x.size + end:]
        vals = self._edge_profile(Points(x=x, side=pts.side[head:end], y=y), np.zeros(x.size))
        vals[at] = self.values[g[at]]
        inner = np.flatnonzero(~at & (x > nodes[1]) & (x < nodes[-2]))
        if inner.size:
            vals[inner] = _panel_rule(quad, x[inner])
        out[head:end] = vals
        return out

    def __call__(self, x) -> np.ndarray:
        return self.values_at(points_from_x(np.atleast_1d(np.asarray(x, dtype=float))))

    def scaled(self, c: float, r: float) -> "GridFunction":
        """c u^r on u's grid, read as c * (u's read) ** r, with r times u's
        edge exponents."""
        out = GridFunction(grid=self.grid, values=c * self.values ** r,
                           left_exponent=r * self._edge_kappa(-1),
                           right_exponent=r * self._edge_kappa(1))
        out._scale = (self, c, r)
        return out

    def power_factor(self, q: float) -> "GridPowerFactor":
        return GridPowerFactor(self, q)


@dataclass(frozen=True)
class GridPowerFactor:
    """u^q as a pushforward factor, boundary exponent q kappa, u read by its
    ``values_at``.  It holds no ``PotentialResult``, whose measure would
    chain each solve to the last (a solve's u holds no measure)."""

    gridfn: GridFunction
    q: float

    def values(self, pts: Points) -> np.ndarray:
        return self.gridfn.values_at(pts) ** self.q

    def edge_exponent(self, side: int) -> float:
        return self.q * self.gridfn._edge_kappa(side)

    def kinks(self) -> tuple[float, ...]:
        return tuple(self.gridfn.x[1:-1])


# ---------------------------------------------------------------------------
# solution container
# ---------------------------------------------------------------------------

@dataclass
class SolutionQuad:
    """Quadrature view of a solve: panel points with the solve's weights,
    weight values, flux, u' and u, ready for energy integrals.

    ``u`` is filled on first read (``_hermite_at_points``: the solve's
    panel run of u' from the endpoints, carried into every panel), so solves
    whose callers read only the nodal solution do not pay for it.
    ``bounds``, that run at the panel ends (None where the nodal u was
    summed in closed form), lets a solve's u read itself anywhere."""

    pts: Points
    w_quad: np.ndarray  # the tail pseudo-points first and last, closed at the solve's power
    w_vals: np.ndarray
    flux: np.ndarray
    uprime: np.ndarray
    dens_vals: np.ndarray  # density of the solved measure at the points
    n_gauss: int
    n_left: int  # Gauss panels left of x = 0
    bounds: np.ndarray | None = field(repr=False, compare=False)
    _u: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def u(self) -> np.ndarray:
        u = self._u
        if u is None:
            # a concurrent first read fills an equal array; the fill is
            # looked up by name.  Read-only: the solve's u returns it itself
            u = _hermite_at_points(self.w_quad, self.uprime, self.n_gauss, self.n_left,
                                   self.bounds)
            _freeze(u)
            self._u = u
        return u


@dataclass
class PotentialResult:
    u: GridFunction
    # classical c in w|u'|^(p-2)u' = c - mu([-1, x]): the flux at x = -1,
    # ctilde minus S there (S at the left ladder bottom less the declared
    # power's tail below it); +inf when mu has infinite mass near -1, where
    # only the anchored flux is meaningful
    flux_constant: float
    flux_anchor: float        # flux just right of the center anchor
    boundary_residual: float
    diverged: bool
    truncation_levels_used: int = 0  # no truncation ladder is walked
    # evaluations of G and G' in the root finds, both of them when the solve
    # was refined at a flux sign change (``resolved``)
    root_iterations: int = 0
    resolved: bool = False
    u_prime: np.ndarray | None = None
    flux_nodes: np.ndarray | None = None
    quad: SolutionQuad | None = None  # None exactly when diverged
    p: float = 2.0
    weight: Weight | None = None
    measure: RadonMeasure | None = None

    @property
    def ladder_converged(self) -> bool:
        return not self.diverged


def _shared_run(ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray) -> int:
    """How many leading points (x, y) two lists of points share."""
    n = min(ax.size, bx.size)
    if not n or ax[0] != bx[0] or ay[0] != by[0]:
        return 0
    same = (ax[:n] == bx[:n]) & (ay[:n] == by[:n])
    return n if same.all() else int(np.argmin(same))


def _panel_rule(quad: SolutionQuad, x: np.ndarray) -> np.ndarray:
    """u at points x inside the Gauss panels: the panel run at the panel's
    lower end plus h times the integral of the interpolant of u' through the
    panel's values, in the right half the run at its upper end less h times
    the integral to there, as ``_panel_fill`` reads it at the Gauss points."""
    n, n_left = quad.n_gauss, quad.n_left
    run = quad.bounds if quad.bounds is not None \
        else _panel_bounds(quad.w_quad, quad.uprime, n, n_left, False)
    t, tw = gauss_rule(n)
    h = quad.w_quad[1:-1:n] / tw[0]  # the panel lengths
    lo = quad.pts.x[1:-1:n] - t[0] * h  # and lower ends
    # the panel of the first point at or past x, or the one before it
    i = (np.searchsorted(quad.pts.x, x) - 1) // n
    i -= x < lo[i]
    left = i < n_left
    s = (x - lo[i]) / h[i]
    # per panel the Legendre coefficients of the integral of u' from its
    # lower end, in the right half from its upper end: the integral over
    # [s, 1] is the one over [0, 1 - s] of the reversed values
    f = quad.uprime[1:-1].reshape(-1, n)
    coef = (np.concatenate([f[:n_left], f[n_left:, ::-1]]) @ gauss_antiderivative(n).T)[i].T
    part = h[i] * np.polynomial.legendre.legval(np.where(left, 2.0 * s - 1.0, 1.0 - 2.0 * s),
                                                coef, tensor=False)
    return np.maximum(np.where(left, run[i] + part, run[i + 2] - part), 0.0)


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------

def _mandatory_nodes(mu: RadonMeasure, opts: SolverOptions,
                     extra_nodes: tuple[float, ...]) -> tuple[float, ...]:
    """The locations ``_master_grid`` makes grid nodes, sorted: atoms,
    ``extra_nodes``, interior breaks, and truncation / regime edges at
    distances the grid represents (at least ``opts.y_floor``)."""
    mandatory = tuple(mu.atom_locations.tolist()) + tuple(extra_nodes)
    mandatory += tuple(b for b in mu.interior_breaks() if -1.0 < b < 1.0)
    for side in (-1, 1):
        for yb in mu.breakpoints_y(side):
            if yb >= opts.y_floor:
                mandatory += (-1.0 + yb,) if side < 0 else (1.0 - yb,)
    return tuple(sorted(map(float, mandatory)))


def _master_grid(mu: RadonMeasure, opts: SolverOptions,
                 extra_nodes: tuple[float, ...] = ()) -> Points:
    return graded_grid(opts.n_nodes, opts.grading_ratio, opts.y_floor,
                       _mandatory_nodes(mu, opts, extra_nodes))


_PANEL_CACHE_SIZE = 64

PanelCacheInfo = namedtuple("PanelCacheInfo", "hits misses size maxsize")


def panel_cache_info() -> PanelCacheInfo:
    """Hits and misses of the panel-structure cache since its last clear,
    its size and its bound, from ``functools.lru_cache``'s ``cache_info``."""
    info = _PANEL_CACHE.cache_info()
    return PanelCacheInfo(info.hits, info.misses, info.currsize, info.maxsize)


def _build_structure(geometry: tuple, mandatory: tuple[float, ...], ladder_nodes: tuple,
                     y_cuts: tuple, deep: tuple) -> tuple[Points, PanelSet]:
    """The graded grid on the ``mandatory`` nodes and its panels, read-only,
    from everything ``graded_grid`` and ``build_panels`` read: ``geometry``
    is (n_nodes, grading_ratio, y_floor, n_gauss).  Its ``memo["nodes"]``
    holds each node's place in a panel run (``_panel_bounds``): node i is
    the lower end of cell i's first panel, one place further in the right
    half, which repeats x = 0 (the node ``mid``)."""
    grid = graded_grid(*geometry[:3], mandatory)
    panels = build_panels(
        grid,
        n_gauss=geometry[3],
        y_cut_left=y_cuts[0],
        y_cut_right=y_cuts[1],
        edge_breaks_left=np.asarray(deep[0]),
        edge_breaks_right=np.asarray(deep[1]),
        ladder_nodes=ladder_nodes,
    )
    mid = int(np.searchsorted(grid.x, 0.0))  # x = 0 is always a node
    at = np.searchsorted(panels.panel_cell, np.arange(panels.n_cells + 1))
    panels.memo["nodes"] = (mid, int(at[mid]), at)
    at[mid + 1:] += 1
    _freeze(grid.x, grid.side, grid.y, panels.pts.x, panels.pts.side, panels.pts.y,
            panels.w, panels.panel_cell, at)
    return grid, panels


# the panel structures, least recently used out first; ``clear()`` empties
# it under the name of the dict it replaced, which callers outside use
_PANEL_CACHE = functools.lru_cache(maxsize=_PANEL_CACHE_SIZE)(_build_structure)
_PANEL_CACHE.clear = _PANEL_CACHE.cache_clear


# the endpoint ladders stop where the tail of an integrand following its
# declared power is this small relative to the integrand's scale
_TAIL_TARGET = 1e-16


def _panel_structure(mu: RadonMeasure, opts: SolverOptions,
                     extra_nodes: tuple, ladder_nodes: tuple, x_evaluated: bool,
                     tail_s: tuple[float, float]) -> tuple[Points, PanelSet]:
    """Grid and panels for an integrand ~ y^(-s) toward each endpoint, s =
    ``tail_s`` per side.  An endpoint ladder stops at the depth where the
    tail y^(1-s)/(1-s) is below ``_TAIL_TARGET`` for finite mass (s clipped
    to 0.995); for infinite mass (mu ~ y^(-a), a >= 1) the closure below it
    is exact for the power and errs by the integrand's relative departure
    from it, ~ y^(a-1).  Each quadrature sum closes the tail at its own
    integrand's power (``close_tails``).  The depth reads the declared
    powers alone, not the size of mu, so mu and its multiples share one
    structure, as do powers whose cuts share a decade; it is kept at or
    above 1e-12 where the integrand is ``x_evaluated``, but the ladder ends
    at min(cut, innermost node / 4), ~2.6e-14 in the default grid, so that
    floor has no effect there.  The cut goes below truncation edges under
    the grid floor and is bucketed to its decade."""
    y_cuts, deep = [], []
    for side, s in zip((-1, 1), tail_s):
        a = mu.sing(side)
        s = s if a >= 1.0 else min(s, 0.995)
        y_cut = max((_TAIL_TARGET * (1.0 - s)) ** (1.0 / (max(a, 1.0) - s)), 1e-280)
        if x_evaluated:
            y_cut = max(y_cut, 1e-12)
        deep.append(tuple(sorted(float(yb) for yb in mu.breakpoints_y(side)
                                 if yb < opts.y_floor)))
        if deep[-1]:
            y_cut = min(y_cut, deep[-1][0] / 16.0)
        y_cuts.append(10.0 ** np.floor(np.log10(max(y_cut, 1e-280))))
    return _PANEL_CACHE((opts.n_nodes, opts.grading_ratio, opts.y_floor, opts.n_gauss),
                        _mandatory_nodes(mu, opts, extra_nodes), ladder_nodes,
                        tuple(y_cuts), tuple(deep))


def _weight_at(panels: PanelSet, w: Weight, p: float) -> tuple[np.ndarray, np.ndarray]:
    """w and w^(-1/(p-1)) at the panel points, kept for the last (w, p)."""
    slot = panels.memo.get("weight")
    if slot is None or slot[0] != w or slot[1] != p:
        w_vals = w.values(panels.pts)
        slot = (w, p, w_vals, w_vals ** (-(1.0 / (p - 1.0))))
        _freeze(*slot[2:])
        panels.memo["weight"] = slot
    return slot[2], slot[3]


def _edge_singularity(p: float, w: Weight, mu: RadonMeasure, side: int) -> float:
    """Exponent s with |u'| ~ dist^(-s) at the endpoint, so u ~ dist^(1 - s):
    the weight's conjugate singularity where the flux tends to a constant
    (finite mass); with a density ~ dist^(-a), a >= 1, and a weight ~ dist^b,
    s = (b + a - 1)/(p - 1).  The potential is finite exactly when s < 1."""
    a = mu.sing(side)
    if a < 1.0:
        return w.conjugate_singularity(p, side)
    return (w.edge_exponent(side) + a - 1.0) / (p - 1.0)


class _Workspace:
    """Panelized quadrature state for one Dirichlet solve.

    The density is evaluated once, at the panel points (``dens``).  Without
    a closed cumulative, S comes from the same values by the panel run
    outward from the node ``mid`` at x = 0 (``_panel_cumulative``).
    ``S_nodes`` is the density part of S at the grid nodes, +-inf at an
    endpoint of infinite mass.  ``w_quad`` closes the tails at min(s, 0.995)."""

    def __init__(self, p: float, w: Weight, mu: RadonMeasure, opts: SolverOptions,
                 extra_nodes: tuple[float, ...] = (),
                 ladder_nodes: tuple[float, ...] = ()):
        self.p = p
        self.w = w
        self.mu = mu
        self.opts = opts
        self.exponent = 1.0 / (p - 1.0)
        s = tuple(_edge_singularity(p, w, mu, side) for side in (-1, 1))
        self.grid, self.panels = _panel_structure(
            mu, opts, tuple(extra_nodes), tuple(ladder_nodes),
            w.family == "custom" or not mu.density.y_resolved, s)
        pts = self.panels.pts
        self.w_quad = close_tails(self.panels.w, pts, np.minimum(s, 0.995))
        _freeze(self.w_quad)
        self.mid, self.n_left, self.at_nodes = self.panels.memo["nodes"]
        self.w_vals, self.w_fac = _weight_at(self.panels, w, p)
        self.dens = mu.density.values(pts)
        S = mu.density.cum0_many(pts)
        if S is None:
            S, self.S_nodes = self._panel_cumulative()
        else:
            with np.errstate(divide="ignore"):
                # the cumulative of infinite mass is infinite at the endpoint nodes
                self.S_nodes = mu.density.cum0_many(self.grid)
        self.S = S + mu.atom_cum_center(pts.x)
        # G(min S) <= 0 <= G(max S) holds on the discrete G, tail points included
        self.bracket = (float(np.min(self.S)), float(np.max(self.S)))

    def _panel_cumulative(self) -> tuple[np.ndarray, np.ndarray]:
        """Density part of S at the panel points and at the grid nodes: the
        panel run of the density outward from x = 0.  The tail pseudo-points
        sit at the ladder bottoms; below them the nodes at x = +-1 add the
        declared power's closure, dens(y0) y0 / (1 - a)."""
        w, f, n = self.w_quad, self.dens, self.opts.n_gauss
        bounds = _panel_bounds(w, f, n, self.n_left, True)
        S = _panel_fill(bounds, w, f, n, self.n_left, True)
        S_nodes = bounds[self.at_nodes]
        for i, side in ((0, -1), (-1, 1)):
            a = self.mu.sing(side)
            S_nodes[i] += side * (f[i] * self.panels.pts.y[i] / (1.0 - a) if a < 1.0 else INF)
        return S, S_nodes

    # -- flux machinery ------------------------------------------------------

    def G(self, ctilde: float) -> tuple[float, float]:
        """G and G' = (1/(p-1)) sum w_q |flux|^(1/(p-1) - 1) w^(-1/(p-1)) in
        one pass over the points.  Points where the flux vanishes are left
        out of G' (their term is infinite for p > 2): a smaller G' only
        lengthens a Newton step, which the bracket then guards."""
        flux = ctilde - self.S
        size = np.abs(flux)
        mag = size ** self.exponent * self.w_fac
        rate = np.divide(mag, size, out=np.zeros_like(mag), where=size > 0.0)
        return (float(np.dot(self.w_quad, np.copysign(mag, flux))),
                self.exponent * float(np.dot(self.w_quad, rate)))

    def solve_constant(self, x0: float = 0.0) -> tuple[float, float, int]:
        lo, hi = self.bracket
        return bracketed_root(self.G, lo, hi, xtol=self.opts.bracket_tol,
                              max_iter=self.opts.max_root_iter, x0=x0)

    def kink_location(self, ctilde: float) -> float | None:
        """Interior location where the flux crosses zero, or None when the
        crossing happens across an atom/node or out in an endpoint ladder.
        The points are in x order (``build_panels``), along which S does not
        decrease, so the crossing is looked up in S as it is stored."""
        S, x = self.S, self.panels.pts.x
        idx = int(np.searchsorted(S, ctilde))
        if idx <= 0 or idx >= S.size:
            return None
        a, b = float(x[idx - 1]), float(x[idx])
        # no gap, or inside an endpoint ladder: contribution negligible
        if b - a <= 1e-14 or abs(a) > 0.999 or abs(b) > 0.999:
            return None
        s_a, s_b = float(S[idx - 1]), float(S[idx])
        d_a, d_b = float(self.dens[idx - 1]), float(self.dens[idx])
        # panels end at nodes: a node inside the gap is an atom, across which
        # the crossing sits, or a plain node, on one side of which it lies
        j = int(np.searchsorted(self.grid.x, a, side="right"))
        node = float(self.grid.x[j])
        if node < b:
            if np.any(self.mu.atom_locations == node):
                return None
            s_n = float(self.S_nodes[j] + self.mu.atom_cum_center(self.grid.x[j:j + 1])[0])
            if abs(ctilde - s_n) <= self.opts.bracket_tol:
                return None
            d_n = float(self.mu.density.values(points_from_x(self.grid.x[j:j + 1]))[0])
            if ctilde < s_n:
                b, s_b, d_b = node, s_n, d_n
            else:
                a, s_a, d_a = node, s_n, d_n

        # S is smooth in [a, b] with S' the density: the cubic Hermite from
        # its ends
        h = b - a
        d_a, d_b = h * d_a, h * d_b

        def excess(x: float) -> float:
            t = (x - a) / h
            return ((2 * t - 3) * t * t + 1) * s_a + ((t - 2) * t + 1) * t * d_a \
                + (3 - 2 * t) * t * t * s_b + (t - 1) * t * t * d_b - ctilde

        if not s_a <= ctilde <= s_b:
            return None
        # the cubic's root by bisection: it is cheap to evaluate, and
        # ``root_iterations`` counts the evaluations of G only
        lo, hi = a, b
        while hi - lo > 1e-15:
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
    zero-boundary solution operator (``potential`` takes infinite mass too)."""
    _check_problem(p, w)
    if mu.sing(-1) >= 1.0 or mu.sing(1) >= 1.0:
        raise ValidationError("solver.solve_dirichlet: measure must have finite total mass")
    return _solve(p, w, mu, options, extra_nodes)


def _check_problem(p: float, w: Weight) -> None:
    if not (1.0 < p < INF):
        raise ValidationError(f"solver.solve_dirichlet: need 1 < p < inf, got {p}")
    w.validate_window(p)
    if not w.conjugate_integrable(p):
        raise ValidationError(
            "solver.solve_dirichlet: w^(-1/(p-1)) is not integrable; flux inversion undefined"
        )


def _solve(p: float, w: Weight, mu: RadonMeasure, options: SolverOptions,
           extra_nodes: tuple[float, ...]) -> PotentialResult:
    """One flux-inversion solve of a measure whose potential is finite (the
    zero measure too: its bracket is (0, 0) and its root 0, found in one
    evaluation of G)."""
    ws = _Workspace(p, w, mu, options, extra_nodes=extra_nodes)
    c, _, evals = ws.solve_constant()
    x_star = ws.kink_location(c)
    if x_star is not None:
        # refine at the flux sign change, warm-started from the first root
        ws = _Workspace(p, w, mu, options,
                        extra_nodes=extra_nodes + (x_star,),
                        ladder_nodes=(x_star,))
        c, _, evals_b = ws.solve_constant(x0=c)
        evals += evals_b
    return replace(_assemble(ws, c, evals), resolved=x_star is not None)


def _assemble(ws: _Workspace, ctilde: float, evals: int) -> PotentialResult:
    """Nodal u, u' and flux of a solved workspace, plus its quadrature view.

    u is integrated half by half, from each endpoint toward the centre node,
    and ``boundary_residual`` is the mismatch of the two halves at x = 0.
    Pure-atom measures with a constant weight have a flux that is constant
    between atoms, so u is piecewise linear and each half is summed in closed
    form (``_piecewise_linear_half``); every other solve reads it from the
    panel run of u' (``_panel_bounds``).  A sum from one endpoint would keep
    only the absolute accuracy of u near the other.  The closed form is the
    last one kept for atoms: by the panel run, the Green references of the
    pure-atom family err by up to 6.7e-16, against 1.1e-16 in closed form.
    u' is 0 where the nodal flux is, also where w vanishes (the zero measure
    under a power weight at x = +-1, where the product would read 0 * inf).
    """
    p, w, mu, opts = ws.p, ws.w, ws.mu, ws.opts
    e = ws.exponent
    flux = ctilde - ws.S
    phi = np.sign(flux) * np.abs(flux) ** e * ws.w_fac

    # nodal flux with the left-continuous convention: the flux at a node
    # excludes the atom sitting exactly there (it jumps down across it)
    nodes = ws.grid
    flux_nodes = ctilde - (ws.S_nodes + mu._atom_cum(nodes.x, "left"))
    with np.errstate(divide="ignore", invalid="ignore"):
        w_nodes = w.values(nodes)
        uprime_nodes = np.where(flux_nodes == 0.0, 0.0,
                                np.sign(flux_nodes) * np.abs(flux_nodes) ** e * w_nodes ** (-e))

    n, n_left, mid = opts.n_gauss, ws.n_left, ws.mid
    if mu.density.is_zero and w.family == "constant":
        # cell i carries the flux just right of node i
        flux_right = ctilde - (ws.S_nodes + mu._atom_cum(nodes.x, "right"))
        slope = (np.sign(flux_right) * np.abs(flux_right) ** e * w_nodes ** (-e))[:-1]
        u_left = _piecewise_linear_half(nodes.y[:mid + 1], slope[:mid])
        u_right = _piecewise_linear_half(nodes.y[mid:][::-1], -slope[mid:][::-1])
        u_nodes = np.concatenate([u_left, u_right[-2::-1]])
        at_zero = (u_left[-1], u_right[-1])
        bounds = None  # the fill builds the run when it is read
    else:
        bounds = _panel_bounds(ws.w_quad, phi, n, n_left, False)
        u_nodes = bounds[ws.at_nodes]
        u_nodes[[0, -1]] = 0.0
        at_zero = bounds[[n_left, n_left + 1]]
    residual = abs(float(at_zero[0] - at_zero[1]))
    u_nodes[mid] = 0.5 * (at_zero[0] + at_zero[1])
    u_nodes = np.maximum(u_nodes, 0.0)

    quad = SolutionQuad(
        pts=ws.panels.pts, w_quad=ws.w_quad, w_vals=ws.w_vals,
        flux=flux, uprime=phi, dens_vals=ws.dens,
        n_gauss=n, n_left=n_left, bounds=bounds,
    )
    # boundary exponents of the limit: u ~ dist^(1 - s)
    u = GridFunction(grid=nodes, values=u_nodes,
                     left_exponent=1.0 - _edge_singularity(p, w, mu, -1),
                     right_exponent=1.0 - _edge_singularity(p, w, mu, 1))
    u._quad = quad
    return PotentialResult(
        u=u, flux_constant=float(flux_nodes[0]), flux_anchor=ctilde,
        boundary_residual=residual, diverged=False, root_iterations=evals,
        u_prime=uprime_nodes, flux_nodes=flux_nodes,
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


def _panel_bounds(w: np.ndarray, f: np.ndarray, n: int, n_left: int,
                  outward: bool) -> np.ndarray:
    """The running integral of f dx at every Gauss panel end, each half of
    [-1, 1] run on its own: ``outward`` from 0 at x = 0, else inward from
    the tail pseudo-points' parts below the ladder bottoms, w f at -1 and
    -w f at +1, which keeps u's relative accuracy near both endpoints.
    ``w`` and ``f`` are flat over a ``PanelSet``'s points, ``n`` per panel
    and ``n_left`` panels left of x = 0.  The result lists the left half's
    panel ends in x order, then the right half's: x = 0 comes twice."""
    # panel masses summed pairwise (numpy's sum) for S, point by point in x
    # order for u': a change of either order moves results by a rounding
    wf = w[1:-1].reshape(-1, n) * f[1:-1].reshape(-1, n)
    mass = np.sum(wf, axis=1) if outward else functools.reduce(np.add, wf.T)
    ends = (0.0, 0.0) if outward else (w[0] * f[0], -w[-1] * f[-1])
    halves = []
    for m, start, back in ((mass[:n_left], ends[0], outward),
                           (mass[n_left:], ends[1], not outward)):
        # a run against x adds the panels' masses negated, from the last one
        run = np.cumsum(np.concatenate([[start], -m[::-1] if back else m]))
        halves.append(run[::-1] if back else run)
    return np.concatenate(halves)


def _panel_fill(bounds: np.ndarray, w: np.ndarray, f: np.ndarray, n: int,
                n_left: int, outward: bool) -> np.ndarray:
    """The run of ``_panel_bounds`` at every point: a panel's value at its
    lower end plus the Gauss cumulative of f from there, in the right half
    of an inward run its value at the upper end less the cumulative to
    there (the panels are in x order, the Gauss nodes symmetric).  The tail
    pseudo-points take the values at the ladder bottoms."""
    wp, fp = w[1:-1].reshape(-1, n), f[1:-1].reshape(-1, n)
    h = wp[:, :1] / gauss_rule(n)[1][0]  # the panel lengths
    C = gauss_cumulative(n)
    out = np.empty(f.size)
    out[0], out[-1] = bounds[0], bounds[-1]
    body = out[1:-1].reshape(-1, n)
    if outward:
        lower = np.concatenate([bounds[:n_left], bounds[n_left + 1:-1]])
        body[:] = lower[:, None] + h * (fp @ C.T)
    else:
        body[:n_left] = bounds[:n_left, None] + h[:n_left] * (fp[:n_left] @ C.T)
        body[n_left:] = bounds[n_left + 2:, None] - h[n_left:] * (fp[n_left:] @ C[::-1, ::-1].T)
    return out


def _hermite_at_points(w: np.ndarray, phi: np.ndarray, n: int, n_left: int,
                       bounds: np.ndarray | None) -> np.ndarray:
    """u at the quadrature points: the panel run of u' = ``phi`` by the
    solve's weights ``w`` from the endpoints (``bounds``; built here when
    the nodal u was summed in closed form) carried into every panel.
    perfbench traces the fill by this name."""
    if bounds is None:
        bounds = _panel_bounds(w, phi, n, n_left, False)
    return np.maximum(_panel_fill(bounds, w, phi, n, n_left, False), 0.0)


def potential(p: float, w: Weight, mu: RadonMeasure,
              options: SolverOptions = DEFAULT_OPTIONS,
              schedule: tuple[int, ...] | None = None,
              cap: float | None = None,
              tol: float | None = None,
              extra_nodes: tuple[float, ...] = (),
              start_level: int | None = None) -> PotentialResult:
    """Extended potential of a possibly infinite measure, in one solve.

    Finite exactly when ``_edge_singularity`` is below one on both sides;
    otherwise, or past ``cap`` (default ``options.divergence_cap``), the
    result is ``diverged`` with infinite values.  ``schedule``, ``tol`` and
    ``start_level`` configured the truncation ladder of earlier versions and
    are ignored."""
    _check_problem(p, w)
    cap = options.divergence_cap if cap is None else cap
    if max(_edge_singularity(p, w, mu, side) for side in (-1, 1)) >= 1.0:
        grid = _master_grid(mu, options, extra_nodes)
        return PotentialResult(
            u=GridFunction(grid=grid, values=np.full(grid.x.size, INF)), flux_constant=INF,
            flux_anchor=INF, boundary_residual=0.0, diverged=True,
            p=p, weight=w, measure=mu)
    finite = mu.sing(-1) < 1.0 and mu.sing(1) < 1.0
    res = (solve_dirichlet if finite else _solve)(p, w, mu, options, extra_nodes)
    if res.u.sup() <= cap:
        return res
    grid = res.u.grid
    return replace(res, u=GridFunction(grid=grid, values=np.full(grid.x.size, INF)),
                   quad=None, diverged=True)


def measure_quadrature(mu: RadonMeasure, options: SolverOptions = DEFAULT_OPTIONS,
                       extra_nodes: tuple[float, ...] = (),
                       exponents: tuple[float, float] = (0.0, 0.0),
                       ) -> tuple[Points, np.ndarray, np.ndarray]:
    """Panel points, weights and density values for integrating against mu.

    Used for integrals of integrands declared ~ dist^kappa at each endpoint
    (``exponents``) against the measure's density part (atoms are summed
    separately by callers).  With mu ~ dist^(-a) the tails are closed at the
    power kappa - a, which must exceed -1.
    """
    tail_s, closed = [], []
    for side, kappa in zip((-1, 1), exponents):
        a = mu.sing(side)
        tail_s.append(max(0.0, a) if a < 1.0 else a - kappa)
        closed.append(a - kappa)
    _, panels = _panel_structure(mu, options, tuple(extra_nodes), (),
                                 not mu.density.y_resolved, tuple(tail_s))
    wq, dens = close_tails(panels.w, panels.pts, closed), mu.density.values(panels.pts)
    _freeze(wq, dens)
    return panels.pts, wq, dens


def check_comparison(p: float, w: Weight, mu: RadonMeasure, nu: RadonMeasure,
                     options: SolverOptions = DEFAULT_OPTIONS,
                     tol: float = 1e-9) -> dict:
    """Comparison principle report: potential(mu) <= potential(nu) + tol.

    The caller asserts mu <= nu as measures; the report also checks the
    ordering of the CDFs at 101 fixed points in [-0.999, 0.999].
    """
    res_mu = potential(p, w, mu, options)
    res_nu = potential(p, w, nu, options)
    if res_mu.diverged or res_nu.diverged:
        return {"pass": bool(res_mu.diverged <= res_nu.diverged),
                "max_violation": INF if res_mu.diverged and not res_nu.diverged else 0.0,
                "cdf_ordered": None}
    v_mu = res_mu.u.values_at(res_nu.u.grid)
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
