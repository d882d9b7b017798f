"""Graded grids and composite Gauss quadrature with endpoint refinement.

Points on (-1, 1) are tracked as triples (x, side, y): ``side`` is the sign of
the nearest endpoint and ``y`` the exact distance to it.  Near the endpoints
``y`` is the canonical coordinate (it stays meaningful far below float spacing
of x around +-1, which matters for deep truncations), and the power families
evaluate through it; ``x`` is kept for generic evaluators.

Endpoint cells are integrated on geometric sub-panels accumulating at the
endpoint.  The panel ladder is cut at a depth where the remaining tail of an
integrand bounded by C*y^(-s), s < 1, is below the absolute target, so
integrable endpoint singularities cost a number of panels proportional to
log(1/target)/(1-s).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, ValidationError


@lru_cache(maxsize=32)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(n)
    return (t + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=8)
def gauss_antiderivative(n: int) -> np.ndarray:
    """Matrix A with ``A @ f`` the Legendre coefficients, in 2 s - 1, of the
    integral over [0, s] of the polynomial through the values f at the nodes
    of ``gauss_rule(n)``."""
    leg = np.polynomial.legendre
    x = 2.0 * gauss_rule(n)[0] - 1.0
    return 0.5 * leg.legint(np.linalg.inv(leg.legvander(x, n - 1)), lbnd=-1.0)


@lru_cache(maxsize=8)
def gauss_cumulative(n: int) -> np.ndarray:
    """Matrix C with (C @ f)[i] the integral over [0, t_i] of the polynomial
    through the values f at the Gauss-Legendre nodes t of ``gauss_rule(n)``:
    ``gauss_antiderivative`` read at the nodes."""
    x = 2.0 * gauss_rule(n)[0] - 1.0
    return np.polynomial.legendre.legvander(x, n) @ gauss_antiderivative(n)


@dataclass(frozen=True)
class Points:
    """Vectorized point set with endpoint-distance bookkeeping."""

    x: np.ndarray
    side: np.ndarray  # -1: distance measured from -1, +1: from +1
    y: np.ndarray     # exact distance to that endpoint

    def __len__(self):
        return self.x.size


def points_from_x(x: np.ndarray) -> Points:
    x = np.asarray(x, dtype=float)
    side = np.where(x >= 0.0, 1.0, -1.0)
    y = 1.0 - np.abs(x)
    return Points(x=x, side=side, y=y)


def points_from_edge(side: int, y: np.ndarray) -> Points:
    y = np.asarray(y, dtype=float)
    x = side * (1.0 - y)
    return Points(x=x, side=np.full_like(y, float(side)), y=y)


# ---------------------------------------------------------------------------
# graded grid
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _graded_base(n_nodes: int, ratio: float, y_floor: float) -> tuple[float, ...]:
    if not (0.0 < ratio < 1.0):
        raise ValueError("graded_grid: ratio must lie in (0, 1)")
    if n_nodes < 8:
        raise ValueError("graded_grid: need at least 8 nodes")
    ys = [1.0]
    while ys[-1] * ratio >= y_floor:
        ys.append(ys[-1] * ratio)
    xs = {-1.0, 1.0}
    for y in ys:
        xs.add(-1.0 + y)
        xs.add(1.0 - y)
    nodes = sorted(xs)
    # the largest gap first, the leftmost of equal ones
    gaps = [(a - b, a, b) for a, b in zip(nodes, nodes[1:])]
    heapq.heapify(gaps)
    while len(nodes) < n_nodes:
        _, a, b = heapq.heappop(gaps)
        m = a + (b - a) / 2.0
        nodes.append(m)
        heapq.heappush(gaps, (a - m, a, m))
        heapq.heappush(gaps, (m - b, m, b))
    return tuple(sorted(nodes))


def graded_grid(
    n_nodes: int = 512,
    ratio: float = 0.85,
    y_floor: float = 1e-13,
    mandatory: tuple[float, ...] = (),
) -> Points:
    """Node set on [-1, 1], geometrically graded toward both endpoints.

    Distances to each endpoint run 1, ratio, ratio^2, ... down to ``y_floor``;
    the remaining node budget is spent by repeated largest-gap bisection
    (which refines the central region).  ``mandatory`` locations (atoms,
    truncation edges) are inserted afterwards, so the total can slightly
    exceed ``n_nodes``.
    """
    base = _graded_base(n_nodes, ratio, y_floor)
    nodes = list(base)
    for m in mandatory:
        if -1.0 < m < 1.0:
            nodes.append(float(m))
    nodes = np.unique(np.asarray(nodes, dtype=float))
    # drop near-duplicates that unique() keeps but quadrature cannot resolve
    keep = np.concatenate(([True], np.diff(nodes) > 1e-15))
    nodes = nodes[keep]
    if nodes[-1] != 1.0:
        nodes = np.append(nodes[:-1], 1.0)
    return points_from_x(nodes)


# ---------------------------------------------------------------------------
# panel construction
# ---------------------------------------------------------------------------

@dataclass
class PanelSet:
    """Composite quadrature structure over a cell partition of [-1, 1], laid
    out in x order.

    Arrays are flat over all quadrature points: the left tail pseudo-point
    first, the right one last, and between them the Gauss panels of
    ``n_gauss`` points each, cell by cell in x order, so ``a[1:-1].reshape(-1,
    n_gauss)`` holds one panel per row and ``panel_cell`` (nondecreasing)
    names the grid cell of each.  The points ascend in x and, at equal x (x
    ties within float spacing of the endpoints), in y at -1 and against y at
    +1.  ``memo`` holds what the solver keeps with the structure, by name:
    the grid nodes' places in a panel run, set when it is built, and the
    weight values at the points, filled on first use.
    """

    pts: Points
    w: np.ndarray          # quadrature weights (dx included)
    panel_cell: np.ndarray  # int, per Gauss panel
    n_cells: int
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _geometric(start: float, ratio: float, count: int) -> np.ndarray:
    """start * ratio^k for k = 1..count, each the product of the previous
    term and ``ratio`` (as repeated ``*=`` makes them)."""
    return np.multiply.accumulate(np.concatenate([[start], np.full(count, ratio)]))[1:]


def endpoint_panel_edges(y_hi: float, y_cut: float, ratio: float = 0.25) -> np.ndarray:
    """Descending ladder of distances y_hi, y_hi*ratio, ..., down to y_cut."""
    # enough rungs to pass y_cut (a subnormal floor for y_cut = 0)
    count = int(math.log(max(y_cut, 5e-324) / y_hi) / math.log(ratio)) + 3
    ys = _geometric(y_hi, ratio, max(count, 1))
    return np.concatenate([[y_hi], ys[ys > y_cut], [y_cut]])


def _split_edges_at(edges: np.ndarray, breaks) -> np.ndarray:
    """Insert break values into a sorted (ascending), distinct edge array."""
    b = np.asarray(breaks, dtype=float)
    return np.unique(np.concatenate([edges, b[(b > edges[0]) & (b < edges[-1])]]))


def _endpoint_ladder(y_hi: float, y_cut: float, breaks) -> np.ndarray:
    """Ascending panel edges in y of an endpoint cell reaching y_hi."""
    edges = endpoint_panel_edges(y_hi, min(y_cut, y_hi / 4.0))[::-1]
    return edges if breaks is None else _split_edges_at(edges, breaks)


def build_panels(
    grid: Points,
    n_gauss: int = 12,
    y_cut_left: float = 1e-32,
    y_cut_right: float = 1e-32,
    edge_breaks_left: np.ndarray | None = None,
    edge_breaks_right: np.ndarray | None = None,
    ladder_nodes: tuple[float, ...] = (),
) -> PanelSet:
    """Panels for the cell partition induced by ``grid``.

    Interior cells get one Gauss panel each.  The two cells touching the
    endpoints get geometric ladder panels in the y coordinate, split at
    ``edge_breaks_*`` (distances, e.g. truncation edges lying below the grid
    floor).  Cells with an edge in ``ladder_nodes`` are graded geometrically
    toward that edge, resolving the Hoelder kink of the integrand at a flux
    sign change.

    Each endpoint ladder ends in one pseudo-point at the ladder bottom y0,
    weighted y0: the structure reads no integrand, and each sum closes the
    tail below y0 at its integrand's power (``close_tails``).  The
    pseudo-points are the first and the last point.

    The layout is x order (see ``PanelSet``): the pseudo-points at the ends
    and between them the panels cell by cell, where in the right endpoint
    cell the panels and their points run by descending y; all of them are
    laid out in one pass over the arrays of panel ends.
    """
    gx, gs, gy = grid.x, grid.side, grid.y
    n_cells = len(gx) - 1
    t, tw = gauss_rule(n_gauss)

    # the cell below a ladder node is graded toward its upper end, the cell
    # above toward its lower end; endpoint cells keep their own ladders
    toward: dict[int, int] = {}
    for ln in ladder_nodes:
        idx = int(np.searchsorted(gx, ln))
        if idx < len(gx) and gx[idx] == ln:
            for c, end in ((idx - 1, 1), (idx, -1)):
                if 0 < c < n_cells - 1:
                    toward.setdefault(c, end)

    # ascending ladder edges in y from each endpoint
    ends = [_endpoint_ladder(gy[1] if gs[1] < 0 else 1.0 + gx[1], y_cut_left, edge_breaks_left),
            _endpoint_ladder(gy[-2] if gs[-2] > 0 else 1.0 - gx[-2], y_cut_right,
                             edge_breaks_right)]
    # the panels [lo, hi] of each laddered cell, in x (side 0) or in y from
    # its side, in x order; every other cell is one panel in x
    ladders = {0: (ends[0][:-1], ends[0][1:], -1.0),
               n_cells - 1: (ends[1][-2::-1], ends[1][:0:-1], 1.0)}
    for c, end in toward.items():
        e = _ladder_edges(gx[c], gx[c + 1], end)
        ladders[c] = (e[:-1], e[1:], 0.0)
    lo, hi, side, cell = [], [], [], []
    plain = 0  # the first cell not laid out yet
    for c in sorted(ladders):
        c_lo, c_hi, sd = ladders[c]
        lo += [gx[plain:c], c_lo]
        hi += [gx[plain + 1:c + 1], c_hi]
        side += [np.zeros(c - plain), np.full(c_lo.size, sd)]
        cell += [np.arange(plain, c), np.full(c_lo.size, c)]
        plain = c + 1
    lo, hi, side, cell = map(np.concatenate, (lo, hi, side, cell))
    h = hi - lo
    keep = h > 0.0
    lo, h, side, cell = lo[keep], h[keep], side[keep], cell[keep]

    # the right endpoint cell's points run in descending y
    down = (side > 0.0)[:, None]
    coord = lo[:, None] + np.where(down, t[::-1], t) * h[:, None]
    sides = side[:, None]
    on_edge = sides != 0.0
    x = np.where(on_edge, sides * (1.0 - coord), coord)
    y = np.where(on_edge, coord, 1.0 - np.abs(coord))
    sides = np.where(on_edge, sides, np.where(coord >= 0.0, 1.0, -1.0))
    w = h[:, None] * np.where(down, tw[::-1], tw)

    y_tail = np.asarray([ends[0][0], ends[1][0]])
    s_tail = np.asarray([-1.0, 1.0])

    def with_tails(a: np.ndarray, tails: np.ndarray) -> np.ndarray:
        return np.concatenate([tails[:1], a.ravel(), tails[1:]])

    return PanelSet(
        pts=Points(x=with_tails(x, s_tail * (1.0 - y_tail)), side=with_tails(sides, s_tail),
                   y=with_tails(y, y_tail)),
        w=with_tails(w, y_tail),
        panel_cell=cell,
        n_cells=n_cells,
    )


def close_tails(w: np.ndarray, pts: Points, sigmas) -> np.ndarray:
    """A copy of the weights ``w`` of a ``PanelSet`` with the tail
    pseudo-point of each side (the first and the last point, at the ladder
    bottom y0) weighted y0 / (1 - sigma): the integral below y0 of an
    integrand ~ y^(-sigma), sigma < 1, per unit of its value at y0."""
    w = w.copy()
    w[[0, -1]] = pts.y[[0, -1]] / (1.0 - np.asarray(sigmas, dtype=float))
    return w


def _ladder_edges(a: float, b: float, toward: int, ratio: float = 0.25,
                  levels: int = 30) -> np.ndarray:
    """Sub-panel edges of [a, b] accumulating geometrically at one edge."""
    width = b - a
    h = _geometric(width, ratio, levels)
    h = h[h >= 1e-16 * width]
    return a + np.unique(np.concatenate([[0.0, width], width - h if toward > 0 else h]))


# ---------------------------------------------------------------------------
# the graded cumulative (densities, weights, gradient norms)
# ---------------------------------------------------------------------------

def concat_points(*parts: Points) -> Points:
    return Points(*(np.concatenate([getattr(q, k) for q in parts]) for k in ("x", "side", "y")))


def graded_cumulative(f, pts: Points, joins: Points | None = None,
                      sing: tuple[float, float] = (0.0, 0.0), y_resolved: bool = True,
                      anchor: float = 0.0, rel_tol: float = 1e-10,
                      corners: tuple[float, ...] = ()) -> np.ndarray:
    """Signed integral of a vectorized f(Points) from ``anchor`` to each point.

    A composite 10-point Gauss rule between consecutive sorted points, which
    are joined by ``joins`` (atoms, kinks), x = 0, the nodes of
    ``graded_grid()``, a dyadic ladder in y toward each endpoint and a
    dyadic ladder in |x - c| down to 2^-40 on both sides of each of the
    ``corners`` c (declared breaks, where f may behave like a power of
    |x - c|), cut to the span of the points and the anchor.  Pieces past
    |x| = 1/2 are integrated in the distance y to their endpoint, the others
    in x.
    A point at x = +-1 is taken at the ladder bottom y0 and closed below at
    the declared power f ~ dist^(-a), a = ``sing`` on that side: f(y0) y0 /
    (1 - a), or +-inf for a >= 1.  y0 is 1e-9 where f reads x (x stops
    resolving the distance to the endpoint below that) and 2^-50 where f is
    ``y_resolved``.  The result is checked against the same pieces at 16
    Gauss points: a disagreement above ``rel_tol`` of the mass they cover
    raises QuadratureError (an undeclared singularity or kink).
    """
    n_out = len(pts)
    y0 = 2.0 ** -50 if y_resolved else 1e-9
    edge = np.flatnonzero(pts.y == 0.0)
    x, y = pts.x.copy(), pts.y.copy()
    x[edge], y[edge] = pts.side[edge] * (1.0 - y0), y0
    ends = Points(x=x, side=pts.side, y=y)
    steps = 2.0 ** -np.arange(1, 41)
    near = np.add.outer(np.asarray(corners, dtype=float), np.concatenate([-steps, [0.0], steps]))
    parts = [ends, points_from_x(np.asarray([anchor, 0.0])), graded_grid(),
             points_from_x(near[np.abs(near) < 1.0])]
    for side in (-1.0, 1.0):
        if np.any(pts.side == side):
            depth = int(np.ceil(-np.log2(np.min(y[pts.side == side]))))
            parts.append(points_from_edge(side, 2.0 ** -np.arange(1, max(depth, 1))))
    every = concat_points(*parts, *(() if joins is None else (joins,)))
    # the points and the anchor come first; joins at x = +-1 are dropped
    order = np.flatnonzero((every.y > 0.0) | (np.arange(every.x.size) <= n_out))
    order = order[np.lexsort((-every.side[order] * every.y[order], every.x[order]))]
    rank = np.empty(every.x.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    lo, hi = int(rank[:n_out + 1].min()), int(rank[:n_out + 1].max())
    xs, sides, ys = (getattr(every, k)[order[lo:hi + 1]] for k in ("x", "side", "y"))

    # one evaluation of both rules, the 10 nodes and then the 16 check
    # nodes, on the pieces of nonzero length (joins repeat grid nodes); in
    # y where the piece reaches past |x| = 1/2 on one side (y = 1 - |x| is
    # exact there), else in x
    in_y = (sides[:-1] == sides[1:]) & (np.minimum(ys[:-1], ys[1:]) < 0.5)
    u_l = np.where(in_y, ys[:-1], xs[:-1])
    h = np.where(in_y, ys[1:], xs[1:]) - u_l
    live = np.flatnonzero(h)
    in_y = in_y[live]
    (t, tw), (tc, twc) = gauss_rule(10), gauss_rule(16)
    nodes = u_l[live] + np.concatenate([t, tc])[:, None] * h[live]
    side_n = np.where(in_y, sides[live], np.where(nodes >= 0.0, 1.0, -1.0))
    vals = np.asarray(f(Points(x=np.where(in_y, side_n * (1.0 - nodes), nodes).ravel(),
                               side=side_n.ravel(),
                               y=np.where(in_y, nodes, 1.0 - np.abs(nodes)).ravel())),
                      dtype=float).reshape(nodes.shape)
    i0 = int(rank[n_out]) - lo
    S = []
    for rule, part in ((tw, vals[:10]), (twc, vals[10:])):
        inc = np.zeros(h.size)
        inc[live] = np.abs(h[live]) * (rule @ part)
        S_sorted = np.concatenate([-np.cumsum(inc[:i0][::-1])[::-1], [0.0], np.cumsum(inc[i0:])])
        S.append(S_sorted[rank[:n_out] - lo])
    err, scale = np.abs(S[0] - S[1]), float(np.sum(np.abs(inc)))
    if not np.all(err <= rel_tol * scale):
        raise QuadratureError(
            "quadrature.graded_cumulative: 10- and 16-point rules disagree by "
            f"{float(np.nanmax(err)) / max(scale, 1e-300):.3e} relative")
    out = S[0]
    if edge.size:
        a = np.where(pts.side[edge] < 0.0, *sing)
        f0 = np.asarray(f(Points(x=x[edge], side=pts.side[edge], y=y[edge])), dtype=float)
        with np.errstate(divide="ignore"):
            out[edge] += pts.side[edge] * np.where(a < 1.0, f0 * y0 / (1.0 - a), np.inf)
    return out


# ---------------------------------------------------------------------------
# root finding: safeguarded Newton
# ---------------------------------------------------------------------------

def bracketed_root(g, lo: float, hi: float, xtol: float = 1e-12,
                   max_iter: int = 200, x0: float | None = None) -> tuple[float, float, int]:
    """Root of a continuous nondecreasing g with g(lo) <= 0 <= g(hi), where
    g returns (g, g').

    Newton steps from ``x0`` (default the midpoint), bisecting where a step
    leaves the bracket or g' is not finite and positive; the bracket ends
    are not evaluated.  Stops after two successive steps of at most ``xtol``
    (the second takes the root to the rounding of g), a step within one ulp,
    or a bracket of width ``xtol``.  Returns (root, g at the last
    evaluation, evaluations).
    """
    if max_iter < 1:
        raise ValidationError(f"quadrature.bracketed_root: max_iter={max_iter!r} < 1")
    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    short = False
    for evals in range(1, max_iter + 1):
        g_x, dg = g(x)
        if g_x == 0.0:
            return x, 0.0, evals
        if g_x < 0.0:
            lo = x
        else:
            hi = x
        step = -g_x / dg if 0.0 < dg < np.inf else np.nan
        if abs(step) <= np.spacing(abs(x)):
            return x, g_x, evals
        if abs(step) <= xtol:
            if short:
                return x + step, g_x, evals
            short = True
            x += step
            continue
        short = False
        if not lo < x + step < hi:  # also a nan step
            step = 0.5 * (lo + hi) - x
        if hi - lo <= xtol:
            return x + step, g_x, evals
        x += step
    return x, g_x, max_iter
