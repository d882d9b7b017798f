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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(n)
    return (t + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=8)
def gauss_cumulative(n: int) -> np.ndarray:
    """Matrix C with (C @ f)[i] the integral over [0, t_i] of the polynomial
    through the values f at the Gauss-Legendre nodes t of ``gauss_rule(n)``."""
    leg = np.polynomial.legendre
    x = 2.0 * gauss_rule(n)[0] - 1.0
    anti = np.column_stack([leg.legval(x, leg.legint(np.eye(n)[j], lbnd=-1.0)) for j in range(n)])
    return 0.5 * anti @ np.linalg.inv(leg.legvander(x, n - 1))


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
    while len(nodes) < n_nodes:
        gaps = np.diff(np.asarray(nodes))
        i = int(np.argmax(gaps))
        nodes.insert(i + 1, nodes[i] + gaps[i] / 2.0)
    return tuple(nodes)


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
    """Composite quadrature structure over a cell partition of [-1, 1].

    Arrays are flat over all quadrature points; ``cell_id`` maps each point to
    the grid cell it integrates, ``panel_id`` to its panel.
    """

    pts: Points
    w: np.ndarray          # quadrature weights (dx included)
    cell_id: np.ndarray    # int, per point
    panel_id: np.ndarray   # int, per point
    panel_cell: np.ndarray  # int, per panel
    n_cells: int
    tail: np.ndarray       # int, the left and the right tail pseudo-point


def endpoint_panel_edges(y_hi: float, y_cut: float, ratio: float = 0.25) -> np.ndarray:
    """Descending ladder of distances y_hi, y_hi*ratio, ..., down to y_cut."""
    edges = [y_hi]
    y = y_hi
    while y * ratio > y_cut:
        y *= ratio
        edges.append(y)
    edges.append(y_cut)
    return np.asarray(edges)


def _split_edges_at(edges: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """Insert break values into a sorted (ascending) edge array."""
    if breaks.size == 0:
        return edges
    lo, hi = edges[0], edges[-1]
    b = breaks[(breaks > lo) & (breaks < hi)]
    if b.size == 0:
        return edges
    return np.unique(np.concatenate([edges, b]))


def build_panels(
    grid: Points,
    n_gauss: int = 12,
    y_cut_left: float = 1e-32,
    y_cut_right: float = 1e-32,
    edge_ratio: float = 0.25,
    interior_breaks: np.ndarray | None = None,
    edge_breaks_left: np.ndarray | None = None,
    edge_breaks_right: np.ndarray | None = None,
    ladder_nodes: tuple[float, ...] = (),
    tail_s_left: float = 0.0,
    tail_s_right: float = 0.0,
) -> PanelSet:
    """Panels for the cell partition induced by ``grid``.

    Interior cells get one Gauss panel each (split at ``interior_breaks``
    if any fall inside).  The two cells touching the endpoints get geometric
    ladder panels in the y coordinate, split at ``edge_breaks_*`` (distances,
    e.g. truncation edges lying below the grid floor).  Cells with an edge in
    ``ladder_nodes`` are graded geometrically toward that edge, resolving the
    Hoelder kink of the integrand at a flux sign change.

    Each endpoint ladder is closed by one pseudo-panel: a single point at the
    ladder bottom y0 carrying weight y0/(1 - s), which equals the analytic
    tail integral of C * y^(-s) below y0 when the integrand follows the
    declared power ``tail_s_*`` there (and is negligible otherwise).
    ``PanelSet.tail`` holds the two pseudo-points, so an integrand with
    another declared power can re-close them.
    """
    gx, gs, gy = grid.x, grid.side, grid.y
    n_cells = len(gx) - 1
    t, tw = gauss_rule(n_gauss)
    interior_breaks = np.asarray([] if interior_breaks is None else interior_breaks, dtype=float)

    # classify cells: the vast majority are plain single-panel cells
    special: dict[int, str] = {0: "left", n_cells - 1: "right"}
    for br in interior_breaks:
        idx = int(np.searchsorted(gx, br, side="right")) - 1
        if 0 < idx < n_cells - 1 and gx[idx] < br < gx[idx + 1]:
            special.setdefault(idx, "split")
    for ln in ladder_nodes:
        idx = int(np.searchsorted(gx, ln))
        if 0 <= idx < len(gx) and gx[idx] == ln:
            if 0 < idx - 1 < n_cells - 1 and special.get(idx - 1) is None:
                special[idx - 1] = "ladder_hi"
            if 0 < idx < n_cells - 1 and special.get(idx) is None:
                special[idx] = "ladder_lo"

    plain = np.asarray([c for c in range(n_cells) if c not in special], dtype=np.int64)
    a_p, b_p = gx[plain], gx[plain + 1]
    h_p = b_p - a_p
    xs_plain = (a_p[:, None] + t[None, :] * h_p[:, None]).ravel()
    pp = points_from_x(xs_plain)
    px = [pp.x]
    ps = [pp.side]
    py = [pp.y]
    pw = [(h_p[:, None] * tw[None, :]).ravel()]
    cell_ids = [np.repeat(plain, n_gauss)]
    n_plain = plain.size
    panel_ids = [np.repeat(np.arange(n_plain, dtype=np.int64), n_gauss)]
    panel_cell = list(plain)
    pid = n_plain
    tail = []

    def add_panel(cell, a_x, b_x, a_y=None, b_y=None, side=0):
        nonlocal pid
        if side == 0:
            h = b_x - a_x
            if h <= 0.0:
                return
            pp = points_from_x(a_x + t * h)
        else:
            h = b_y - a_y
            if h <= 0.0:
                return
            pp = points_from_edge(side, a_y + t * h)
        px.append(pp.x)
        ps.append(pp.side)
        py.append(pp.y)
        pw.append(tw * h)
        cell_ids.append(np.full(n_gauss, cell, dtype=np.int64))
        panel_ids.append(np.full(n_gauss, pid, dtype=np.int64))
        panel_cell.append(cell)
        pid += 1

    def add_tail_point(cell, side, y0, s):
        nonlocal pid
        s = min(max(s, 0.0), 0.995)
        tail.append(sum(a.size for a in px))
        pp = points_from_edge(side, np.asarray([y0]))
        px.append(pp.x)
        ps.append(pp.side)
        py.append(pp.y)
        pw.append(np.asarray([y0 / (1.0 - s)]))
        cell_ids.append(np.asarray([cell], dtype=np.int64))
        panel_ids.append(np.asarray([pid], dtype=np.int64))
        panel_cell.append(cell)
        pid += 1

    for c, kind in special.items():
        a, b = gx[c], gx[c + 1]
        if kind == "left":
            y_hi = gy[1] if gs[1] < 0 else 1.0 + gx[1]
            edges = endpoint_panel_edges(y_hi, min(y_cut_left, y_hi / 4.0), edge_ratio)[::-1]
            if edge_breaks_left is not None:
                edges = _split_edges_at(edges, np.asarray(edge_breaks_left, dtype=float))
            for j in range(len(edges) - 1):
                add_panel(c, None, None, a_y=edges[j], b_y=edges[j + 1], side=-1)
            add_tail_point(c, -1, edges[0], tail_s_left)
        elif kind == "right":
            y_hi = gy[-2] if gs[-2] > 0 else 1.0 - gx[-2]
            edges = endpoint_panel_edges(y_hi, min(y_cut_right, y_hi / 4.0), edge_ratio)[::-1]
            if edge_breaks_right is not None:
                edges = _split_edges_at(edges, np.asarray(edge_breaks_right, dtype=float))
            for j in range(len(edges) - 1):
                add_panel(c, None, None, a_y=edges[j], b_y=edges[j + 1], side=1)
            add_tail_point(c, 1, edges[0], tail_s_right)
        elif kind == "split":
            sub = interior_breaks[(interior_breaks > a) & (interior_breaks < b)]
            cuts = np.concatenate([[a], np.sort(sub), [b]])
            for j in range(len(cuts) - 1):
                add_panel(c, cuts[j], cuts[j + 1])
        else:  # ladder toward one edge
            toward = +1 if kind == "ladder_hi" else -1
            for lo_e, hi_e in _ladder_edges(a, b, toward):
                add_panel(c, lo_e, hi_e)

    pts = Points(x=np.concatenate(px), side=np.concatenate(ps), y=np.concatenate(py))
    return PanelSet(
        pts=pts,
        w=np.concatenate(pw),
        cell_id=np.concatenate(cell_ids),
        panel_id=np.concatenate(panel_ids),
        panel_cell=np.asarray(panel_cell, dtype=np.int64),
        n_cells=n_cells,
        tail=np.asarray(tail, dtype=np.int64),
    )


def _ladder_edges(a: float, b: float, toward: int, ratio: float = 0.25,
                  levels: int = 30) -> list[tuple[float, float]]:
    """Sub-panel edges of [a, b] accumulating geometrically at one edge."""
    width = b - a
    offs = [0.0, width]
    h = width
    for _ in range(levels):
        h *= ratio
        if h < 1e-16 * width:
            break
        offs.append(width - h if toward > 0 else h)
    offs = np.unique(np.asarray(offs))
    edges = a + offs
    return [(edges[j], edges[j + 1]) for j in range(len(edges) - 1)]


# ---------------------------------------------------------------------------
# standalone graded integration (densities, energies, norms)
# ---------------------------------------------------------------------------

def integrate_graded(
    f,
    a: float,
    b: float,
    sing_a: float = 0.0,
    sing_b: float = 0.0,
    n_gauss: int = 16,
    breakpoints: tuple[float, ...] = (),
) -> float:
    """Integral of a vectorized f(Points) over (a, b) inside [-1, 1].

    ``sing_a``/``sing_b`` declare power blow-up exponents of f at the ends of
    the interval *when that end touches -1 or +1* (f ~ C*dist^(-s), s < 1).
    Interior endpoints need no special treatment.  Breakpoints split panels.
    """
    if b <= a:
        return 0.0
    cuts = sorted({a, b, *(c for c in breakpoints if a < c < b)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += _integrate_piece(f, lo, hi, sing_a if lo == a else 0.0,
                                  sing_b if hi == b else 0.0, n_gauss)
    return total


def _integrate_piece(f, a, b, sing_a, sing_b, n_gauss):
    t, tw = gauss_rule(n_gauss)
    left_edge = a <= -1.0 + 1e-15 and sing_a != 0.0
    right_edge = b >= 1.0 - 1e-15 and sing_b != 0.0
    mid = 0.5 * (a + b)
    total = 0.0
    if left_edge:
        y_hi = mid + 1.0
        total += _edge_ladder(f, -1, y_hi, sing_a, n_gauss)
        lo_plain = mid
    else:
        lo_plain = a
    if right_edge:
        y_hi = 1.0 - mid
        total += _edge_ladder(f, 1, y_hi, sing_b, n_gauss)
        hi_plain = mid
    else:
        hi_plain = b
    if hi_plain > lo_plain:
        # a couple of geometric refinements toward each plain end keep mild
        # (integrable, undeclared) corner behavior harmless
        edges = _bi_graded_edges(lo_plain, hi_plain)
        for j in range(len(edges) - 1):
            h = edges[j + 1] - edges[j]
            xs = edges[j] + t * h
            vals = f(points_from_x(xs))
            total += float(np.dot(tw, vals)) * h
    return total


def _edge_ladder(f, side: int, y_hi: float, sing: float, n_gauss: int,
                 y_stop: float = 1e-9) -> float:
    """Graded panels toward an endpoint, closed below ``y_stop`` by the
    analytic tail of the declared power.

    Generic evaluators see positions as x values, which stop resolving the
    endpoint distance near float spacing; instead of sampling into that noise
    the ladder halts at ``y_stop`` and adds C * y_stop^(1-s)/(1-s) with C
    fitted from the innermost reliable sample.  Exact for pure powers;
    negative ``sing`` declares a vanishing fractional power, which needs the
    same grading for full accuracy.
    """
    t, tw = gauss_rule(n_gauss)
    s = min(sing, 0.995)
    y_stop = min(y_stop, y_hi / 4.0)
    edges = endpoint_panel_edges(y_hi, y_stop)[::-1]
    total = 0.0
    for j in range(len(edges) - 1):
        h = edges[j + 1] - edges[j]
        ys = edges[j] + t * h
        vals = f(points_from_edge(side, ys))
        total += float(np.dot(tw, vals)) * h
    y_ref = edges[0]
    c_hat = float(f(points_from_edge(side, np.asarray([y_ref])))[0]) * y_ref ** s
    total += c_hat * y_ref ** (1.0 - s) / (1.0 - s)
    return total


def _bi_graded_edges(a: float, b: float, levels: int = 10, ratio: float = 0.3) -> np.ndarray:
    width = b - a
    offs = [0.0, 0.5]
    h = 0.5
    for _ in range(levels):
        h *= ratio
        offs.append(h)
        offs.append(1.0 - h)
    offs.append(1.0)
    return a + width * np.unique(np.asarray(offs))


# ---------------------------------------------------------------------------
# root finding: monotone bracketed bisection with secant acceleration
# ---------------------------------------------------------------------------

def bracketed_root(g, lo: float, hi: float, g_lo: float | None = None,
                   g_hi: float | None = None, xtol: float = 1e-12,
                   max_iter: int = 200) -> tuple[float, float, int]:
    """Root of a continuous nondecreasing g with g(lo) <= 0 <= g(hi).

    Alternates secant steps with bisection so the bracket at least halves
    every other iteration; terminates when the bracket width drops below
    ``xtol`` or g hits zero exactly.  Returns (root, g(root), iterations).
    """
    if g_lo is None:
        g_lo = g(lo)
    if g_hi is None:
        g_hi = g(hi)
    if g_lo > 0.0 or g_hi < 0.0:
        raise ValueError(f"bracketed_root: invalid bracket g({lo})={g_lo}, g({hi})={g_hi}")
    if g_lo == 0.0:
        return lo, 0.0, 0
    if g_hi == 0.0:
        return hi, 0.0, 0
    best_x, best_g = (lo, g_lo) if abs(g_lo) < abs(g_hi) else (hi, g_hi)
    iters = 0
    while iters < max_iter:
        iters += 1
        width = hi - lo
        if width <= xtol:
            break
        use_secant = (iters % 2 == 1) and (g_hi > g_lo)
        if use_secant:
            m = lo - g_lo * (hi - lo) / (g_hi - g_lo)
            # keep strictly inside, else fall back to bisection
            if not (lo + 0.01 * width < m < hi - 0.01 * width):
                m = lo + 0.5 * width
        else:
            m = lo + 0.5 * width
        g_m = g(m)
        if abs(g_m) < abs(best_g):
            best_x, best_g = m, g_m
        if g_m == 0.0:
            return m, 0.0, iters
        if g_m < 0.0:
            lo, g_lo = m, g_m
        else:
            hi, g_hi = m, g_m
    return best_x, best_g, iters
