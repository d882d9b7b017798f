import numpy as np
import pytest

from sublap.quadrature import (
    PanelSet,
    Points,
    _graded_base,
    build_panels,
    gauss_rule,
    graded_grid,
    points_from_edge,
    points_from_x,
)


# -- the per-panel loop that build_panels lays out as arrays ----------------------

def _reference_endpoint_edges(y_hi, y_cut, ratio=0.25):
    edges = [y_hi]
    y = y_hi
    while y * ratio > y_cut:
        y *= ratio
        edges.append(y)
    edges.append(y_cut)
    return np.asarray(edges)


def _reference_ladder_edges(a, b, toward, ratio=0.25, levels=30):
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


def _split(edges, breaks):
    b = np.asarray(breaks, dtype=float)
    return np.unique(np.concatenate([edges, b[(b > edges[0]) & (b < edges[-1])]]))


def _reference_build_panels(grid, n_gauss=12, y_cut_left=1e-32, y_cut_right=1e-32,
                            edge_ratio=0.25, edge_breaks_left=None, edge_breaks_right=None,
                            ladder_nodes=(), tail_s_left=0.0, tail_s_right=0.0):
    """One closure call per panel, cell by cell in x order, between the left
    and the right tail pseudo-point; the right endpoint cell's panels and
    their points by descending y."""
    gx, gs, gy = grid.x, grid.side, grid.y
    n_cells = len(gx) - 1
    t, tw = gauss_rule(n_gauss)

    special = {0: "left", n_cells - 1: "right"}
    for ln in ladder_nodes:
        idx = int(np.searchsorted(gx, ln))
        if 0 <= idx < len(gx) and gx[idx] == ln:
            if 0 < idx - 1 < n_cells - 1 and special.get(idx - 1) is None:
                special[idx - 1] = "ladder_hi"
            if 0 < idx < n_cells - 1 and special.get(idx) is None:
                special[idx] = "ladder_lo"

    px, ps, py, pw, panel_cell = [], [], [], [], []

    def add(pp, w):
        px.append(pp.x)
        ps.append(pp.side)
        py.append(pp.y)
        pw.append(w)

    def add_panel(cell, a_x, b_x, a_y=None, b_y=None, side=0):
        if side == 0:
            h = b_x - a_x
            if h <= 0.0:
                return
            add(points_from_x(a_x + t * h), tw * h)
        else:
            h = b_y - a_y
            if h <= 0.0:
                return
            if side > 0:  # by descending y
                add(points_from_edge(side, (a_y + t * h)[::-1]), (tw * h)[::-1])
            else:
                add(points_from_edge(side, a_y + t * h), tw * h)
        panel_cell.append(cell)

    def tail_point(side, y0, s):
        pp = points_from_edge(side, np.asarray([y0]))
        return pp, np.asarray([y0 / (1.0 - min(s, 0.995))])

    def edges_from(y_hi, y_cut, breaks):
        edges = _reference_endpoint_edges(y_hi, min(y_cut, y_hi / 4.0), edge_ratio)[::-1]
        return edges if breaks is None else _split(edges, breaks)

    left = edges_from(gy[1] if gs[1] < 0 else 1.0 + gx[1], y_cut_left, edge_breaks_left)
    right = edges_from(gy[-2] if gs[-2] > 0 else 1.0 - gx[-2], y_cut_right, edge_breaks_right)
    add(*tail_point(-1, left[0], tail_s_left))
    for c in range(n_cells):
        kind = special.get(c)
        if kind == "left":
            for j in range(len(left) - 1):
                add_panel(c, None, None, a_y=left[j], b_y=left[j + 1], side=-1)
        elif kind == "right":
            for j in reversed(range(len(right) - 1)):
                add_panel(c, None, None, a_y=right[j], b_y=right[j + 1], side=1)
        elif kind is None:
            add_panel(c, gx[c], gx[c + 1])
        else:
            toward = +1 if kind == "ladder_hi" else -1
            for lo_e, hi_e in _reference_ladder_edges(gx[c], gx[c + 1], toward):
                add_panel(c, lo_e, hi_e)
    add(*tail_point(1, right[0], tail_s_right))

    return PanelSet(
        pts=Points(x=np.concatenate(px), side=np.concatenate(ps), y=np.concatenate(py)),
        w=np.concatenate(pw),
        panel_cell=np.asarray(panel_cell, dtype=np.int64),
        n_cells=n_cells,
    )


def _panel_case(seed: int) -> tuple[Points, dict]:
    rng = np.random.default_rng(seed)
    y_floor = float(10.0 ** -rng.uniform(3.0, 13.0))
    grid = graded_grid(int(rng.integers(8, 600)), float(rng.uniform(0.5, 0.95)), y_floor,
                       tuple(rng.uniform(-1.0, 1.0, int(rng.integers(0, 4)))))
    # kinks at grid nodes (next to the endpoint cells too) and off the grid
    at_nodes = grid.x[rng.integers(0, grid.x.size, int(rng.integers(0, 4)))]
    ladder_nodes = tuple(at_nodes) + tuple(rng.uniform(-1.0, 1.0, int(rng.integers(0, 2))))
    if seed % 7 == 0:
        ladder_nodes += (grid.x[2], grid.x[-3])

    def breaks():
        if seed % 5 == 0:
            return None
        # edges below the grid floor, some of them below the ladder bottom
        return y_floor * 10.0 ** -rng.uniform(0.0, 250.0, int(rng.integers(0, 4)))

    return grid, dict(
        n_gauss=(8, 12)[seed % 2],
        y_cut_left=float(10.0 ** -rng.uniform(1.0, 280.0)),
        y_cut_right=float(10.0 ** -rng.uniform(1.0, 280.0)),
        edge_breaks_left=breaks(), edge_breaks_right=breaks(),
        ladder_nodes=ladder_nodes,
        tail_s_left=float(rng.uniform(-1.0, 2.0)), tail_s_right=float(rng.uniform(-1.0, 2.0)))


@pytest.mark.parametrize("seed", range(120))
def test_build_panels_matches_the_per_panel_loop(seed):
    grid, kwargs = _panel_case(seed)
    got = build_panels(grid, **kwargs)
    ref = _reference_build_panels(grid, **kwargs)
    for name in ("x", "side", "y"):
        assert np.array_equal(getattr(got.pts, name), getattr(ref.pts, name))
    for name in ("w", "panel_cell"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    assert got.n_cells == ref.n_cells


@pytest.mark.parametrize("seed", range(120))
def test_panels_are_laid_out_in_x_order(seed):
    # the contract the solver's consumers read the arrays by: x order, ties
    # in x (within float spacing of an endpoint) by y toward that endpoint,
    # the tail pseudo-points first and last, one panel per row in between
    grid, kwargs = _panel_case(seed)
    n = kwargs["n_gauss"]
    panels = build_panels(grid, **kwargs)
    x, side, y = panels.pts.x, panels.pts.side, panels.pts.y
    tie = np.diff(x) == 0.0
    assert np.all(np.diff(x) >= 0.0)
    assert np.array_equal(side[1:][tie], side[:-1][tie])
    # at equal x, y ascends at -1 and descends at +1
    assert np.all(side[1:][tie] * np.diff(y)[tie] <= 0.0)
    # the pseudo-points: each ladder's bottom, first and last
    assert (side[0], side[-1]) == (-1.0, 1.0)
    assert y[0] < np.min(y[1:-1][side[1:-1] < 0.0])
    assert y[-1] < np.min(y[1:-1][side[1:-1] > 0.0])
    for i, s in ((0, kwargs["tail_s_left"]), (-1, kwargs["tail_s_right"])):
        assert panels.w[i] == y[i] / (1.0 - min(s, 0.995))
    # one Gauss panel per row, each inside its cell, the cells in order
    cell = panels.panel_cell
    assert panels.w.size == 2 + n * cell.size
    assert np.all(np.diff(cell) >= 0) and cell[0] == 0 and cell[-1] == panels.n_cells - 1
    rows = x[1:-1].reshape(-1, n)
    assert np.all(rows >= grid.x[cell][:, None]) and np.all(rows <= grid.x[cell + 1][:, None])


# -- the graded base: repeated largest-gap bisection ------------------------------

def _reference_graded_base(n_nodes, ratio, y_floor):
    # the list bisection the heap replaced: the first of the largest gaps
    ys = [1.0]
    while ys[-1] * ratio >= y_floor:
        ys.append(ys[-1] * ratio)
    nodes = sorted({-1.0, 1.0, *(-1.0 + y for y in ys), *(1.0 - y for y in ys)})
    while len(nodes) < n_nodes:
        gaps = np.diff(np.asarray(nodes))
        i = int(np.argmax(gaps))
        nodes.insert(i + 1, nodes[i] + gaps[i] / 2.0)
    return tuple(nodes)


@pytest.mark.parametrize("n_nodes, ratio, y_floor", [
    (8, 0.85, 1e-13), (192, 0.85, 1e-13), (512, 0.85, 1e-13), (700, 0.85, 1e-13),
    (4096, 0.85, 1e-13), (300, 0.5, 1e-3), (1000, 0.93, 1e-8),
])
def test_graded_base_bisects_the_leftmost_largest_gap(n_nodes, ratio, y_floor):
    assert _graded_base(n_nodes, ratio, y_floor) == _reference_graded_base(n_nodes, ratio, y_floor)
