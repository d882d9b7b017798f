import numpy as np
import pytest

from sublap.quadrature import (
    PanelSet,
    Points,
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
    """One closure call per panel: plain cells, the left ladder and its tail
    pseudo-point, the right ladder and its pseudo-point, the kink ladders."""
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

    plain = np.asarray([c for c in range(n_cells) if c not in special], dtype=np.int64)
    a_p, b_p = gx[plain], gx[plain + 1]
    h_p = b_p - a_p
    pp = points_from_x((a_p[:, None] + t[None, :] * h_p[:, None]).ravel())
    px, ps, py = [pp.x], [pp.side], [pp.y]
    pw = [(h_p[:, None] * tw[None, :]).ravel()]
    cell_ids = [np.repeat(plain, n_gauss)]
    panel_ids = [np.repeat(np.arange(plain.size, dtype=np.int64), n_gauss)]
    panel_cell = list(plain)
    pid = plain.size
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
            edges = _reference_endpoint_edges(y_hi, min(y_cut_left, y_hi / 4.0), edge_ratio)[::-1]
            if edge_breaks_left is not None:
                edges = _split(edges, edge_breaks_left)
            for j in range(len(edges) - 1):
                add_panel(c, None, None, a_y=edges[j], b_y=edges[j + 1], side=-1)
            add_tail_point(c, -1, edges[0], tail_s_left)
        elif kind == "right":
            y_hi = gy[-2] if gs[-2] > 0 else 1.0 - gx[-2]
            edges = _reference_endpoint_edges(y_hi, min(y_cut_right, y_hi / 4.0), edge_ratio)[::-1]
            if edge_breaks_right is not None:
                edges = _split(edges, edge_breaks_right)
            for j in range(len(edges) - 1):
                add_panel(c, None, None, a_y=edges[j], b_y=edges[j + 1], side=1)
            add_tail_point(c, 1, edges[0], tail_s_right)
        else:
            toward = +1 if kind == "ladder_hi" else -1
            for lo_e, hi_e in _reference_ladder_edges(a, b, toward):
                add_panel(c, lo_e, hi_e)

    return PanelSet(
        pts=Points(x=np.concatenate(px), side=np.concatenate(ps), y=np.concatenate(py)),
        w=np.concatenate(pw),
        cell_id=np.concatenate(cell_ids),
        panel_id=np.concatenate(panel_ids),
        panel_cell=np.asarray(panel_cell, dtype=np.int64),
        n_cells=n_cells,
        tail=np.asarray(tail, dtype=np.int64),
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
    for name in ("w", "cell_id", "panel_id", "panel_cell", "tail"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    assert got.n_cells == ref.n_cells
