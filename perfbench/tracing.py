"""Spans and counters at sublap's layer boundaries, installed from outside.

``Tracer.install`` replaces module-level names and class attributes of the
library with wrappers that record a span (name, start, end, parent, operation
id) per call; ``Tracer.uninstall`` puts the originals back.  Spans are kept in
flat arrays while the run lasts and written out at the end.  A span's self
time is its duration minus the durations of its children; calls are
synchronous, so children never overlap.

Wrappers record only while an operation is open (``op_id >= 0``), so the
benchmark's own checks, which also call the library, stay out of the trace.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name): module-level names the layers call through.
# solve_dirichlet, potential, measure_integral and energy_ladder are wrapped
# under every module that imports them, because each import binds its own name.
FUNCTION_TARGETS = (
    ("sublap.solver", "bracketed_root", "solver.root_find"),
    ("sublap.solver", "build_panels", "quadrature.build_panels"),
    ("sublap.solver", "_panel_structure", "solver.panel_structure"),
    ("sublap.solver", "_assemble", "solver.assemble"),
    ("sublap.solver", "_hermite_at_points", "solver.hermite"),
    ("sublap.solver", "solve_dirichlet", "solver.solve_dirichlet"),
    ("sublap.energy", "solve_dirichlet", "solver.solve_dirichlet"),
    ("sublap.wolff", "solve_dirichlet", "solver.solve_dirichlet"),
    ("sublap.trace", "solve_dirichlet", "solver.solve_dirichlet"),
    ("sublap.solver", "potential", "solver.potential"),
    ("sublap.sublinear", "potential", "solver.potential"),
    ("sublap.energy", "energy_ladder", "energy.energy_ladder"),
    ("sublap.sublinear", "energy_ladder", "energy.energy_ladder"),
    ("sublap.trace", "energy_ladder", "energy.energy_ladder"),
    ("sublap.energy", "measure_integral", "energy.measure_integral"),
    ("sublap.sublinear", "measure_integral", "energy.measure_integral"),
    ("sublap.trace", "measure_integral", "energy.measure_integral"),
    ("sublap.wolff", "wolff_truncated", "wolff.wolff_truncated"),
)

# (module, class, method, span name)
METHOD_TARGETS = (
    ("sublap.measures", "RadonMeasure", "cum_center_many", "measures.cum_center_many"),
    ("sublap.measures", "RadonMeasure", "ball_masses", "measures.ball_masses"),
    ("sublap.weights", "Weight", "ball_weight", "weights.ball_weight"),
    ("sublap.solver", "GridFunction", "values_at", "solver.values_at"),
    ("sublap.solver", "_Workspace", "__init__", "solver.workspace_init"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        if self.op_id >= 0:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def run_op(self, op_id: int, kind: str, fn):
        """Run one operation under a root span named ``op.<kind>``."""
        self.op_id = op_id
        idx = self._open(self._name_id("op." + kind))
        try:
            return fn()
        finally:
            self._close(idx)
            self.op_id = -1

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- installation ----------------------------------------------------

    def _special(self, attr: str, fn):
        """Counters that need the call's arguments or result."""
        if attr == "bracketed_root":
            def root_find(g, *args, **kwargs):
                def counted(c):
                    self.count("g_evals", 1)
                    return g(c)
                return fn(counted, *args, **kwargs)
            return root_find
        if attr == "cum_center_many":
            def cum_center_many(measure, pts, *args, **kwargs):
                self.count("cum_points", len(pts))
                return fn(measure, pts, *args, **kwargs)
            return cum_center_many
        if attr == "__init__":
            def init(ws, *args, **kwargs):
                fn(ws, *args, **kwargs)
                panels = getattr(ws, "panels", None)
                if panels is not None:
                    self.count("solve_points", len(panels.w))
            return init
        return fn

    def _replace(self, owner, attr: str, name: str, label: str) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            # a later refactor may rename an internal; its layer then reads 0
            self.missing.append(label)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, self._special(attr, original)))

    def install(self) -> None:
        for mod_name, attr, name in FUNCTION_TARGETS:
            mod = importlib.import_module(mod_name)
            self._replace(mod, attr, name, f"{mod_name}.{attr}")
        for mod_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._replace(cls, attr, name, f"{mod_name}.{cls_name}.{attr}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.asarray(self.names),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self, n_ops: int, op_counts: dict[str, float]) -> dict[str, float]:
        """Per-layer figures, each per operation of the workload unless its
        name says otherwise (per solve, per call, a rate)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def nid(label):
            return self._ids.get(label, -2)

        def calls(label):
            return int(np.sum(name == nid(label)))

        def self_s(label):
            return float(np.sum(self_time[name == nid(label)])) / n_ops

        def children(child, of):
            return int(np.sum((name == nid(child)) & (parent_name == nid(of))))

        def ratio(num, den):
            return float(num) / den if den else 0.0

        solves = calls("solver.solve_dirichlet")
        # solves that reached the root find, and those that ran it twice
        # (re-solve after refining the flux sign change)
        root_parents = parent[name == nid("solver.root_find")]
        per_solve = np.bincount(root_parents[root_parents >= 0]) if root_parents.size else np.zeros(0)
        structures = calls("solver.panel_structure")
        return {
            "solver.root_find.self_s": self_s("solver.root_find"),
            "solver.G_evals_per_solve": ratio(self.counters.get("g_evals", 0.0), solves),
            "solver.resolve_frac": ratio(int(np.sum(per_solve >= 2)), int(np.sum(per_solve >= 1))),
            "solver.assemble.self_s": self_s("solver.assemble"),
            "solver.hermite.self_s": self_s("solver.hermite"),
            "solver.values_at.calls": calls("solver.values_at") / n_ops,
            "solver.values_at.self_s": self_s("solver.values_at"),
            "solver.potential.levels_per_call": ratio(
                children("solver.solve_dirichlet", "solver.potential"), calls("solver.potential")),
            "solver.solves_per_op": solves / n_ops,
            "solver.panel_cache.hit_rate": ratio(
                structures - children("quadrature.build_panels", "solver.panel_structure"),
                structures),
            "quadrature.build_panels.calls": calls("quadrature.build_panels") / n_ops,
            "quadrature.build_panels.self_s": self_s("quadrature.build_panels"),
            "quadrature.points_per_solve": ratio(self.counters.get("solve_points", 0.0), solves),
            "measures.cum_center_many.self_s": self_s("measures.cum_center_many"),
            "measures.cum_center_many.points": self.counters.get("cum_points", 0.0) / n_ops,
            "measures.ball_masses.calls": calls("measures.ball_masses") / n_ops,
            "measures.ball_masses.self_s": self_s("measures.ball_masses"),
            "weights.ball_weight.calls": calls("weights.ball_weight") / n_ops,
            "weights.ball_weight.self_s": self_s("weights.ball_weight"),
            "energy.energy_ladder.levels_per_call": ratio(
                children("solver.solve_dirichlet", "energy.energy_ladder"),
                calls("energy.energy_ladder")),
            "energy.energy_ladder.self_s": self_s("energy.energy_ladder"),
            "energy.measure_integral.levels_per_call": ratio(
                children("solver.panel_structure", "energy.measure_integral"),
                calls("energy.measure_integral")),
            "energy.measure_integral.self_s": self_s("energy.measure_integral"),
            "sublinear.iterate.steps_per_op": ratio(op_counts.get("iterate_steps", 0.0),
                                                    op_counts.get("iterate_ops", 0.0)),
            "wolff.wolff_truncated.self_s": self_s("wolff.wolff_truncated"),
        }
