"""Self-test of the benchmark itself (not of sublap).

    python3 perfbench/selftest.py

Checks that
- each workload generator is deterministic for a seed and differs across seeds;
- for a fixed seed, the traced and the untraced run give bit-identical
  operation outputs;
- the tracer puts every wrapped name back afterwards.

Exits 0 when all hold, 1 otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import itertools
import sys

import run as bench


def first_ops(wl, lib, workload, seed, n):
    return list(itertools.islice(itertools.chain.from_iterable(
        wl.blocks(workload, seed, lib)), n))


def snapshot():
    import importlib

    from tracing import FUNCTION_TARGETS, METHOD_TARGETS

    state = {}
    for mod_name, attr, _ in FUNCTION_TARGETS:
        state[(mod_name, attr)] = getattr(importlib.import_module(mod_name), attr)
    for mod_name, cls_name, attr, _ in METHOD_TARGETS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        state[(mod_name, cls_name, attr)] = cls.__dict__[attr]
    return state


def main() -> int:
    bench.import_sublap()
    import workloads as wl
    from tracing import Tracer

    lib = wl.Lib()
    problems = []

    for workload in wl.WORKLOADS.values():
        n = 2 * len(next(wl.blocks(workload, 0, lib)))
        a = [op.desc for op in first_ops(wl, lib, workload, 7, n)]
        b = [op.desc for op in first_ops(wl, lib, workload, 7, n)]
        c = [op.desc for op in first_ops(wl, lib, workload, 8, n)]
        if a != b:
            problems.append(f"{workload.name}: seed 7 generated two different sequences")
        if a == c:
            problems.append(f"{workload.name}: seeds 7 and 8 generated the same sequence")

    before = snapshot()
    for workload in wl.WORKLOADS.values():
        # one block
        n = len(next(wl.blocks(workload, 0, lib)))
        plain = bench.Loop(lib)
        plain.keep_digests = True
        for op in first_ops(wl, lib, workload, 3, n):
            plain.run(op)
        tracer = Tracer()
        tracer.install()
        try:
            traced = bench.Loop(lib)
            traced.keep_digests = True
            for op in first_ops(wl, lib, workload, 3, n):
                traced.run(op, tracer)
        finally:
            tracer.uninstall()
        if plain.digests != traced.digests:
            problems.append(f"{workload.name}: traced outputs differ from untraced ones")
        # tracing must leave the failures (none, at the seed commit) unchanged
        if plain.failures != traced.failures:
            problems.append(f"{workload.name}: failures {plain.failures} {traced.failures}")
        if tracer.missing:
            problems.append(f"{workload.name}: wrap targets missing {tracer.missing}")
        if len(tracer.name) <= n:
            problems.append(f"{workload.name}: no spans below the operation roots")
        print(f"{workload.name}: {n} ops, {len(tracer.name)} spans, outputs identical: "
              f"{plain.digests == traced.digests}")
    if snapshot() != before:
        problems.append("tracer left wrapped names behind")

    for problem in problems:
        print("FAIL " + problem)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
