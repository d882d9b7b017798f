"""sublap benchmark: one client in a closed loop against the library.

    python3 perfbench/run.py --workload solve_wolff_mix --seed 1 --seconds 45 --trace 0

Run from the repository root.  The library is imported from ``src/`` next to
this directory, never from an installed copy.  Each operation starts when the
previous one returns.  The loop runs whole blocks of a workload (see
``workloads.py``) until ``--seconds`` have passed, checks every output and
prints the metrics by name and unit.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
operations once with span wrappers installed and once without, and reports
the per-layer metrics and the tracing overhead instead.  Full results,
provenance and (traced) the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy is imported anywhere in this process or its
# children; the solves are single-threaded and a pool would only add noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# a second seed, never used while the benchmark or a change is tuned; a
# claimed gain must also hold on it
HELD_OUT_SEED = 90217
SETUP_SAMPLES = 5


def import_sublap():
    if not (SRC / "sublap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sublap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sublap = importlib.import_module("sublap")
    if Path(sublap.__file__).resolve().parent != (SRC / "sublap").resolve():
        raise SystemExit(f"perfbench: imported sublap from {sublap.__file__}, not {SRC}")
    return sublap


# ---------------------------------------------------------------------------
# set-up: a fresh process per sample, timing the import and the first operation
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import_sublap()
    t1 = time.perf_counter()
    import workloads as wl

    lib = wl.Lib()
    op = next(wl.blocks(wl.WORKLOADS[workload], seed, lib))[0]
    t2 = time.perf_counter()
    res = op.call()
    t3 = time.perf_counter()
    ok, _ = op.check(res)
    print(json.dumps({"import_s": t1 - t0, "first_op_s": t3 - t2, "ok": bool(ok)}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs operations one after another and keeps what each one did."""

    def __init__(self, lib):
        self.lib = lib
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.blocks: list[int] = []
        self.failures: dict[str, int] = {}
        self.failed_ops: list[str] = []
        self.ref_errs: dict[str, float] = {}
        self.op_counts: dict[str, float] = {}
        self.finite_mass = {"finite": 0, "infinite": 0}
        self.ok: list[bool] = []
        self.digests: list[bytes] = []
        self.keep_digests = False

    def _fail(self, why: str, op=None) -> None:
        self.failures[why] = self.failures.get(why, 0) + 1
        if op is not None and len(self.failed_ops) < 20:
            self.failed_ops.append(repr(op.desc))

    def run(self, op, tracer=None, block: int = 0) -> None:
        error_type = self.lib.errors.SublapError
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = op.call()
            else:
                res = tracer.run_op(len(self.latencies), op.kind, op.call)
        except error_type as exc:
            res = exc
        self.latencies.append(time.perf_counter() - t0)
        self.kinds.append(op.kind)
        self.blocks.append(block)
        if op.finite_mass is not None:
            self.finite_mass["finite" if op.finite_mass else "infinite"] += 1
        if isinstance(res, error_type):
            self._fail(f"{op.kind}: {type(res).__name__}", op)
            self.ok.append(False)
            if self.keep_digests:
                self.digests.append(repr(res).encode())
            return
        ok, err = op.check(res)
        self.ok.append(bool(ok))
        if not ok:
            self._fail(f"{op.kind}: check", op)
        if err is not None:
            key = repr(op.desc)
            self.ref_errs[key] = max(self.ref_errs.get(key, 0.0), float(err))
        for key, value in op.counts(res).items():
            self.op_counts[key] = self.op_counts.get(key, 0.0) + value
        if self.keep_digests:
            self.digests.append(op.digest(res))

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_blocks(loop: Loop, block_iter, seconds: float, tracer=None,
               max_ops: int | None = None) -> None:
    """Run whole blocks until ``seconds`` have passed (or exactly ``max_ops``
    operations).  A hard limit keeps a pathologically slow program inside the
    run's time budget."""
    t0 = time.perf_counter()
    hard = seconds + 60.0
    for index, block in enumerate(block_iter):
        for op in block:
            if max_ops is not None and loop.attempted >= max_ops:
                return
            loop.run(op, tracer, index)
            if time.perf_counter() - t0 > hard:
                return
        if max_ops is None and time.perf_counter() - t0 >= seconds:
            return


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "sublap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": seconds,
        "trace": trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "one process, one client, closed loop",
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def end_to_end(args, lib, wl) -> tuple[list[Loop], dict, dict]:
    workload = wl.WORKLOADS[args.workload]
    setup = measure_setup(args.workload, args.seed)
    # warm the process the way the probes measured it cold
    Loop(lib).run(next(wl.blocks(workload, args.seed, lib))[0])
    loop = Loop(lib)
    run_blocks(loop, wl.blocks(workload, args.seed, lib), args.seconds)
    busy = sum(loop.latencies)
    pct = workload.tail_percentile
    tail = percentile(loop.latencies, pct)
    beyond = sum(1 for v in loop.latencies if v > tail)
    metrics = {
        "setup_s": (statistics.median(s["import_s"] + s["first_op_s"] for s in setup), "s"),
        # over the whole run, which covers whole stratification rounds (or
        # nearly), so the mix of costly and cheap draws barely moves with the seed
        "ops_per_s": (sum(loop.ok) / busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "max_ref_err": (max(loop.ref_errs.values(), default=0.0), "abs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(loop.kinds, loop.latencies):
        by_kind.setdefault(kind, []).append(lat)
    extra = {
        "failures": loop.failures,
        "failed_ops": loop.failed_ops,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": loop.attempted,
        "busy_s": busy,
        "setup_samples": setup,
        "setup_ok": all(s["ok"] for s in setup),
        "reference_errors": loop.ref_errs,
        "finite_mass_ops": loop.finite_mass,
        "median_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())},
        "ops_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "latencies_s": loop.latencies,
        "blocks": loop.blocks,
    }
    if not extra["setup_ok"]:
        loop._fail("setup: check")
    return [loop], metrics, extra


def traced(args, lib, wl) -> tuple[list[Loop], dict, dict]:
    from tracing import Tracer

    workload = wl.WORKLOADS[args.workload]
    Loop(lib).run(next(wl.blocks(workload, args.seed, lib))[0])
    # both phases start from an empty panel cache, so that the untraced replay
    # does not reuse the panels the traced phase built
    lib.solver._PANEL_CACHE.clear()
    tracer = Tracer()
    tracer.install()
    try:
        loop = Loop(lib)
        run_blocks(loop, wl.blocks(workload, args.seed, lib), args.seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    lib.solver._PANEL_CACHE.clear()
    plain = Loop(lib)
    run_blocks(plain, wl.blocks(workload, args.seed, lib), 0.0, max_ops=loop.attempted)
    overhead = sum(loop.latencies) / sum(plain.latencies) - 1.0
    layer = tracer.layer_metrics(loop.attempted, loop.op_counts)
    layer["trace.overhead_frac"] = overhead
    metrics = {}
    for key, value in layer.items():
        unit = "s" if key.endswith("self_s") else \
            "ratio" if key.endswith(("_frac", "_rate")) else "count"
        metrics[key] = (value, unit)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    extra = {
        "traced_ops": loop.attempted,
        "spans": len(tracer.name),
        "missing_wrap_targets": tracer.missing,
        "traced_busy_s": sum(loop.latencies),
        "untraced_busy_s": sum(plain.latencies),
        "finite_mass_ops": loop.finite_mass,
        "op_counts": loop.op_counts,
        "failures": {"traced": loop.failures, "untraced": plain.failures},
    }
    return [loop, plain], metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_sublap()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    lib = wl.Lib()
    loops, metrics, extra = (traced if args.trace else end_to_end)(args, lib, wl)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)

    prov = provenance(args.workload, args.seed, int(args.seconds), args.trace)
    for key, (value, unit) in metrics.items():
        print(f"{key:42s} {value!r:>24} {unit}")
    print(f"{'fail_frac':42s} {failed / attempted!r:>24} ratio")
    if not args.trace:
        print(f"tail percentile p{extra['tail_percentile']:g} with "
              f"{extra['tail_samples_beyond']} of {extra['samples']} samples beyond it")
    print("failures: " + json.dumps([loop.failures for loop in loops]))
    print("provenance: " + json.dumps(prov))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, provenance=prov, detail=extra), indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
