"""The library names the benchmark under ``perfbench/`` wraps and calls.

The benchmark reads the layers of sublap from outside: its tracer replaces
the functions and methods listed in ``perfbench/tracing.py``, and its traced
mode empties the panel cache between phases.  A rename inside sublap would
make a layer read 0 without an error, so the names are checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from sublap import solver
from sublap.energy import energy
from sublap.measures import dirac, power_measure
from sublap.weights import constant_weight, power_weight

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    """``perfbench/workloads.py``, read only; its dataclasses look their
    module up in ``sys.modules`` while it executes."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# the benchmark's worst reference error per workload at this code; its
# max_ref_err bound lets a change worsen it by a quarter
WORST_REFERENCE_ERROR = {"solve_wolff_mix": 1.1102230246251565e-16,
                         "ladder_iterate_mix": 1.3956991118391215e-10}


@pytest.mark.parametrize("seed", [10101, 90217])
@pytest.mark.parametrize("name", sorted(WORST_REFERENCE_ERROR))
def test_the_first_block_of_each_workload_passes_its_checks(name, seed):
    workloads = _workloads()
    lib = workloads.Lib()
    errs, failed = [0.0], []
    for op in next(workloads.blocks(workloads.WORKLOADS[name], seed, lib)):
        ok, err = op.check(op.call())
        if not ok:
            failed.append(op.desc)
        if err is not None:
            errs.append(float(err))
    assert failed == []
    assert max(errs) <= 1.25 * WORST_REFERENCE_ERROR[name]


def test_every_wrapped_function_exists():
    missing = [f"{mod}.{attr}" for mod, attr, _ in _tracing().FUNCTION_TARGETS
               if getattr(importlib.import_module(mod), attr, None) is None]
    assert missing == []


def test_every_wrapped_method_exists():
    missing = [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in _tracing().METHOD_TARGETS
               if attr not in getattr(importlib.import_module(mod), cls).__dict__]
    assert missing == []


def test_the_tracer_sees_the_reads_of_a_solve():
    # a solve's u is a plain GridFunction, with no subclass of its own, so
    # the wrapper on GridFunction.values_at records the library's reads of a
    # solve: here energy's read of u at the atom
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        rep = tracer.run_op(0, "energy", lambda: energy(
            2.4, power_weight(0.3), dirac(0.2).add(power_measure(0.6, 0.8)), 1.0))
    finally:
        tracer.uninstall()
    assert type(rep.solution.u) is solver.GridFunction
    assert tracer.layer_metrics(1, {})["solver.values_at.calls"] == 1


def test_clearing_the_panel_cache_empties_it():
    solver.solve_dirichlet(2.0, constant_weight(), dirac(0.3))
    assert solver.panel_cache_info().size > 0
    solver._PANEL_CACHE.clear()
    info = solver.panel_cache_info()
    assert (info.size, info.hits, info.misses) == (0, 0, 0)
