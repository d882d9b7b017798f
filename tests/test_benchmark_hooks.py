"""The library names the benchmark under ``perfbench/`` wraps and calls.

The benchmark reads the layers of sublap from outside: its tracer replaces
the functions and methods listed in ``perfbench/tracing.py``, and its traced
mode empties the panel cache between phases.  A rename inside sublap would
make a layer read 0 without an error, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

from sublap import solver
from sublap.measures import dirac
from sublap.weights import constant_weight

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    missing = [f"{mod}.{attr}" for mod, attr, _ in _tracing().FUNCTION_TARGETS
               if getattr(importlib.import_module(mod), attr, None) is None]
    assert missing == []


def test_every_wrapped_method_exists():
    missing = [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in _tracing().METHOD_TARGETS
               if attr not in getattr(importlib.import_module(mod), cls).__dict__]
    assert missing == []


def test_clearing_the_panel_cache_empties_it():
    solver.solve_dirichlet(2.0, constant_weight(), dirac(0.3))
    assert solver.panel_cache_info().size > 0
    solver._PANEL_CACHE.clear()
    info = solver.panel_cache_info()
    assert (info.size, info.hits, info.misses) == (0, 0, 0)
