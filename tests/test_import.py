import os
import subprocess
import sys
from pathlib import Path

import sublap


def test_import_sublap_loads_no_scipy():
    # scipy is only the tests' reference; the package runs on numpy alone.
    # Every submodule is imported, also those only one subcommand loads
    # (``sublap.acceptance`` under ``sublap verify``)
    src = str(Path(sublap.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import importlib, pkgutil, sys, sublap; "
         "[importlib.import_module('sublap.' + m.name) "
         "for m in pkgutil.iter_modules(sublap.__path__)]; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
