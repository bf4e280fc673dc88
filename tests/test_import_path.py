"""SciPy stays off the import path.

SciPy is a dependency because the two ILP baselines solve their LPs with
HiGHS, but they import it inside the solve: ``import scipy.optimize``
takes about half a second (0.55-0.6 s on a 2-vCPU VM, CPython 3.11), more
than a whole pipeline's setup, and every server or pipeline start would
pay it.  A fresh interpreter pins that no entry point loads it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = ("repro", "repro.service.engine", "repro.net.server", "repro.topics", "repro.cli")


def test_entry_points_do_not_import_scipy():
    script = (
        "import importlib, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.strip() == "[]"
