"""SciPy stays off the import path, and core stays below the upper layers.

SciPy is a dependency because the two ILP baselines solve their LPs with
HiGHS, but they import it inside the solve: ``import scipy.optimize``
takes about half a second (0.55-0.6 s on a 2-vCPU VM, CPython 3.11), more
than a whole pipeline's setup, and every server or pipeline start would
pay it.  A fresh interpreter pins that no entry point loads it.

The layer diagram of ``docs/architecture.md`` has lower layers never
import higher ones.  ``repro.core`` is the bottom layer, so no core module
imports the storage, service, network, durability or replication layers
when it loads; an import under ``if TYPE_CHECKING:`` or inside a function
body runs later, if at all, and is allowed.
"""

from __future__ import annotations

import ast
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


#: the layers above core that no core module may import when it loads
UPPER_LAYERS = ("repro.store", "repro.service", "repro.net", "repro.durability", "repro.replication")


def _load_time_imports(statements):
    """``(line, module)`` of every import that runs when the module loads."""
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, node.module
            yield from ((node.lineno, f"{node.module}.{alias.name}") for alias in node.names)
        elif isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING"
        ):
            yield from _load_time_imports(node.orelse)
        else:
            yield from _load_time_imports(ast.iter_child_nodes(node))


def test_core_does_not_import_upper_layers_when_it_loads():
    offending = []
    for path in sorted((SRC / "repro" / "core").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, module in _load_time_imports(tree.body):
            if any(module == layer or module.startswith(layer + ".") for layer in UPPER_LAYERS):
                offending.append(f"{path.name}:{line} imports {module}")
    assert offending == []
