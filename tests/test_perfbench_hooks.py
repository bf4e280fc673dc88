"""The names the repository benchmark wraps stay importable.

``perfbench/pb_spans.install()`` wraps about 35 ``repro`` attributes by
name (methods, and functions at the module where they are called, such as
``repro.service.engine.find_top_k_groups``).  A rename would otherwise
surface only in a traced benchmark run.  A fresh interpreter runs
``install()`` so the wrappers never leak into this test process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_install_finds_every_wrapped_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", "import pb_spans; pb_spans.install()"],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
