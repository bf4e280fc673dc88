"""Pytest configuration for the benchmark harness.

The benchmarks print the regenerated tables/figures; disable output capture
for them by default so the series are visible in the terminal alongside the
pytest-benchmark timing table.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make the sibling `_shared` helpers and the repository's `tests.oracles`
# reference solvers importable regardless of rootdir.
_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(1, str(_HERE.parent))
