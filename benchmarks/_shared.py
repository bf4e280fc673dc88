"""Shared configuration and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it runs the
corresponding experiment (on a scaled-down synthetic workload by default),
prints the same rows/series the paper reports, saves them as CSV under
``benchmarks/results/`` and times the run with ``pytest-benchmark``.

Environment knobs
-----------------
``REPRO_BENCH_SCALE``
    Fraction of the paper's dataset sizes to use for the conference
    experiments (default ``0.15``).  ``REPRO_BENCH_SCALE=1.0`` reproduces the
    full Table 3 sizes (slow in pure Python).
``REPRO_BENCH_GROUP_SIZES``
    Comma-separated group sizes for the conference sweeps (default ``3,4,5``).
``REPRO_BENCH_SEED``
    Seed of the synthetic data generators (default ``7``).
``REPRO_BENCH_WORKERS``
    Worker processes for the parallel execution layer (default ``1`` =
    serial; ``0`` = one per CPU core).  Methods of one comparison run and
    independent trials fan out across this many workers; results are
    identical to the serial run because every trial and solver is seeded
    deterministically.
"""

from __future__ import annotations

import json
import os
import platform
from functools import lru_cache
from pathlib import Path
from typing import Any

from repro.experiments.cra_quality import CRAQualityResult, run_cra_quality
from repro.experiments.reporting import ExperimentTable
from repro.experiments.runner import DEFAULT_CRA_METHODS, ExperimentConfig
from repro.obs.metrics import get_registry
from repro.parallel import ParallelConfig

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def bench_scale() -> float:
    """Dataset scale used by the conference benches."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))


def bench_seed() -> int:
    """Seed shared by the benches."""
    return int(os.environ.get("REPRO_BENCH_SEED", "7"))


def bench_workers() -> int:
    """Worker processes requested for the benches (1 = serial)."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def bench_parallel_config() -> ParallelConfig | None:
    """The ParallelConfig the benches pass down, or ``None`` when serial."""
    workers = bench_workers()
    if workers == 1:
        return None
    return ParallelConfig(workers=workers)


def bench_group_sizes() -> tuple[int, ...]:
    """Group sizes swept by the conference benches."""
    raw = os.environ.get("REPRO_BENCH_GROUP_SIZES", "3,4,5")
    return tuple(int(part) for part in raw.split(",") if part.strip())


def experiment_config() -> ExperimentConfig:
    """The ExperimentConfig every conference bench uses."""
    return ExperimentConfig(scale=bench_scale(), seed=bench_seed(), num_topics=30)


@lru_cache(maxsize=None)
def quality_run(dataset: str, group_size: int) -> CRAQualityResult:
    """Run (and cache) the full method comparison for one configuration.

    Several benches (Table 4, Figures 10/11, Table 7, Figures 17/18) are
    different views over the same runs, so the expensive part is shared
    across bench modules within one pytest session.
    """
    return run_cra_quality(
        dataset=dataset,
        group_size=group_size,
        methods=DEFAULT_CRA_METHODS,
        config=experiment_config(),
        parallel=bench_parallel_config(),
    )


def assert_exact_jra_scores_agree(table: ExperimentTable) -> None:
    """BFS, ILP and BBA are exact: every row of a JRA sweep has one score."""
    for bfs, ilp, bba in zip(
        table.column("BFS score"), table.column("ILP score"), table.column("BBA score")
    ):
        assert abs(bfs - bba) < 1e-9
        assert abs(ilp - bfs) < 1e-9


def emit(table: ExperimentTable, filename: str) -> ExperimentTable:
    """Print a result table and persist it under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    print()
    print(table.to_text())
    table.save_csv(RESULTS_DIR / filename)
    return table


def emit_bench_json(payload: dict[str, Any], filename: str) -> Path:
    """Persist a machine-readable benchmark record under ``benchmarks/results/``.

    The payload is written as one pretty-printed JSON document, annotated
    with the interpreter/platform/CPU count so BENCH trajectory entries
    (see the repo-root ``BENCH.md``) can be compared across machines, plus
    the process-global metric snapshot (solver wall-time histograms with
    p50/p95/p99) accumulated while the bench ran.  Returns the written
    path.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "metrics": get_registry().snapshot(),
        **payload,
    }
    path = RESULTS_DIR / filename
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwrote {path}")
    return path
