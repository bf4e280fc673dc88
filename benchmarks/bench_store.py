"""Storage-layer benchmark: store-backed churn, and an out-of-core
score-matrix build whose instance does not fit the RAM budget.

Not a figure of the paper — this bench pins the acceptance bar of the
``repro.store`` layer (the paper's conference instances are curated
offline; a *store-backed* engine must serve them without loading the
whole instance into RAM):

* **store-backed churn** — the identical interleaved request stream
  (solve / add-paper / withdraw / journal) replayed on an in-RAM engine
  and on a SQLite+memmap store-backed engine; every response must be
  **bitwise identical**, and the store-backed slowdown factor is
  reported;
* **out-of-core build** — a 20k-reviewer instance whose dense score
  matrix exceeds ``REPRO_BENCH_STORE_RAM_BUDGET_MB``: the matrix is
  built block-by-block into a ``numpy.memmap`` generation file, peak
  per-block RAM stays far below the budget, and sampled blocks are
  bitwise-equal to direct scoring.

Results feed ``benchmarks/results/BENCH_store.json`` and the repo-root
``BENCH.md`` trajectory.

Environment knobs
-----------------
``REPRO_BENCH_STORE_REVIEWERS`` / ``REPRO_BENCH_STORE_PAPERS`` /
``REPRO_BENCH_STORE_TOPICS``
    Out-of-core instance shape (defaults 20000 / 400 / 30 — a 64 MB
    float64 matrix against the default 48 MB budget).
``REPRO_BENCH_STORE_RAM_BUDGET_MB``
    The RAM budget the dense matrix must exceed (default 48).
``REPRO_BENCH_STORE_BLOCK_COLS``
    Columns per memmap block (default 16; peak block RAM = R x this x 8).
``REPRO_BENCH_STORE_CHURN_EVENTS``
    Interleaved churn events per engine (default 30).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from _shared import bench_seed, emit, emit_bench_json
from repro.core.entities import Paper, Reviewer
from repro.core.problem import WGRAPProblem
from repro.core.scoring import get_scoring_function
from repro.core.vectors import TopicVector
from repro.experiments.reporting import ExperimentTable
from repro.service.engine import AssignmentEngine
from repro.store import MemmapScoreStore, SqliteProblemStore


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _make_problem(num_reviewers, num_papers, num_topics, group_size=3, workload=None):
    rng = np.random.default_rng(bench_seed())
    reviewers = [
        Reviewer(id=f"reviewer-{i:05d}", vector=TopicVector(rng.random(num_topics)))
        for i in range(num_reviewers)
    ]
    papers = [
        Paper(id=f"paper-{i:05d}", vector=TopicVector(rng.random(num_topics)))
        for i in range(num_papers)
    ]
    if workload is None:
        workload = 2 * max(1, -(-num_papers * group_size // num_reviewers))
    return WGRAPProblem(
        papers=papers,
        reviewers=reviewers,
        group_size=group_size,
        reviewer_workload=workload,
    )


# ----------------------------------------------------------------------
# Part 1: store-backed churn vs the in-RAM engine, bitwise
# ----------------------------------------------------------------------
def _drive(engine, late_papers, events):
    outputs = []
    result = engine.solve("Greedy")
    outputs.append(("solve", result.score, tuple(sorted(result.assignment.pairs()))))
    for index in range(events):
        kind = index % 3
        if kind == 0:
            delta = engine.add_paper(late_papers[index])
            outputs.append(("add", delta.added_pairs))
        elif kind == 1:
            answer = engine.journal_query(engine.problem.paper_ids[0], top_k=2)
            outputs.append(
                ("journal", tuple((g.reviewer_ids, g.score) for g in answer.groups))
            )
        else:
            result = engine.solve("Greedy")
            outputs.append(
                ("solve", result.score, tuple(sorted(result.assignment.pairs())))
            )
    return outputs


def run_store_churn(tmp_dir: Path) -> dict:
    events = _env_int("REPRO_BENCH_STORE_CHURN_EVENTS", 30)
    shape = (60, 25, 12)
    rng = np.random.default_rng(bench_seed() + 2)
    late_papers = [
        Paper(id=f"late-{i:05d}", vector=TopicVector(rng.random(shape[2])))
        for i in range(events)
    ]

    ram_engine = AssignmentEngine(_make_problem(shape[1], shape[0], shape[2]))
    started = time.perf_counter()
    ram_outputs = _drive(ram_engine, late_papers, events)
    ram_elapsed = time.perf_counter() - started

    store = SqliteProblemStore.create(
        tmp_dir / "churn.db", _make_problem(shape[1], shape[0], shape[2]),
        blocks=True, block_cols=8,
    )
    try:
        engine = AssignmentEngine.from_store(store)
        started = time.perf_counter()
        store_outputs = _drive(engine, late_papers, events)
        store_elapsed = time.perf_counter() - started
        engine.sync_store()
        stats = store.describe()
    finally:
        store.close()
    return {
        "events": events,
        "ram_seconds": ram_elapsed,
        "store_seconds": store_elapsed,
        "slowdown": store_elapsed / max(ram_elapsed, 1e-9),
        "outputs_bitwise_identical": store_outputs == ram_outputs,
        "index_updates": stats["index_updates"],
        "rebuilds": stats["rebuilds"],
    }


# ----------------------------------------------------------------------
# Part 2: out-of-core build beyond the RAM budget
# ----------------------------------------------------------------------
def run_out_of_core_build(tmp_dir: Path) -> dict:
    num_reviewers = _env_int("REPRO_BENCH_STORE_REVIEWERS", 20000)
    num_papers = _env_int("REPRO_BENCH_STORE_PAPERS", 400)
    num_topics = _env_int("REPRO_BENCH_STORE_TOPICS", 30)
    block_cols = _env_int("REPRO_BENCH_STORE_BLOCK_COLS", 16)
    budget_bytes = _env_int("REPRO_BENCH_STORE_RAM_BUDGET_MB", 48) * 1024 * 1024

    rng = np.random.default_rng(bench_seed() + 3)
    reviewer_matrix = rng.random((num_reviewers, num_topics))
    paper_matrix = rng.random((num_papers, num_topics))
    scoring = get_scoring_function("weighted_coverage")

    matrix_bytes = num_reviewers * num_papers * 8
    peak_block_bytes = num_reviewers * block_cols * 8
    blocks = MemmapScoreStore(tmp_dir / "oversize.blocks", block_cols=block_cols)
    started = time.perf_counter()
    view = blocks.build(
        num_reviewers,
        num_papers,
        lambda start, stop: scoring.score_matrix(
            reviewer_matrix, paper_matrix[start:stop]
        ),
    )
    build_elapsed = time.perf_counter() - started

    # Spot-check three column blocks against direct scoring — bitwise.
    sample_ok = True
    for start in (0, num_papers // 2, max(0, num_papers - block_cols)):
        stop = min(num_papers, start + block_cols)
        expected = scoring.score_matrix(reviewer_matrix, paper_matrix[start:stop])
        sample_ok = sample_ok and np.array_equal(np.asarray(view[:, start:stop]), expected)
    description = blocks.describe()
    blocks.close()
    return {
        "reviewers": num_reviewers,
        "papers": num_papers,
        "topics": num_topics,
        "block_cols": block_cols,
        "matrix_bytes": matrix_bytes,
        "ram_budget_bytes": budget_bytes,
        "peak_block_bytes": peak_block_bytes,
        "exceeds_budget": matrix_bytes > budget_bytes,
        "block_peak_within_budget": peak_block_bytes < budget_bytes,
        "build_seconds": build_elapsed,
        "block_writes": description["block_writes"],
        "bytes_mapped": description["bytes_mapped"],
        "samples_bitwise": sample_ok,
    }


def run_store_bench(tmp_dir: Path) -> tuple[ExperimentTable, dict]:
    churn = run_store_churn(tmp_dir)
    oversize = run_out_of_core_build(tmp_dir)

    table = ExperimentTable(
        title=(
            f"Problem store: {churn['events']}-event churn, "
            f"{oversize['reviewers']}x{oversize['papers']} out-of-core build "
            f"({oversize['matrix_bytes'] / 1e6:.0f} MB matrix, "
            f"{oversize['ram_budget_bytes'] / 1e6:.0f} MB budget)"
        ),
        columns=["stage", "seconds", "detail"],
    )
    table.add_row(
        "churn: in-RAM engine", churn["ram_seconds"],
        f"{churn['events']} events",
    )
    table.add_row(
        "churn: store-backed engine", churn["store_seconds"],
        f"slowdown x{churn['slowdown']:.2f}",
    )
    table.add_row(
        "out-of-core build", oversize["build_seconds"],
        f"peak block {oversize['peak_block_bytes'] / 1e6:.1f} MB",
    )
    verdict = {
        "seed": bench_seed(),
        "churn": churn,
        "out_of_core": oversize,
    }
    return table, verdict


def test_store_bench(benchmark, tmp_path):
    table, verdict = benchmark.pedantic(
        run_store_bench, args=(tmp_path,), rounds=1, iterations=1
    )
    emit(table, "store_bench.csv")
    emit_bench_json(verdict, "BENCH_store.json")
    assert verdict["churn"]["outputs_bitwise_identical"], verdict["churn"]
    assert verdict["churn"]["rebuilds"] == 0, verdict["churn"]
    oversize = verdict["out_of_core"]
    assert oversize["exceeds_budget"], (
        "the out-of-core instance fits the RAM budget — raise "
        "REPRO_BENCH_STORE_REVIEWERS or lower REPRO_BENCH_STORE_RAM_BUDGET_MB"
    )
    assert oversize["block_peak_within_budget"], oversize
    assert oversize["samples_bitwise"], "block build diverged from direct scoring"
