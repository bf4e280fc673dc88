"""Ablation: what BBA's two bounds and its gain-ordering each contribute.

BBA stays exact when any ingredient is disabled, but the explored search
tree grows.  The bench runs the same JRA instance with all four
combinations of bounding and gain-ordering, plus the cursor-bound-only
search of ``tests/oracles`` (the paper's Algorithm 1 pruning, without the
submodular completion bound), and reports nodes expanded and wall-clock
time, quantifying the claim of Section 3 that branching prioritisation and
the upper bound are what make the exact search practical.  Full BBA must
return the cursor-bound-only search's group and score bitwise, from no
more nodes; the cursor bound alone must expand no more nodes than no
bounding at all.
"""

from __future__ import annotations

from _shared import bench_seed, emit
from repro.data.workloads import make_jra_problem
from repro.experiments.reporting import ExperimentTable
from repro.jra.bba import BranchAndBoundSolver
from tests.oracles import CursorBoundBBAOracle

_VARIANTS = (
    ("full BBA", BranchAndBoundSolver),
    ("cursor bound only", CursorBoundBBAOracle),
    ("no bounding", lambda: BranchAndBoundSolver(use_bound=False)),
    ("no gain ordering", lambda: BranchAndBoundSolver(use_gain_ordering=False)),
    ("plain backtracking", lambda: BranchAndBoundSolver(use_bound=False, use_gain_ordering=False)),
)


def _run_all():
    problem = make_jra_problem(num_candidates=40, group_size=3, num_topics=30,
                               seed=bench_seed())
    return [(label, make().solve(problem)) for label, make in _VARIANTS]


def test_ablation_bba_pruning_and_ordering(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    table = ExperimentTable(
        title="Ablation: BBA bounding / gain-ordering (R=40, delta_p=3)",
        columns=["variant", "score", "nodes expanded", "prunings",
                 "completion prunings", "time (s)"],
    )
    for label, result in rows:
        table.add_row(label, result.score, result.stats["nodes_expanded"],
                      result.stats["prunings"], result.stats["completion_prunings"],
                      result.elapsed_seconds)
    emit(table, "ablation_bba_pruning.csv")

    results = {label: result for label, result in rows}
    full = results["full BBA"]
    cursor_only = results["cursor bound only"]
    nodes = {label: result.stats["nodes_expanded"] for label, result in rows}
    # All variants are exact.
    for result in results.values():
        assert abs(result.score - full.score) < 1e-9
    # The completion bound changes no answer, bitwise.
    assert full.reviewer_ids == cursor_only.reviewer_ids
    assert full.score == cursor_only.score
    assert cursor_only.stats["completion_prunings"] == 0
    # Each bound shrinks the tree further.
    assert nodes["full BBA"] <= nodes["cursor bound only"] <= nodes["no bounding"]
    assert nodes["full BBA"] <= nodes["plain backtracking"]
