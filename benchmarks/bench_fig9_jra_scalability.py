"""Figure 9 (+ the Section 5.1 CP comparison): JRA scalability.

Regenerates the response-time comparison of BFS, ILP and BBA as a function
of the group size (Figure 9a) and of the candidate-pool size (Figure 9b),
plus the constraint-programming comparison reported in the text.

The default sweep is smaller than the paper's (pure-Python brute force over
``C(200, 6)`` groups would run for days); the *shape* — BBA orders of
magnitude faster than ILP, which is faster than BFS, with BFS most
sensitive to ``delta_p`` — is what the bench asserts and reports.  Set
``REPRO_BENCH_JRA_POOL`` / ``REPRO_BENCH_JRA_GROUPS`` for larger sweeps.
"""

from __future__ import annotations

import os

from _shared import assert_exact_jra_scores_agree, bench_seed, emit
from repro.experiments.jra_scalability import (
    JRAScalabilityConfig,
    run_cp_comparison,
    run_group_size_scalability,
    run_pool_size_scalability,
)

_CONFIG = JRAScalabilityConfig(
    num_trials=2, num_topics=30, seed=bench_seed(), ilp_time_limit=30.0
)


def _pool_size() -> int:
    return int(os.environ.get("REPRO_BENCH_JRA_POOL", "60"))


def _group_sizes() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_JRA_GROUPS", "2,3,4")
    return tuple(int(part) for part in raw.split(","))


def test_fig9a_time_vs_group_size(benchmark):
    table = benchmark.pedantic(
        run_group_size_scalability,
        kwargs=dict(
            group_sizes=_group_sizes(),
            num_candidates=_pool_size(),
            methods=("BFS", "ILP", "BBA"),
            config=_CONFIG,
        ),
        rounds=1,
        iterations=1,
    )
    emit(table, "fig9a_jra_time_vs_group_size.csv")
    bfs_times = table.column("BFS time (s)")
    bba_times = table.column("BBA time (s)")
    ilp_times = table.column("ILP time (s)")
    # Shape: BBA is the fastest method at the largest group size, and BFS
    # blows up with delta_p much faster than BBA does.
    assert bba_times[-1] <= bfs_times[-1]
    assert bba_times[-1] <= ilp_times[-1]
    assert bfs_times[-1] / max(bfs_times[0], 1e-9) >= bba_times[-1] / max(bba_times[0], 1e-9)
    assert_exact_jra_scores_agree(table)


def test_fig9b_time_vs_pool_size(benchmark):
    pool = _pool_size()
    table = benchmark.pedantic(
        run_pool_size_scalability,
        kwargs=dict(
            pool_sizes=(pool // 2, pool, pool * 2),
            group_size=3,
            methods=("BFS", "ILP", "BBA"),
            config=_CONFIG,
        ),
        rounds=1,
        iterations=1,
    )
    emit(table, "fig9b_jra_time_vs_pool_size.csv")
    assert table.column("BBA time (s)")[-1] <= table.column("BFS time (s)")[-1]
    assert_exact_jra_scores_agree(table)


def test_fig9_cp_solver_comparison(benchmark):
    table = benchmark.pedantic(
        run_cp_comparison,
        kwargs=dict(num_candidates=30, group_size=3, config=_CONFIG),
        rounds=1,
        iterations=1,
    )
    emit(table, "fig9_cp_comparison.csv")
    times = dict(zip(table.column("method"), table.column("time (s)")))
    scores = dict(zip(table.column("method"), table.column("score")))
    # Shape from the paper: BBA finds the optimum far faster than the CP
    # search proves it, and the CP first solution is cheap but suboptimal.
    assert times["BBA"] <= times["CP"]
    assert abs(scores["BBA"] - scores["CP"]) < 1e-9
