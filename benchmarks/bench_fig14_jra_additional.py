"""Figure 14: additional JRA scalability sweeps (R=300 and delta_p=4 defaults).

The paper's Appendix C repeats the Figure 9 sweeps at a different fixed
pool size and group size.  The bench mirrors that with proportionally
smaller defaults (see ``bench_fig9_jra_scalability`` for why) while keeping
the relative configuration of the two figures: the pool here is larger than
Figure 9's and the fixed group size is one larger.
"""

from __future__ import annotations

import os

from _shared import assert_exact_jra_scores_agree, bench_seed, emit
from repro.experiments.jra_scalability import (
    JRAScalabilityConfig,
    run_group_size_scalability,
    run_pool_size_scalability,
)

_CONFIG = JRAScalabilityConfig(
    num_trials=2, num_topics=30, seed=bench_seed() + 1, ilp_time_limit=30.0
)


def _pool_size() -> int:
    return int(os.environ.get("REPRO_BENCH_JRA_POOL_LARGE", "80"))


def test_fig14a_time_vs_group_size_larger_pool(benchmark):
    table = benchmark.pedantic(
        run_group_size_scalability,
        kwargs=dict(
            group_sizes=(2, 3),
            num_candidates=_pool_size(),
            methods=("BFS", "ILP", "BBA"),
            config=_CONFIG,
        ),
        rounds=1,
        iterations=1,
    )
    emit(table, "fig14a_jra_time_vs_group_size.csv")
    assert table.column("BBA time (s)")[-1] <= table.column("BFS time (s)")[-1]
    assert_exact_jra_scores_agree(table)


def test_fig14b_time_vs_pool_size_group4(benchmark):
    table = benchmark.pedantic(
        run_pool_size_scalability,
        kwargs=dict(
            pool_sizes=(25, 35, 45),
            group_size=4,
            methods=("BFS", "ILP", "BBA"),
            config=_CONFIG,
        ),
        rounds=1,
        iterations=1,
    )
    emit(table, "fig14b_jra_time_vs_pool_size.csv")
    bfs = table.column("BFS time (s)")
    bba = table.column("BBA time (s)")
    assert bba[-1] <= bfs[-1]
    # BFS grows super-linearly with R at delta_p=4; BBA grows far slower.
    assert bfs[-1] / max(bfs[0], 1e-9) >= bba[-1] / max(bba[0], 1e-9)
    assert_exact_jra_scores_agree(table)
