"""JRA scalability experiments (Figures 9, 14, 15 and the CP comparison).

These regenerate the journal-assignment figures: the response time of BFS,
ILP and BBA as the group size ``delta_p`` or the candidate-pool size ``R``
grows, the top-k behaviour of BBA, and the comparison against a generic
constraint-programming search.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.entities import Reviewer
from repro.data.workloads import make_jra_pool, make_jra_problem
from repro.experiments.reporting import ExperimentTable
from repro.experiments.runner import DEFAULT_JRA_METHODS, make_jra_solver
from repro.jra.bba import BranchAndBoundSolver

__all__ = [
    "JRAScalabilityConfig",
    "run_group_size_scalability",
    "run_pool_size_scalability",
    "run_topk_experiment",
    "run_cp_comparison",
]


@dataclass(frozen=True)
class JRAScalabilityConfig:
    """Shared parameters of the JRA scalability experiments.

    Attributes
    ----------
    num_trials:
        How many random target papers each point is averaged over (the
        paper averages over 20 papers; the default here is smaller to keep
        the pure-Python benches quick — raise it for tighter estimates).
    num_topics:
        Topic-vector dimensionality.
    seed:
        Random seed for the candidate pool and the target papers.
    ilp_time_limit:
        Per-instance budget handed to the ILP baseline so a single slow
        point cannot stall the whole sweep.
    """

    num_trials: int = 3
    num_topics: int = 30
    seed: int = 11
    ilp_time_limit: float | None = 60.0


def _warm_up(methods: Sequence[str], config: JRAScalabilityConfig) -> None:
    """One untimed solve per method, on a small instance of its own.

    A process's first solve pays one-time costs, such as the ILP's
    ``import scipy.optimize``, that would otherwise be billed to the first
    timed trial.  No timed instance is warmed: BBA caches its sorted lists
    on the problem, so warming one would take the pre-sort out of BBA's
    measured time.
    """
    problem = make_jra_problem(
        num_candidates=6, group_size=2, num_topics=config.num_topics, seed=config.seed
    )
    for method in methods:
        make_jra_solver(method, time_limit=config.ilp_time_limit).solve(problem)


def _average_times(
    methods: Sequence[str],
    config: JRAScalabilityConfig,
    pool: list[Reviewer],
    num_candidates: int,
    group_size: int,
) -> dict[str, tuple[float, float]]:
    """Average (time, score) of each method over ``num_trials`` papers."""
    _warm_up(methods, config)
    accumulated: dict[str, list[tuple[float, float]]] = {method: [] for method in methods}
    for trial in range(config.num_trials):
        problem = make_jra_problem(
            num_candidates=num_candidates,
            group_size=group_size,
            num_topics=config.num_topics,
            seed=config.seed + 97 * trial,
            pool=pool,
        )
        for method in methods:
            solver = make_jra_solver(method, time_limit=config.ilp_time_limit)
            result = solver.solve(problem)
            accumulated[method].append((result.elapsed_seconds, result.score))
    averages: dict[str, tuple[float, float]] = {}
    for method, samples in accumulated.items():
        times = [sample[0] for sample in samples]
        scores = [sample[1] for sample in samples]
        averages[method] = (sum(times) / len(times), sum(scores) / len(scores))
    return averages


def run_group_size_scalability(
    group_sizes: Sequence[int] = (3, 4, 5),
    num_candidates: int = 200,
    methods: Sequence[str] = DEFAULT_JRA_METHODS,
    config: JRAScalabilityConfig | None = None,
) -> ExperimentTable:
    """Figure 9(a) / 14(a): response time as the group size grows (fixed R)."""
    config = config or JRAScalabilityConfig()
    pool = make_jra_pool(
        max(num_candidates, 3), num_topics=config.num_topics, seed=config.seed
    )
    table = ExperimentTable(
        title=f"JRA response time vs group size (R={num_candidates})",
        columns=["delta_p", *[f"{method} time (s)" for method in methods],
                 *[f"{method} score" for method in methods]],
    )
    for group_size in group_sizes:
        averages = _average_times(methods, config, pool, num_candidates, group_size)
        table.add_row(
            group_size,
            *[averages[method][0] for method in methods],
            *[averages[method][1] for method in methods],
        )
    return table


def run_pool_size_scalability(
    pool_sizes: Sequence[int] = (200, 300, 400, 500),
    group_size: int = 3,
    methods: Sequence[str] = DEFAULT_JRA_METHODS,
    config: JRAScalabilityConfig | None = None,
) -> ExperimentTable:
    """Figure 9(b) / 14(b): response time as the candidate pool grows (fixed delta_p)."""
    config = config or JRAScalabilityConfig()
    pool = make_jra_pool(max(pool_sizes), num_topics=config.num_topics, seed=config.seed)
    table = ExperimentTable(
        title=f"JRA response time vs number of reviewers (delta_p={group_size})",
        columns=["R", *[f"{method} time (s)" for method in methods],
                 *[f"{method} score" for method in methods]],
    )
    for pool_size in pool_sizes:
        averages = _average_times(methods, config, pool, pool_size, group_size)
        table.add_row(
            pool_size,
            *[averages[method][0] for method in methods],
            *[averages[method][1] for method in methods],
        )
    return table


def run_topk_experiment(
    k_values: Sequence[int] = (1, 200, 400, 600, 800, 1000),
    num_candidates: int = 200,
    group_size: int = 3,
    config: JRAScalabilityConfig | None = None,
) -> ExperimentTable:
    """Figure 15: BBA response time as the number of requested groups grows."""
    config = config or JRAScalabilityConfig()
    pool = make_jra_pool(
        max(num_candidates, 3), num_topics=config.num_topics, seed=config.seed
    )
    problem = make_jra_problem(
        num_candidates=num_candidates,
        group_size=group_size,
        num_topics=config.num_topics,
        seed=config.seed,
        pool=pool,
    )
    table = ExperimentTable(
        title=f"Top-k BBA response time (R={num_candidates}, delta_p={group_size})",
        columns=["k", "BBA time (s)", "best score", "k-th score"],
    )
    for k in k_values:
        solver = BranchAndBoundSolver(top_k=max(int(k), 1))
        result = solver.solve(problem)
        shortlist = result.stats.get("top_k", [(result.reviewer_ids, result.score)])
        table.add_row(
            int(k),
            result.elapsed_seconds,
            result.score,
            float(shortlist[-1][1]),
        )
    return table


def run_cp_comparison(
    num_candidates: int = 30,
    group_size: int = 3,
    config: JRAScalabilityConfig | None = None,
) -> ExperimentTable:
    """Section 5.1's CP-solver comparison (CP optimum, CP first solution, BBA)."""
    config = config or JRAScalabilityConfig()
    pool = make_jra_pool(
        max(num_candidates, 3), num_topics=config.num_topics, seed=config.seed
    )
    problem = make_jra_problem(
        num_candidates=num_candidates,
        group_size=group_size,
        num_topics=config.num_topics,
        seed=config.seed,
        pool=pool,
    )
    table = ExperimentTable(
        title=f"CP solver vs BBA (R={num_candidates}, delta_p={group_size})",
        columns=["method", "time (s)", "score", "optimal"],
    )
    for method in ("CP", "CP-FIRST", "BBA"):
        solver = make_jra_solver(method)
        result = solver.solve(problem)
        table.add_row(method, result.elapsed_seconds, result.score, result.is_optimal)
    return table
