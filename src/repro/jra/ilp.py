"""Integer Linear Programming baseline for JRA.

The paper's second exact baseline formulates JRA as an ILP and solves it
with ``lp_solve``.  We reproduce the formulation and solve it with the
branch-and-bound driver of :mod:`repro.optimize` (HiGHS relaxations).

Formulation
-----------
For reviewers ``r`` and topics ``t`` with per-topic contribution
``cov[t, r] = f(r[t], p[t])`` (``f`` being the scoring function's
contribution, e.g. ``min`` for weighted coverage):

* binary ``x_r``          — reviewer ``r`` is selected,
* continuous ``w_{t,r}``  — reviewer ``r`` is the designated coverer of ``t``,
* continuous ``z_t``      — achieved contribution on topic ``t``.

maximise ``sum_t z_t`` subject to::

    sum_r x_r            = delta_p
    w_{t,r}             <= x_r            for all t, r
    sum_r w_{t,r}       <= 1              for all t
    z_t                 <= sum_r w_{t,r} * cov[t, r]   for all t

Because every scoring function in the library is monotone in the reviewer
expertise, the designated-coverer trick reproduces the group aggregation
``f(max_{r in g} r[t], p[t])`` exactly, so the ILP optimum equals the JRA
optimum (divided by the paper's topic mass, which is a constant).

This baseline is intentionally slow on large instances — that is exactly
what Figures 9 and 14 of the paper demonstrate — so the solver accepts node
and time limits.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.problem import JRAProblem
from repro.jra.base import JRASolver
from repro.optimize.branch_and_bound import BranchAndBoundSolver as ILPDriver
from repro.optimize.model import ModelBuilder, Sense

__all__ = ["ILPSolver"]


class ILPSolver(JRASolver):
    """Exact (given enough budget) ILP solver for JRA.

    Parameters
    ----------
    node_limit, time_limit:
        Search budget; when exhausted the best incumbent found so far is
        returned and the result is flagged as not proven optimal.
    """

    name = "ILP"

    def __init__(self, node_limit: int = 50_000, time_limit: float | None = None) -> None:
        self._node_limit = node_limit
        self._time_limit = time_limit

    def _solve(
        self, problem: JRAProblem
    ) -> tuple[tuple[str, ...], float, bool, dict[str, Any]]:
        scoring = problem.scoring
        reviewer_matrix = problem.reviewer_matrix
        paper_vector = problem.paper_vector
        num_reviewers = problem.num_reviewers
        num_topics = problem.num_topics
        denominator = float(paper_vector.sum())

        # Per-topic contribution of every reviewer: cov[t, r].
        coverage = scoring.topic_contribution(
            reviewer_matrix, paper_vector[None, :]
        ).T  # (T, R)

        builder = ModelBuilder()
        select = [builder.add_binary_variable(f"x_{r}") for r in range(num_reviewers)]
        designate = [
            [builder.add_variable(f"w_{t}_{r}", lower=0.0, upper=1.0) for r in range(num_reviewers)]
            for t in range(num_topics)
        ]
        max_coverage_per_topic = coverage.max(axis=1)
        achieved = [
            builder.add_variable(
                f"z_{t}", lower=0.0, upper=float(max(max_coverage_per_topic[t], 0.0))
            )
            for t in range(num_topics)
        ]

        builder.add_constraint(
            {index: 1.0 for index in select}, Sense.EQUAL, float(problem.group_size)
        )
        for t in range(num_topics):
            for r in range(num_reviewers):
                builder.add_constraint(
                    {designate[t][r]: 1.0, select[r]: -1.0}, Sense.LESS_EQUAL, 0.0
                )
            builder.add_constraint(
                {designate[t][r]: 1.0 for r in range(num_reviewers)},
                Sense.LESS_EQUAL,
                1.0,
            )
            coefficients = {achieved[t]: 1.0}
            for r in range(num_reviewers):
                value = float(coverage[t, r])
                if value != 0.0:
                    coefficients[designate[t][r]] = -value
            builder.add_constraint(coefficients, Sense.LESS_EQUAL, 0.0)

        builder.set_objective({index: 1.0 for index in achieved})
        program = builder.build()

        driver = ILPDriver(node_limit=self._node_limit, time_limit=self._time_limit)
        solution = driver.solve(program)

        selected = [
            index
            for index, variable in enumerate(select)
            if solution.values[variable] > 0.5
        ]
        # Guard against budget exhaustion leaving a fractional incumbent of
        # the wrong cardinality: fall back to the best rounding.
        if len(selected) != problem.group_size:
            order = np.argsort(-solution.values[np.asarray(select)])
            selected = [int(index) for index in order[: problem.group_size]]

        reviewer_ids = tuple(problem.reviewer_ids[index] for index in selected)
        score = problem.group_score(reviewer_ids)
        stats: dict[str, Any] = {
            "nodes_explored": solution.nodes_explored,
            "objective_numerator": solution.objective,
        }
        if denominator > 0.0:
            stats["objective_normalised"] = solution.objective / denominator
        return reviewer_ids, score, solution.is_optimal, stats
