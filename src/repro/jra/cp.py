"""A constraint-programming style baseline for JRA.

Section 5.1 of the paper also tries a commercial constraint-programming
solver (IBM ILOG CPLEX CP Optimizer) on JRA and observes that it is orders
of magnitude slower than BBA, attributing this to the lack of a tight upper
bound in generic CP search.  This module reproduces that comparison with a
small, self-contained CP solver:

* decision variables are the ``delta_p`` group slots, each ranging over the
  reviewer pool;
* an all-different (and symmetry-breaking "increasing slots") constraint
  removes permutations of the same group;
* search is depth-first with chronological backtracking and the kind of
  *generic* optimistic bound a black-box CP solver can derive — the best
  single-reviewer score times the number of open slots — rather than BBA's
  per-topic cursor bound and its submodular completion bound (the current
  coverage plus the largest marginal gains still available).

The solver is exact but, as in the paper, much slower than BBA; it also
exposes ``first_solution_only`` to reproduce the "time to first feasible
solution" measurement.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.problem import JRAProblem
from repro.jra.base import JRASolver

__all__ = ["ConstraintProgrammingSolver"]


class ConstraintProgrammingSolver(JRASolver):
    """Depth-first CP search over group slots with a generic bound.

    Parameters
    ----------
    first_solution_only:
        Return the first feasible group instead of searching for the
        optimum (mirrors the paper's 90 ms "first feasible assignment"
        measurement for CPLEX CP).
    node_limit:
        Safety cap on the number of search nodes; when reached the best
        incumbent is returned and flagged as not proven optimal.
    """

    name = "CP"

    def __init__(self, first_solution_only: bool = False, node_limit: int = 50_000_000) -> None:
        self._first_solution_only = first_solution_only
        self._node_limit = node_limit

    def _solve(
        self, problem: JRAProblem
    ) -> tuple[tuple[str, ...], float, bool, dict[str, Any]]:
        scoring = problem.scoring
        reviewer_matrix = problem.reviewer_matrix
        paper_vector = problem.paper_vector
        paper_total = problem.paper.vector.total()
        num_reviewers = problem.num_reviewers
        group_size = problem.group_size

        # The generic bound available to a black-box CP solver: no single
        # additional reviewer can add more than the best single-reviewer
        # score, and the total score can never exceed the full-coverage 1.0
        # (for normalised papers) — both are far looser than BBA's bound.
        single_scores = scoring.gain_vector(
            np.zeros(problem.num_topics), reviewer_matrix, paper_vector
        )
        best_single = float(single_scores.max(initial=0.0))
        full_coverage = scoring.coverage(reviewer_matrix.max(axis=0), paper_vector, paper_total)

        best_score = -np.inf
        best_group: tuple[int, ...] = ()
        nodes = 0
        exhausted = True
        found_first = False

        slots: list[int] = []
        group_stack = [np.zeros(problem.num_topics, dtype=np.float64)]

        def search(start: int) -> bool:
            """Depth-first search; returns True when the search must stop."""
            nonlocal best_score, best_group, nodes, exhausted, found_first
            if len(slots) == group_size:
                score = scoring.coverage(group_stack[-1], paper_vector, paper_total)
                if score > best_score:
                    best_score = score
                    best_group = tuple(slots)
                found_first = True
                return self._first_solution_only
            remaining = group_size - len(slots)
            # Generic optimistic bound for the open slots.
            current = scoring.coverage(group_stack[-1], paper_vector, paper_total)
            optimistic = min(current + remaining * best_single, full_coverage)
            if optimistic <= best_score + 1e-15:
                return False
            for candidate in range(start, num_reviewers - remaining + 1):
                nodes += 1
                if nodes > self._node_limit:
                    exhausted = False
                    return True
                slots.append(candidate)
                group_stack.append(
                    np.maximum(group_stack[-1], reviewer_matrix[candidate])
                )
                stop = search(candidate + 1)
                group_stack.pop()
                slots.pop()
                if stop:
                    return True
            return False

        search(0)

        if not best_group:
            best_group = tuple(range(group_size))
            best_score = scoring.coverage(
                reviewer_matrix[list(best_group)].max(axis=0), paper_vector
            )

        reviewer_ids = tuple(problem.reviewer_ids[index] for index in best_group)
        is_optimal = exhausted and not self._first_solution_only
        stats: dict[str, Any] = {
            "nodes_explored": nodes,
            "first_solution_only": self._first_solution_only,
        }
        return reviewer_ids, float(best_score), is_optimal, stats
