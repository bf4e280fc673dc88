"""The "ideal assignment" used as the denominator of the optimality ratio.

Computing the true optimum of WGRAP is intractable even for small
instances, so the paper evaluates solvers against an *ideal assignment*
``AI``: every paper independently receives its best group of ``delta_p``
reviewers with the workload constraint ignored.  Since
``c(AI) >= c(O)``, the reported ratio ``c(A) / c(AI)`` is a lower bound of
the true approximation ratio ``c(A) / c(O)`` (Section 5.2).

The paper constructs ``AI`` greedily per paper.  This module finds each
paper's group with the exact BBA solver by default, which guarantees
``c(AI) >= c(O)``; the optimality ratio and the experiments rely on that
default.  ``exact=False`` builds the groups greedily instead (cheaper,
and enough when only relative comparisons between methods are needed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.jra.bba import BranchAndBoundSolver

__all__ = ["IdealAssignment", "ideal_assignment"]


@dataclass(frozen=True)
class IdealAssignment:
    """The per-paper ideal reference assignment and its score.

    Note that the assignment usually violates the reviewer workload — that
    is by design; it is a scoring reference, not a deployable assignment.
    """

    assignment: Assignment
    score: float
    paper_scores: dict[str, float]


def ideal_assignment(problem: WGRAPProblem, exact: bool = True) -> IdealAssignment:
    """Best group per paper, ignoring reviewer workloads.

    Parameters
    ----------
    problem:
        The WGRAP instance (conflicts of interest are still respected).
    exact:
        When true (default), each paper's group is found with the exact BBA
        solver, which guarantees ``c(AI) >= c(O)`` and therefore that the
        optimality ratio is a genuine lower bound of the approximation
        ratio.  When false each group is built greedily by repeatedly adding
        the reviewer with the largest marginal gain (cheaper, and sufficient
        when only relative comparisons between methods are needed).
    """
    assignment = Assignment()
    per_paper_scores: dict[str, float] = {}

    if exact:
        solver = BranchAndBoundSolver()
        for paper in problem.papers:
            result = solver.solve(problem.to_jra(paper))
            for reviewer_id in result.reviewer_ids:
                assignment.add(reviewer_id, paper.id)
            per_paper_scores[paper.id] = result.score
    else:
        reviewer_matrix = problem.reviewer_matrix
        for paper_idx, paper in enumerate(problem.papers):
            forbidden = problem.conflicts.reviewers_conflicting_with(paper.id)
            forbidden_rows = [
                problem.reviewer_index(reviewer_id)
                for reviewer_id in forbidden
                if reviewer_id in problem.reviewer_ids
            ]
            group_vector = np.zeros(problem.num_topics, dtype=np.float64)
            chosen: list[int] = []
            for _ in range(problem.group_size):
                gains = problem.scoring.gain_vector(
                    group_vector, reviewer_matrix, problem.paper_matrix[paper_idx]
                )
                gains[chosen] = -np.inf
                if forbidden_rows:
                    gains[forbidden_rows] = -np.inf
                best = int(np.argmax(gains))
                chosen.append(best)
                group_vector = np.maximum(group_vector, reviewer_matrix[best])
            for reviewer_idx in chosen:
                assignment.add(problem.reviewer_ids[reviewer_idx], paper.id)
            per_paper_scores[paper.id] = problem.paper_score(assignment, paper.id)

    total = float(sum(per_paper_scores.values()))
    return IdealAssignment(
        assignment=assignment, score=total, paper_scores=per_paper_scores
    )
