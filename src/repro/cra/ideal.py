"""The "ideal assignment" used as the denominator of the optimality ratio.

Computing the true optimum of WGRAP is intractable even for small
instances, so the paper evaluates solvers against an *ideal assignment*
``AI``: every paper independently receives its best group of ``delta_p``
reviewers with the workload constraint ignored.  Since
``c(AI) >= c(O)``, the reported ratio ``c(A) / c(AI)`` is a lower bound of
the true approximation ratio ``c(A) / c(O)`` (Section 5.2).

The paper constructs ``AI`` greedily per paper.  This module finds each
paper's group with the exact BBA solver instead, which guarantees
``c(AI) >= c(O)``; the optimality ratio and the experiments rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def ideal_assignment(problem: WGRAPProblem) -> IdealAssignment:
    """Best group per paper, ignoring reviewer workloads.

    Each paper's group is found with the exact BBA solver (conflicts of
    interest are still respected), which guarantees ``c(AI) >= c(O)`` and
    therefore that the optimality ratio is a genuine lower bound of the
    approximation ratio.
    """
    assignment = Assignment()
    per_paper_scores: dict[str, float] = {}
    solver = BranchAndBoundSolver()
    for paper in problem.papers:
        result = solver.solve(problem.to_jra(paper))
        for reviewer_id in result.reviewer_ids:
            assignment.add(reviewer_id, paper.id)
        per_paper_scores[paper.id] = result.score
    total = float(sum(per_paper_scores.values()))
    return IdealAssignment(
        assignment=assignment, score=total, paper_scores=per_paper_scores
    )
