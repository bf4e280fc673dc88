"""The in-RAM candidate scan: the reference for the SQLite store's index.

A problem no store tracks answers
:meth:`~repro.core.problem.WGRAPProblem.candidate_reviewers` by scanning
its own reviewers.  :class:`InMemoryProblemStore` keeps that scan behind
the query method of :class:`~repro.store.base.ProblemStore`, so the store
conformance grid can diff the SQLite conflict index against it query by
query.
"""

from __future__ import annotations

from repro.core.problem import WGRAPProblem

__all__ = ["InMemoryProblemStore"]


class InMemoryProblemStore:
    """Candidate queries answered by scanning one problem's entities in RAM."""

    def __init__(self, problem: WGRAPProblem) -> None:
        self._problem = problem

    def candidate_reviewers(self, paper_id: str) -> list[str]:
        """Every reviewer id in problem order, minus the paper's conflict set."""
        problem = self._problem
        forbidden = problem.conflicts.reviewers_conflicting_with(paper_id)
        return [rid for rid in problem.reviewer_ids if rid not in forbidden]
