"""The in-RAM candidate scan: the reference for the SQLite store's index.

A problem no store tracks answers
:meth:`~repro.core.problem.WGRAPProblem.candidate_reviewers` by scanning
its own reviewers.  :class:`InMemoryProblemStore` keeps that scan, and the
dense ``W_r · q`` shortlist proxy, behind the two query methods of
:class:`~repro.store.base.ProblemStore`, so the store conformance grid and
``benchmarks/bench_store.py`` can diff the SQLite inverted index against
them query by query.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.problem import WGRAPProblem

__all__ = ["InMemoryProblemStore", "topic_proxy_scores"]


def topic_proxy_scores(reviewer_matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """The shortlist proxy the SQLite store ranks by: ``W_r · q``.

    Restricting the dot product to the query's non-zero topics is exactly
    the full dot product (zero entries contribute nothing), which is what
    lets the SQLite store answer the same query from its inverted topic
    index without touching zero postings.
    """
    return reviewer_matrix @ np.asarray(vector, dtype=np.float64)


class InMemoryProblemStore:
    """Candidate queries answered by scanning one problem's entities in RAM."""

    def __init__(self, problem: WGRAPProblem) -> None:
        self._problem = problem

    def candidate_reviewers(self, paper_id: str) -> list[str]:
        """Every reviewer id in problem order, minus the paper's conflict set."""
        problem = self._problem
        forbidden = problem.conflicts.reviewers_conflicting_with(paper_id)
        return [rid for rid in problem.reviewer_ids if rid not in forbidden]

    def topic_candidates(self, vector: Any, limit: int) -> list[tuple[str, float]]:
        """The ``limit`` reviewers with the largest proxy score, ties by position."""
        problem = self._problem
        proxy = topic_proxy_scores(problem.reviewer_matrix, vector)
        order = np.argsort(-proxy, kind="stable")[: max(0, int(limit))]
        reviewer_ids = problem.reviewer_ids
        return [(reviewer_ids[int(row)], float(proxy[int(row)])) for row in order]
