"""Object-path reference of the assignment scorers.

``src/`` scores every assignment through one implementation:
:meth:`WGRAPProblem.assignment_score
<repro.core.problem.WGRAPProblem.assignment_score>` and ``paper_scores``
read the compiled view's batched kernel, and the JRA searches and the
scalar API call :meth:`ScoringFunction.coverage
<repro.core.scoring.ScoringFunction.coverage>`.  The functions here are
the object-path scorers those replaced: string-id lookups, one validated
:class:`~repro.core.vectors.TopicVector` per paper and Python summation
in paper order.  They call neither ``coverage`` nor ``dense_view()``, so
they share no code with the kernels they check beyond the scoring's
``topic_contribution``; ``tests/test_dense_kernels.py`` and
``tests/conformance/test_scoring_conformance.py`` hold the kernels to
them bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.core.vectors import TopicVector

__all__ = ["assignment_score", "group_vector", "paper_score"]


def group_vector(problem: WGRAPProblem, assignment: Assignment, paper_id: str) -> np.ndarray:
    """The aggregated expertise vector of a paper's assigned group.

    Returns the zero vector when the paper has no reviewers yet; an
    unknown reviewer id raises :class:`KeyError`.
    """
    reviewer_ids = assignment.reviewers_of(paper_id)
    if not reviewer_ids:
        return np.zeros(problem.num_topics, dtype=np.float64)
    rows = [problem.reviewer_index(rid) for rid in reviewer_ids]
    return problem.reviewer_matrix[rows].max(axis=0)


def paper_score(problem: WGRAPProblem, assignment: Assignment, paper_id: str) -> float:
    """Coverage of one paper under the assignment (0 for zero topic mass)."""
    paper = problem.paper_by_id(paper_id)
    group = TopicVector(group_vector(problem, assignment, paper_id))
    total = paper.vector.total()
    if total <= 0.0:
        return 0.0
    return problem.scoring.numerator(group, paper.vector) / total


def assignment_score(problem: WGRAPProblem, assignment: Assignment) -> float:
    """Total coverage ``c(A)``: per-paper scores summed in paper order."""
    return float(
        sum(paper_score(problem, assignment, paper.id) for paper in problem.papers)
    )
