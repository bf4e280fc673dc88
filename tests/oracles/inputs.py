"""Object-path builders of the inputs the fast paths compile.

Each function computes, through the object API only (per-paper
:meth:`~repro.core.problem.WGRAPProblem.group_vector` +
:meth:`~repro.core.scoring.ScoringFunction.gain_vector` calls, per-pair
:meth:`~repro.core.problem.WGRAPProblem.is_feasible_pair` string checks,
``ConflictOfInterest`` set lookups, Python loops), what a solver in
``src/`` builds on the compiled :class:`~repro.core.dense.DenseProblem`
view.  The reference solvers of this package swap them in through the
solvers' private seams; :func:`object_refill` does the same for the
module-level refill builder of :mod:`repro.cra.repair`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra import repair

__all__ = [
    "advance_front_loops",
    "conflict_exclusions_object",
    "object_refill",
    "preferences_object",
    "refill_inputs_object",
    "stage_inputs_object",
]


def stage_inputs_object(
    problem: WGRAPProblem, assignment: Assignment, stage_capped: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Object-path construction of SDGA's per-stage inputs.

    One :meth:`~repro.core.scoring.ScoringFunction.gain_vector` call per
    paper against its object-path :meth:`~repro.core.problem.WGRAPProblem.group_vector`,
    feasibility from per-pair :meth:`~repro.core.problem.WGRAPProblem.is_feasible_pair`
    checks — the pre-compilation semantics the dense kernel is pinned
    against.  ``stage_capped=False`` gives SRA's uncapped refill inputs.
    """
    scoring = problem.scoring
    reviewer_matrix = problem.reviewer_matrix
    paper_matrix = problem.paper_matrix
    num_papers = problem.num_papers
    num_reviewers = problem.num_reviewers
    gains = np.empty((num_papers, num_reviewers), dtype=np.float64)
    forbidden = np.zeros((num_papers, num_reviewers), dtype=bool)
    loads = np.zeros(num_reviewers, dtype=np.int64)
    for paper_idx, paper_id in enumerate(problem.paper_ids):
        group_vector = problem.group_vector(assignment, paper_id)
        gains[paper_idx] = scoring.gain_vector(
            group_vector, reviewer_matrix, paper_matrix[paper_idx]
        )
        for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
            if not problem.is_feasible_pair(reviewer_id, paper_id):
                forbidden[paper_idx, reviewer_idx] = True
        for reviewer_id in assignment.reviewers_of(paper_id):
            row = problem.reviewer_index(reviewer_id)
            forbidden[paper_idx, row] = True
            loads[row] += 1
    remaining = np.maximum(problem.reviewer_workload - loads, 0)
    if stage_capped:
        capacities = np.minimum(problem.stage_workload, remaining)
        if int(capacities.sum()) < num_papers:
            capacities = remaining
    else:
        capacities = remaining
    return gains, forbidden, capacities


def refill_inputs_object(
    problem: WGRAPProblem,
    assignment: Assignment,
    missing: list[str],
    capacities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The repair pass's refill inputs through the object path."""
    scoring = problem.scoring
    reviewer_matrix = problem.reviewer_matrix
    paper_matrix = problem.paper_matrix
    num_reviewers = problem.num_reviewers
    gains = np.empty((len(missing), num_reviewers), dtype=np.float64)
    forbidden = np.zeros((len(missing), num_reviewers), dtype=bool)
    for row, paper_id in enumerate(missing):
        group_vector = problem.group_vector(assignment, paper_id)
        gains[row] = scoring.gain_vector(
            group_vector, reviewer_matrix, paper_matrix[problem.paper_index(paper_id)]
        )
        for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
            if capacities[reviewer_idx] <= 0:
                forbidden[row, reviewer_idx] = True
            elif not problem.is_feasible_pair(reviewer_id, paper_id):
                forbidden[row, reviewer_idx] = True
        for reviewer_id in assignment.reviewers_of(paper_id):
            forbidden[row, problem.reviewer_index(reviewer_id)] = True
    return gains, forbidden


@contextmanager
def object_refill() -> Iterator[None]:
    """Run :func:`~repro.cra.repair.complete_assignment` on the object path."""
    with mock.patch.object(repair, "_refill_inputs", refill_inputs_object):
        yield


def preferences_object(
    problem: WGRAPProblem, pair_scores: np.ndarray
) -> list[list[int]]:
    """Stable-matching preference lists via Python sorts and per-pair checks."""
    reviewer_ids = problem.reviewer_ids
    preference_lists: list[list[int]] = []
    for paper_id in problem.paper_ids:
        paper_idx = problem.paper_index(paper_id)
        column = pair_scores[:, paper_idx]
        order = sorted(
            range(problem.num_reviewers), key=lambda row: -float(column[row])
        )
        preference_lists.append(
            [
                row
                for row in order
                if problem.is_feasible_pair(reviewer_ids[row], paper_id)
            ]
        )
    return preference_lists


def conflict_exclusions_object(problem: WGRAPProblem) -> Callable[[str], set[str]]:
    """BRGG's ``paper_id -> conflicted reviewer ids`` from the conflict sets."""
    pool = set(problem.reviewer_ids)

    def conflicted_with(paper_id: str) -> set[str]:
        # Filter to reviewers that are actually in the pool: the conflict
        # container can carry entries for reviewers withdrawn earlier in the
        # mutation chain, and counting those would understate BRGG's
        # ``available`` (the dense mask never sees them — conformance pins
        # the parity).
        return {
            reviewer_id
            for reviewer_id in problem.conflicts.reviewers_conflicting_with(paper_id)
            if reviewer_id in pool
        }

    return conflicted_with


def advance_front_loops(
    cursor: np.ndarray,
    visited_stage: np.ndarray,
    sorted_reviewers: np.ndarray,
    num_reviewers: int,
) -> list[int]:
    """BBA's historical per-topic cursor walk."""
    num_topics = cursor.shape[0]
    candidates: list[int] = []
    candidate_set: set[int] = set()
    for topic in range(num_topics):
        position = cursor[topic]
        while (
            position < num_reviewers
            and visited_stage[sorted_reviewers[topic, position]] != 0
        ):
            position += 1
        cursor[topic] = position
        if position < num_reviewers:
            reviewer = int(sorted_reviewers[topic, position])
            if reviewer not in candidate_set:
                candidate_set.add(reviewer)
                candidates.append(reviewer)
    return candidates
