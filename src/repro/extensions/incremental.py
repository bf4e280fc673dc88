"""Incremental maintenance of an existing assignment.

Real review processes are not one-shot: late submissions arrive after the
bulk assignment has been made, and reviewers occasionally drop out.  This
module provides the two corresponding maintenance operations on top of the
WGRAP machinery:

* :func:`assign_additional_paper` — staff a newly arrived submission with
  the reviewers that still have spare capacity, using the exact BBA solver
  (this is exactly the Journal Reviewer Assignment sub-problem of
  Section 3, applied inside a conference).
* :func:`withdraw_reviewer` — remove a reviewer from the pool and re-staff
  the affected papers with a capacitated assignment over the remaining
  spare capacity (the same machinery as an SDGA stage / the repair pass).

Both operations run *through* a throwaway
:class:`~repro.service.engine.AssignmentEngine`, which applies them as
incremental mutations (one score-matrix column appended, one row dropped)
and reports the resulting delta — so long-running callers get the exact
set of changed pairs instead of having to diff two assignments.  Both
functions return a *new* problem and a *new* assignment; the inputs are
never mutated (the new problem, like every derivation, shares the
input's live conflict set).

Conflict-version discipline (audited in PR 5, the same staleness class
fixed in the engine's JRA sub-problem cache in PR 4): every cached input
this path consumes is keyed on :attr:`WGRAPProblem.versions
<repro.core.problem.WGRAPProblem.versions>` — the engine validates the
incoming assignment against the *current* conflict version before
mutating (a live ``conflicts.add`` between two incremental calls that
invalidates an assigned pair raises instead of committing), and the
repair's refill inputs read the feasibility mask through
``dense_view()``, which patches pending conflict edits in place before
any slot is filled.  ``tests/test_extensions.py``
(``TestIncrementalConflictVersionStaleness``) pins both behaviours with
conflict edits interleaved between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import Assignment
from repro.core.entities import Paper
from repro.core.problem import WGRAPProblem

__all__ = ["IncrementalUpdate", "assign_additional_paper", "withdraw_reviewer"]


@dataclass(frozen=True)
class IncrementalUpdate:
    """Result of an incremental maintenance operation.

    Attributes
    ----------
    problem:
        The updated problem instance (with the paper added or the reviewer
        removed).
    assignment:
        The updated, feasible assignment for that problem.
    affected_papers:
        Papers whose reviewer group changed during the update.
    added_pairs:
        ``(reviewer_id, paper_id)`` pairs present after but not before.
    removed_pairs:
        ``(reviewer_id, paper_id)`` pairs present before but not after.
    """

    problem: WGRAPProblem
    assignment: Assignment
    affected_papers: tuple[str, ...]
    added_pairs: tuple[tuple[str, str], ...] = ()
    removed_pairs: tuple[tuple[str, str], ...] = ()


def _run_through_engine(problem: WGRAPProblem, assignment: Assignment, operation):
    """Apply one mutation via a throwaway engine and wrap its delta.

    The engine copies the assignment and derives a fresh problem, so the
    caller's objects are never touched; detaching afterwards keeps the
    caller's problem free of dangling mutation listeners.
    """
    from repro.service.engine import AssignmentEngine

    engine = AssignmentEngine(problem, assignment=assignment)
    try:
        delta = operation(engine)
    finally:
        engine.detach()
    return IncrementalUpdate(
        problem=delta.problem,
        assignment=delta.assignment,
        affected_papers=delta.affected_papers,
        added_pairs=delta.added_pairs,
        removed_pairs=delta.removed_pairs,
    )


def assign_additional_paper(
    problem: WGRAPProblem,
    assignment: Assignment,
    paper: Paper,
    reviewer_workload: int | None = None,
) -> IncrementalUpdate:
    """Add a late submission and staff it without touching existing groups.

    Parameters
    ----------
    problem:
        The current problem (the new paper must not already be part of it).
    assignment:
        The current, complete assignment for ``problem``.
    paper:
        The newly arrived submission.
    reviewer_workload:
        Optional new workload bound ``delta_r``; when omitted the existing
        bound is kept, and an :class:`InfeasibleProblemError` is raised if
        the remaining capacity cannot absorb the new paper (the chair must
        then raise the workload explicitly).

    Raises
    ------
    ConfigurationError
        If the paper id already exists in the problem.
    InfeasibleProblemError
        If fewer than ``delta_p`` reviewers have spare capacity.
    """
    return _run_through_engine(
        problem,
        assignment,
        lambda engine: engine.add_paper(paper, reviewer_workload=reviewer_workload),
    )


def withdraw_reviewer(
    problem: WGRAPProblem,
    assignment: Assignment,
    reviewer_id: str,
) -> IncrementalUpdate:
    """Remove a reviewer from the pool and re-staff their papers.

    The reviewer's papers keep their other group members; the vacated slots
    are refilled by the repair pass (a capacitated assignment maximising
    marginal coverage, with augmenting swaps if capacity is tight).

    Raises
    ------
    KeyError
        If the reviewer is not part of the problem.
    InfeasibleProblemError
        If the remaining pool cannot cover the vacated slots.
    """
    return _run_through_engine(
        problem,
        assignment,
        lambda engine: engine.withdraw_reviewer(reviewer_id),
    )
