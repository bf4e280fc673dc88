"""Repair pass that completes a partial assignment.

Several constructive solvers (pair greedy, stable matching) can in tight
corner cases — capacity exactly equal to demand combined with conflicts of
interest — finish with a few papers short of their ``delta_p`` reviewers.
This module completes such assignments:

* normally with a capacitated one-reviewer-per-paper step (the same
  machinery SDGA uses for its stages), maximising the marginal coverage
  gain of the added pairs;
* when a paper is *deadlocked* — the only reviewers with spare capacity are
  already in its group — with a single augmenting swap that moves a member
  of another paper's group over and back-fills that paper with a
  spare-capacity reviewer, which preserves every constraint.

When the assignment is already complete the repair is a no-op.  The input
assignment is never modified; a completed copy is returned.

Applied to an *empty* assignment the repair pass is itself a constructive
solver: ``delta_p`` rounds of capacitated one-reviewer-per-paper refills
under the global workload — SDGA without the per-stage caps.
:class:`RefillRepairSolver` registers exactly that as the ``Repair``
baseline, so the refill machinery every other solver leans on is itself
exercised (and conformance-checked) as a first-class solver.

Refill inputs are built on the dense view; ``tests/oracles`` swaps in
the object-path builder (per-paper ``gain_vector`` over
``is_feasible_pair`` string checks) as the conformance reference — both
produce bitwise-identical gains and masks, hence identical completions.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.assignment.transportation import solve_capacitated_assignment
from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRASolver
from repro.exceptions import InfeasibleProblemError

__all__ = ["complete_assignment", "RefillRepairSolver"]


def complete_assignment(
    problem: WGRAPProblem,
    assignment: Assignment,
    backend: str = "hungarian",
) -> Assignment:
    """Fill every under-staffed paper up to ``delta_p`` reviewers.

    Raises
    ------
    InfeasibleProblemError
        If the remaining capacity cannot cover the missing slots even with
        augmenting swaps (which a validated :class:`WGRAPProblem` rules out
        unless conflicts of interest are extremely dense).
    """
    completed = assignment.copy()
    safety_budget = problem.num_papers * problem.group_size + 1

    for _ in range(safety_budget):
        missing = [
            paper_id
            for paper_id in problem.paper_ids
            if completed.group_size(paper_id) < problem.group_size
        ]
        if not missing:
            return completed

        capacities = np.array(
            [
                problem.reviewer_workload - completed.load(reviewer_id)
                for reviewer_id in problem.reviewer_ids
            ],
            dtype=np.int64,
        )
        if int(np.maximum(capacities, 0).sum()) < len(missing):
            raise InfeasibleProblemError(
                "not enough remaining reviewer capacity to complete the assignment"
            )

        gains, forbidden = _refill_inputs(problem, completed, missing, capacities)

        deadlocked = [missing[row] for row in np.flatnonzero(forbidden.all(axis=1))]
        if deadlocked:
            for paper_id in deadlocked:
                if not _resolve_deadlock(problem, completed, paper_id):
                    raise InfeasibleProblemError(
                        f"paper {paper_id!r} cannot be completed: every reviewer with "
                        "spare capacity is already in its group or conflicted"
                    )
            continue  # loads changed; rebuild the refill inputs

        result = solve_capacitated_assignment(
            gains, np.maximum(capacities, 0), forbidden=forbidden, backend=backend
        )
        for row, paper_id in enumerate(missing):
            completed.add(problem.reviewer_ids[result.row_to_col[row]], paper_id)

    raise InfeasibleProblemError("the repair pass failed to converge")


def _refill_inputs(
    problem: WGRAPProblem,
    assignment: Assignment,
    missing: list[str],
    capacities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gain matrix and forbidden mask for one refill round.

    Runs on the dense view: marginal gains of all missing papers come from
    one batched :meth:`~repro.core.dense.DenseProblem.gain_matrix` call and
    the forbidden mask is composed from the compiled feasibility mask
    instead of per-pair ``is_feasible_pair`` string checks.
    """
    dense = problem.dense_view()
    paper_indices = np.array(
        [dense.paper_pos[paper_id] for paper_id in missing], dtype=np.int64
    )
    group_vectors = np.zeros((len(missing), dense.num_topics), dtype=np.float64)
    member_rows: list[list[int]] = []
    for row, paper_id in enumerate(missing):
        rows = [dense.reviewer_pos[rid] for rid in assignment.reviewers_of(paper_id)]
        member_rows.append(rows)
        if rows:
            np.max(dense.reviewer_matrix[rows], axis=0, out=group_vectors[row])
    gains = dense.gain_matrix(group_vectors, paper_indices)
    forbidden = ~dense.feasible.T[paper_indices]
    forbidden |= (capacities <= 0)[None, :]
    for row, rows in enumerate(member_rows):
        if rows:
            forbidden[row, rows] = True
    return gains, forbidden


def _resolve_deadlock(
    problem: WGRAPProblem, assignment: Assignment, paper_id: str
) -> bool:
    """Free a slot for ``paper_id`` with one augmenting swap.

    A reviewer ``r`` with spare capacity (necessarily already in the paper's
    group) is added to some *other* paper ``q``, and in exchange one of
    ``q``'s reviewers ``s`` moves into ``paper_id``.  Loads and group sizes
    of everyone except the short paper stay unchanged, so the swap is always
    constraint-preserving.
    """
    group = assignment.reviewers_of(paper_id)
    spare_reviewers = [
        reviewer_id
        for reviewer_id in problem.reviewer_ids
        if assignment.load(reviewer_id) < problem.reviewer_workload
    ]
    for spare in spare_reviewers:
        for other_paper in problem.paper_ids:
            if other_paper == paper_id:
                continue
            other_group = assignment.reviewers_of(other_paper)
            if spare in other_group or not problem.is_feasible_pair(spare, other_paper):
                continue
            for candidate in sorted(other_group):
                if candidate in group or candidate == spare:
                    continue
                if not problem.is_feasible_pair(candidate, paper_id):
                    continue
                assignment.remove(candidate, other_paper)
                assignment.add(candidate, paper_id)
                assignment.add(spare, other_paper)
                return True
    return False


class RefillRepairSolver(CRASolver):
    """The repair pass run from an empty assignment, as a solver.

    ``delta_p`` rounds of capacitated one-reviewer-per-paper refills under
    the *global* workload (no per-stage caps): structurally SDGA's
    machinery minus the Theorem 1/2 stage discipline, which makes it a
    useful ablation baseline — and puts :func:`complete_assignment`, the
    path every constructive solver falls back on, under direct
    conformance coverage.

    Parameters
    ----------
    backend:
        Assignment backend for each refill round.
    """

    name = "Repair"

    def __init__(self, backend: str = "hungarian") -> None:
        self._backend = backend

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        assignment = complete_assignment(problem, Assignment(), backend=self._backend)
        return assignment, {"backend": self._backend, "rounds": problem.group_size}
