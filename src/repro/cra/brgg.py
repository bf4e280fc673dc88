"""Best Reviewer Group Greedy (BRGG) baseline.

Section 5.2 of the paper evaluates a natural alternative to SDGA that was
sketched at the start of Section 4.2: at every iteration, find the *whole*
best reviewer group for some not-yet-assigned paper (subject to the
remaining reviewer capacities) and commit it.  Early papers obtain
excellent groups, but they greedily consume the strongest reviewers, so the
papers assigned last are left with poor groups — which is why BRGG loses to
SDGA on the overall coverage score (Figure 10) despite winning many
per-paper comparisons early on (Figure 11).

Finding a paper's best group is itself a JRA instance, solved here with the
exact BBA solver over the reviewers that still have spare capacity.  A lazy
priority queue avoids recomputing a paper's best group unless one of its
cached members has run out of capacity (removing reviewers can only lower
the best achievable score, so cached scores are valid upper bounds).

The per-paper conflict exclusions are read from the compiled feasibility
mask of the problem's :class:`~repro.core.dense.DenseProblem` (one boolean
column per sub-solve, with live conflict edits patched in by
``dense_view()``) and the inner BBA runs its vectorised candidate front.
The conformance reference in ``tests/oracles`` swaps in the object-path
exclusions (``ConflictOfInterest`` set lookups) and the cursor-loop BBA;
both exclude exactly the same reviewers and hence commit identical groups.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any

from repro.core.assignment import Assignment
from repro.core.problem import JRAProblem, WGRAPProblem
from repro.cra.base import CRASolver
from repro.cra.repair import complete_assignment
from repro.jra.bba import BranchAndBoundSolver

__all__ = ["BestReviewerGroupGreedySolver"]


class BestReviewerGroupGreedySolver(CRASolver):
    """Assign whole groups paper-by-paper, best-scoring paper first."""

    name = "BRGG"

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        assignment = Assignment()
        loads = {reviewer_id: 0 for reviewer_id in problem.reviewer_ids}
        bba = self._group_solver()
        conflicted_with = self._conflict_exclusions(problem)

        def best_group(paper_id: str) -> tuple[float, tuple[str, ...]]:
            """Best feasible group for ``paper_id`` under remaining capacity.

            Towards the end of the process, the remaining spare capacity can
            be concentrated on fewer than ``delta_p`` distinct reviewers; in
            that case the best *partial* group is returned and the final
            repair pass completes the paper with augmenting swaps — the same
            corner case every whole-group-at-a-time strategy has to handle
            under the paper's minimal-workload setting.
            """
            exhausted = {
                reviewer_id
                for reviewer_id, load in loads.items()
                if load >= problem.reviewer_workload
            }
            excluded = exhausted | conflicted_with(paper_id)
            available = problem.num_reviewers - len(excluded)
            if available <= 0:
                return 0.0, ()
            group_size = min(problem.group_size, available)
            sub_problem = JRAProblem(
                paper=problem.paper_by_id(paper_id),
                reviewers=problem.reviewers,
                group_size=group_size,
                excluded_reviewers=excluded,
                scoring=problem.scoring,
            )
            result = bba.solve(sub_problem)
            return result.score, result.reviewer_ids

        # Seed the lazy priority queue with every paper's unconstrained best
        # group; entries are (-score, paper_id, group).
        heap: list[tuple[float, str, tuple[str, ...]]] = []
        for paper_id in problem.paper_ids:
            score, group = best_group(paper_id)
            heapq.heappush(heap, (-score, paper_id, group))

        group_solves = len(heap)
        assigned_papers: set[str] = set()

        while heap:
            negative_score, paper_id, group = heapq.heappop(heap)
            if paper_id in assigned_papers:
                continue
            if any(loads[reviewer_id] >= problem.reviewer_workload for reviewer_id in group):
                # Cached group is stale: recompute and reinsert (the cached
                # score was an upper bound, so ordering stays correct).
                score, fresh_group = best_group(paper_id)
                group_solves += 1
                heapq.heappush(heap, (-score, paper_id, fresh_group))
                continue
            for reviewer_id in group:
                assignment.add(reviewer_id, paper_id)
                loads[reviewer_id] += 1
            assigned_papers.add(paper_id)

        repaired = False
        if any(
            assignment.group_size(paper_id) < problem.group_size
            for paper_id in problem.paper_ids
        ):
            assignment = complete_assignment(problem, assignment)
            repaired = True
        return assignment, {"group_solves": group_solves, "repaired": repaired}

    @staticmethod
    def _group_solver() -> BranchAndBoundSolver:
        """The exact JRA solver behind every best-group sub-solve."""
        return BranchAndBoundSolver()

    @staticmethod
    def _conflict_exclusions(problem: WGRAPProblem) -> Callable[[str], set[str]]:
        """``paper_id -> conflicted reviewer ids``, read from the compiled mask.

        The mask only holds pool members, so conflict entries naming
        reviewers withdrawn earlier in a mutation chain never reach the
        exclusion set (counting them would understate ``available``).
        """
        dense = problem.dense_view()
        reviewer_ids = problem.reviewer_ids

        def conflicted_with(paper_id: str) -> set[str]:
            column = dense.feasible[:, dense.paper_pos[paper_id]]
            return {reviewer_ids[row] for row in (~column).nonzero()[0]}

        return conflicted_with
