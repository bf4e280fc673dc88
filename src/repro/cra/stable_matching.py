"""Stable Matching (SM) baseline — Gale-Shapley with capacities.

The paper includes stable matching as a widely accepted resource-allocation
baseline for CRA (Section 5.2).  Papers play the proposing side: each paper
needs ``delta_p`` seats and proposes to reviewers in decreasing order of
the pair coverage score; every reviewer holds at most ``delta_r``
proposals, always keeping the papers it scores highest on.  The result is
stable with respect to the pairwise scores but — as the paper's experiments
show — ignores the *group* composition, so interdisciplinary papers often
end up with narrow groups.

The default path builds the preference lists in index space: one stable
argsort per paper over the shared (delta-maintained) pair-score matrix,
conflicts masked out through the compiled feasibility mask of
:class:`~repro.core.dense.DenseProblem`.  Because the mask is obtained
through :meth:`WGRAPProblem.dense_view
<repro.core.problem.WGRAPProblem.dense_view>` *inside the solve*, live
conflict edits are patched in before any preference list is built — a
mid-session ``problem.conflicts.add(...)`` is observed, never a stale
snapshot (pinned by ``tests/conformance``).  The object-path lists —
Python sorts over per-pair ``is_feasible_pair`` checks — are the
conformance reference in ``tests/oracles``; both produce identical
preference lists (stable sort, same tie order) and therefore identical
matchings.
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRASolver
from repro.cra.repair import complete_assignment

__all__ = ["StableMatchingSolver"]


class StableMatchingSolver(CRASolver):
    """Deferred acceptance between papers (proposers) and reviewers."""

    name = "SM"

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        pair_scores = problem.pair_score_matrix()  # (R, P), shared cache
        preference_lists = self._preferences(problem, pair_scores)

        num_papers = problem.num_papers
        num_reviewers = problem.num_reviewers
        next_proposal = [0] * num_papers
        seats_needed = [problem.group_size] * num_papers
        #: for every reviewer, the held papers as a list of (score, paper_idx)
        held: list[list[tuple[float, int]]] = [[] for _ in range(num_reviewers)]

        queue: deque[int] = deque(range(num_papers))
        proposals = 0
        rejections = 0

        while queue:
            paper_idx = queue.popleft()
            if seats_needed[paper_idx] == 0:
                continue
            preferences = preference_lists[paper_idx]
            while seats_needed[paper_idx] > 0 and next_proposal[paper_idx] < len(preferences):
                reviewer_idx = preferences[next_proposal[paper_idx]]
                next_proposal[paper_idx] += 1
                proposals += 1
                score = float(pair_scores[reviewer_idx, paper_idx])
                holdings = held[reviewer_idx]
                if len(holdings) < problem.reviewer_workload:
                    holdings.append((score, paper_idx))
                    seats_needed[paper_idx] -= 1
                    continue
                # Reviewer is full: keep the proposal only if it beats the
                # weakest held paper.
                weakest_position = min(
                    range(len(holdings)), key=lambda position: holdings[position][0]
                )
                weakest_score, weakest_paper = holdings[weakest_position]
                if score > weakest_score:
                    holdings[weakest_position] = (score, paper_idx)
                    seats_needed[paper_idx] -= 1
                    seats_needed[weakest_paper] += 1
                    queue.append(weakest_paper)
                    rejections += 1
                else:
                    rejections += 1

        assignment = Assignment()
        for reviewer_idx, holdings in enumerate(held):
            reviewer_id = problem.reviewer_ids[reviewer_idx]
            for _, paper_idx in holdings:
                assignment.add(reviewer_id, problem.paper_ids[paper_idx])

        repaired = False
        if any(
            assignment.group_size(paper_id) < problem.group_size
            for paper_id in problem.paper_ids
        ):
            # Dense conflicts can exhaust a paper's preference list; top the
            # assignment up with the repair pass (rare in practice).
            assignment = complete_assignment(problem, assignment)
            repaired = True

        return assignment, {
            "proposals": proposals,
            "rejections": rejections,
            "repaired": repaired,
        }

    # ------------------------------------------------------------------
    # Preference lists
    # ------------------------------------------------------------------
    @staticmethod
    def _preferences(
        problem: WGRAPProblem, pair_scores: np.ndarray
    ) -> list[list[int]]:
        """Reviewer indices by descending score, conflicts masked in index space.

        The feasibility mask comes from ``dense_view()`` *here*, at solve
        time, so pending in-place conflict patches are applied before the
        lists are built.
        """
        dense = problem.dense_view()
        feasible = dense.feasible
        preference_lists: list[list[int]] = []
        for paper_idx in range(problem.num_papers):
            order = np.argsort(-pair_scores[:, paper_idx], kind="stable")
            preference_lists.append(order[feasible[order, paper_idx]].tolist())
        return preference_lists
