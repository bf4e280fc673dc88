"""The pair-greedy baseline of Long et al. (2013), adapted to WGRAP.

Section 4.1 of the paper reviews this algorithm: starting from an empty
assignment, repeatedly add the feasible ``(reviewer, paper)`` pair with the
largest marginal gain until every paper has ``delta_p`` reviewers.  Because
the objective is submodular over a 2-system of feasible assignments, the
greedy achieves a 1/3 approximation (Fisher, Nemhauser and Wolsey 1978),
which the paper's SDGA improves to at least 1/2.

The solver runs on the :class:`~repro.core.dense.DenseProblem`
index-space view and keeps incrementally maintained per-paper column
maxima over the ``(R, P)`` gain matrix instead of a heap: the initial
gains come straight from the pair-score matrix and the compiled
feasibility mask (no per-pair ``is_feasible_pair`` string calls), and
each step refreshes exactly one column plus the column maxima
invalidated by a saturated reviewer.  Column refreshes go through the
exact pruned candidate generator of :mod:`repro.core.delta`: only the
top-``width`` candidates by pair score (an admissible upper bound on the
marginal gain) are evaluated, and the winner is certified against the
next candidate's bound — falling back to the full column whenever the
bound cannot certify the argmax, so the refresh is ``O(width * T)``
instead of ``O(R * T)`` without changing a single selection.  Every step
selects the feasible pair with the largest *current* marginal gain, ties
broken by smallest ``(reviewer, paper)`` — exactly the naive re-scan's
selection, which the object-path naive greedy in ``tests/oracles`` pins
bit for bit, including ties.  (A textbook lazy heap selects on
*recorded* gains refreshed only when popped; floating-point rounding can
leave a stale record an ulp below the true current gain, so in
exact-tie regimes — e.g. a group that already covers a paper's residual
— the heap's pick can differ from the true argmax by tie order.  The
historical heap survives in ``tests/oracles`` as the dense-kernel
benchmark's timing baseline, not as an oracle.)
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.assignment import Assignment
from repro.core.delta import PrunedCandidateGenerator
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRASolver
from repro.cra.repair import complete_assignment
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["GreedySolver"]


class GreedySolver(CRASolver):
    """Pair-by-pair greedy assignment (the 1/3-approximation baseline)."""

    name = "Greedy"

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        """Greedy via incrementally maintained per-paper column maxima.

        Selects, at every step, the feasible pair with the largest
        *current* marginal gain, ties broken by the smallest
        ``(reviewer, paper)`` index pair — bitwise the same selection as
        the naive full re-scan (pinned against ``tests/oracles``), at a
        fraction of its cost: instead of recomputing every gain each
        round (or popping millions of stale heap tuples), only each
        paper's current column maximum and argmax are maintained;
        assigning a pair refreshes that paper's column through the exact
        pruned candidate generator (top-``width`` shortlist by pair-score
        bound, certified, full-column fallback) and, when the reviewer
        saturates, the maxima of the columns that pointed at it —
        everything else is already up to date.  A column's gains change
        only when its own group changes, so a re-evaluation between
        refreshes reproduces the stored values exactly.
        """
        dense = problem.dense_view()
        reviewer_matrix = dense.reviewer_matrix
        num_papers = dense.num_papers
        num_reviewers = dense.num_reviewers
        reviewer_ids = problem.reviewer_ids
        paper_ids = problem.paper_ids
        group_size = dense.group_size
        reviewer_workload = dense.reviewer_workload
        feasible = dense.feasible
        generator = PrunedCandidateGenerator(dense)
        certified_before = dense.view_stats.prune_certified
        fallbacks_before = dense.view_stats.prune_fallbacks

        assignment = Assignment()
        group_vectors = np.zeros((num_papers, dense.num_topics), dtype=np.float64)
        group_sizes = np.zeros(num_papers, dtype=np.int64)
        loads = np.zeros(num_reviewers, dtype=np.int64)
        members: list[list[int]] = [[] for _ in range(num_papers)]

        initial = np.where(feasible, dense.pair_scores(), -np.inf)
        column_max = initial.max(axis=0)
        column_arg = initial.argmax(axis=0)  # first maximum = smallest reviewer
        del initial

        target_pairs = num_papers * group_size
        iterations = 0
        column_refreshes = 0

        def refresh(refresh_idx: int) -> None:
            eligible = feasible[:, refresh_idx] & (loads < reviewer_workload)
            rows = members[refresh_idx]
            if rows:
                eligible[rows] = False
            value, row = generator.column_argmax(
                refresh_idx, group_vectors[refresh_idx], eligible
            )
            column_max[refresh_idx] = value
            column_arg[refresh_idx] = row if row >= 0 else 0

        with TRACER.span("greedy.select_loop") as select_span:
            while len(assignment) < target_pairs:
                best = column_max.max()
                if not np.isfinite(best):
                    break  # no feasible pair left
                tied = np.flatnonzero(column_max == best)
                if tied.size == 1:
                    paper_idx = int(tied[0])
                else:
                    # Heap tie order: smallest (reviewer, paper) among the tied
                    # column bests.
                    paper_idx = int(tied[np.lexsort((tied, column_arg[tied]))[0]])
                reviewer_idx = int(column_arg[paper_idx])

                assignment.add(reviewer_ids[reviewer_idx], paper_ids[paper_idx])
                np.maximum(
                    group_vectors[paper_idx],
                    reviewer_matrix[reviewer_idx],
                    out=group_vectors[paper_idx],
                )
                members[paper_idx].append(reviewer_idx)
                group_sizes[paper_idx] += 1
                loads[reviewer_idx] += 1
                iterations += 1
                saturated = loads[reviewer_idx] >= reviewer_workload

                if group_sizes[paper_idx] >= group_size:
                    column_max[paper_idx] = -np.inf
                else:
                    # Refresh the paper's gains against its new group vector.
                    refresh(paper_idx)
                    column_refreshes += 1

                if saturated:
                    # Columns whose recorded argmax was the saturated reviewer
                    # must re-resolve; all other maxima are attained by still
                    # eligible reviewers whose gains have not changed.
                    stale = np.flatnonzero(
                        (column_arg == reviewer_idx) & np.isfinite(column_max)
                    )
                    for stale_idx in stale.tolist():
                        refresh(int(stale_idx))
                    column_refreshes += int(stale.size)
            select_span.set(iterations=iterations, column_refreshes=column_refreshes)

        repaired = False
        if len(assignment) < target_pairs:
            # Extremely tight capacity plus conflicts can strand a few slots;
            # top the assignment up (greedy itself has no backtracking).
            assignment = complete_assignment(problem, assignment)
            repaired = True
        return assignment, {
            "iterations": iterations,
            "column_refreshes": column_refreshes,
            "strategy": "dense_argmax",
            "prune_width": generator.width,
            "prune_certified": dense.view_stats.prune_certified - certified_before,
            "prune_fallbacks": dense.view_stats.prune_fallbacks - fallbacks_before,
            "repaired": repaired,
        }
