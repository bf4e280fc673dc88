"""Local-search refinement baseline (Section 4.4, Figure 12).

The paper compares its stochastic refinement against a standard local
search that greedily swaps assignment pairs while the swap improves the
coverage score.  Because the search only ever accepts improving moves it
quickly gets stuck in a local maximum of the huge ``(C(R, delta_p))^P``
search space — which is exactly the behaviour Figure 12 demonstrates.

Two kinds of moves are considered:

* **replace** — swap an assigned reviewer of a paper for an unassigned
  reviewer with spare capacity;
* **exchange** — swap the reviewers of two assignment pairs between their
  papers.

Both moves preserve feasibility by construction.

The default implementation runs on the
:class:`~repro.core.dense.DenseProblem` index-space view: for every
member of a paper's group the scores of replace candidates come from one
:meth:`~repro.core.dense.DenseProblem.candidate_scores` broadcast and
the scores of *all* exchange partners from one
:meth:`~repro.core.dense.DenseProblem.scores_with_reviewer` kernel over
the maintained leave-one-out group vectors, instead of ``O(R + P·delta_p)``
object-path ``paper_score`` calls.  Replace candidates are additionally
*pruned* with an admissible upper bound (submodularity:
``score(loo + {c}) <= score(loo) + c(c, p)``, so the replace gain is
bounded by ``score(loo) + pair_score - current``): only candidates whose
bound clears the running best — usually a small minority once refinement
is underway — are evaluated exactly; skipped candidates provably cannot
be accepted by the scan, so the selected moves are unchanged.  The move
*selection* replays the exact first-strict-improvement scan of the object
path over the precomputed gain vectors, so the chosen moves — and the
refined assignment — are identical to the object-path refiner kept in
``tests/oracles`` as the pinned reference and benchmark baseline (the
only normalisation is that exchange partners are visited in sorted-id
order, where the object path historically used unspecified set order).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.assignment import Assignment
from repro.core.delta import PRUNE_MARGIN
from repro.core.dense import DenseProblem
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRAResult, CRASolver
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.exceptions import ConfigurationError
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["LocalSearchRefiner", "SDGAWithLocalSearchSolver"]

#: minimum improvement for a move to be accepted
_TOLERANCE = 1e-12


def _scan_accepts(gains: np.ndarray, best: float) -> tuple[float, int]:
    """Replay the sequential first-strict-improvement scan over ``gains``.

    Returns the updated running best and the index of the last accepted
    entry (``-1`` if none).  Entries that do not beat the *initial* best by
    the tolerance can never be accepted (the running best only grows), so
    only the small improving subset is visited in Python.
    """
    chosen = -1
    for index in np.flatnonzero(gains > best + _TOLERANCE).tolist():
        gain = gains[index]
        if gain > best + _TOLERANCE:
            best = float(gain)
            chosen = index
    return best, chosen


class _DenseSearchState:
    """Incrementally maintained index-space mirror of the current assignment.

    Keeps, per paper: the member rows in sorted-id order, the aggregated
    group vector, the current coverage score, and one *leave-one-out*
    group vector per member (the exchange kernel's input, flattened to
    ``(P * delta_p, T)`` slot arrays).  A move touches at most two papers,
    so repairs are O(``delta_p``) — the kernels stay hot while the
    bookkeeping stays cheap.
    """

    def __init__(self, dense: DenseProblem, assignment: Assignment) -> None:
        self.dense = dense
        self.assignment = assignment
        problem = dense.problem
        num_papers = dense.num_papers
        group_size = dense.group_size
        self.pair_scores = dense.pair_scores()
        self.members: list[list[int]] = [
            dense.sorted_member_rows(assignment, paper_id)
            for paper_id in problem.paper_ids
        ]
        self.member_mask = np.zeros((dense.num_reviewers, num_papers), dtype=bool)
        for paper_idx, rows in enumerate(self.members):
            self.member_mask[rows, paper_idx] = True
        self.loads = dense.loads(assignment)
        self.group_vectors = dense.group_vectors(assignment, self.members)
        self.scores = dense.paper_scores(self.group_vectors)
        self.slot_paper = np.repeat(np.arange(num_papers, dtype=np.int64), group_size)
        self.slot_member = np.empty(num_papers * group_size, dtype=np.int64)
        self.slot_loo = np.empty(
            (num_papers * group_size, dense.num_topics), dtype=np.float64
        )
        #: score of each slot's leave-one-out group — the base of the
        #: admissible replace-gain bound
        self.slot_score = np.zeros(num_papers * group_size, dtype=np.float64)
        for paper_idx in range(num_papers):
            self._rebuild_slots(paper_idx)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _rebuild_slots(self, paper_idx: int) -> None:
        dense = self.dense
        rows = self.members[paper_idx]
        base = paper_idx * dense.group_size
        for offset, member in enumerate(rows):
            others = rows[:offset] + rows[offset + 1 :]
            slot = base + offset
            self.slot_member[slot] = member
            if others:
                np.max(dense.reviewer_matrix[others], axis=0, out=self.slot_loo[slot])
            else:
                self.slot_loo[slot] = 0.0
            self.slot_score[slot] = dense.paper_score(self.slot_loo[slot], paper_idx)

    def _refresh_paper(self, paper_idx: int) -> None:
        dense = self.dense
        rows = self.members[paper_idx]
        rank = dense.id_rank
        rows.sort(key=rank.__getitem__)
        if rows:
            np.max(
                dense.reviewer_matrix[rows], axis=0, out=self.group_vectors[paper_idx]
            )
        else:
            self.group_vectors[paper_idx] = 0.0
        self.scores[paper_idx] = dense.paper_score(
            self.group_vectors[paper_idx], paper_idx
        )
        self._rebuild_slots(paper_idx)

    def apply(self, move: tuple) -> None:
        """Apply a move to both the index state and the id assignment."""
        dense = self.dense
        reviewer_ids = dense.problem.reviewer_ids
        paper_ids = dense.problem.paper_ids
        if move[0] == "replace":
            _, paper_idx, out_row, in_row = move
            self.assignment.remove(reviewer_ids[out_row], paper_ids[paper_idx])
            self.assignment.add(reviewer_ids[in_row], paper_ids[paper_idx])
            members = self.members[paper_idx]
            members.remove(out_row)
            members.append(in_row)
            self.member_mask[out_row, paper_idx] = False
            self.member_mask[in_row, paper_idx] = True
            self.loads[out_row] -= 1
            self.loads[in_row] += 1
            self._refresh_paper(paper_idx)
        else:
            _, paper_a, row_a, paper_b, row_b = move
            self.assignment.remove(reviewer_ids[row_a], paper_ids[paper_a])
            self.assignment.remove(reviewer_ids[row_b], paper_ids[paper_b])
            self.assignment.add(reviewer_ids[row_b], paper_ids[paper_a])
            self.assignment.add(reviewer_ids[row_a], paper_ids[paper_b])
            self.members[paper_a].remove(row_a)
            self.members[paper_a].append(row_b)
            self.members[paper_b].remove(row_b)
            self.members[paper_b].append(row_a)
            self.member_mask[row_a, paper_a] = False
            self.member_mask[row_b, paper_a] = True
            self.member_mask[row_b, paper_b] = False
            self.member_mask[row_a, paper_b] = True
            self._refresh_paper(paper_a)
            self._refresh_paper(paper_b)

    # ------------------------------------------------------------------
    # Move search
    # ------------------------------------------------------------------
    def best_move(
        self, paper_idx: int, do_replace: bool, do_exchange: bool
    ) -> tuple[float, tuple | None]:
        """The best improving move touching ``paper_idx`` (or ``None``).

        Replays the object path's scan order — for each member (sorted by
        id): all replace candidates in reviewer order, then all exchange
        partners in (paper, sorted member) order — against batch-computed
        gain vectors.
        """
        dense = self.dense
        current_score = float(self.scores[paper_idx])
        best_gain = 0.0
        best_move: tuple | None = None
        base = paper_idx * dense.group_size

        for offset in range(len(self.members[paper_idx])):
            slot = base + offset
            out_row = int(self.slot_member[slot])
            leave_one_out = self.slot_loo[slot]
            allowed = (
                ~self.member_mask[:, paper_idx]
                & (self.loads < dense.reviewer_workload)
                & dense.feasible[:, paper_idx]
            )
            # Scores of the group with ``out_row`` swapped for each
            # candidate — shared by replace gains and the exchange "a" side.
            swapped_scores = self._swapped_scores(
                paper_idx, slot, leave_one_out, allowed, current_score,
                best_gain, do_replace, do_exchange,
            )

            if do_replace:
                gains = swapped_scores - current_score
                gains[~allowed] = -np.inf
                new_best, chosen = _scan_accepts(gains, best_gain)
                if chosen >= 0:
                    best_gain = new_best
                    best_move = ("replace", paper_idx, out_row, chosen)

            if do_exchange:
                partner_scores = dense.scores_with_reviewer(
                    self.slot_loo, self.slot_paper, out_row
                )
                after = swapped_scores[self.slot_member] + partner_scores
                before = current_score + self.scores[self.slot_paper]
                gains = after - before
                allowed = self.slot_paper != paper_idx
                allowed &= ~self.member_mask[self.slot_member, paper_idx]
                allowed &= ~self.member_mask[out_row, self.slot_paper]
                allowed &= dense.feasible[self.slot_member, paper_idx]
                allowed &= dense.feasible[out_row, self.slot_paper]
                gains[~allowed] = -np.inf
                new_best, chosen = _scan_accepts(gains, best_gain)
                if chosen >= 0:
                    best_gain = new_best
                    best_move = (
                        "exchange",
                        paper_idx,
                        out_row,
                        int(self.slot_paper[chosen]),
                        int(self.slot_member[chosen]),
                    )
        return best_gain, best_move

    def _swapped_scores(
        self,
        paper_idx: int,
        slot: int,
        leave_one_out: np.ndarray,
        allowed: np.ndarray,
        current_score: float,
        best_gain: float,
        do_replace: bool,
        do_exchange: bool,
    ) -> np.ndarray:
        """Scores of ``loo + {candidate}``, pruned to the candidates that matter.

        A candidate's replace gain is bounded by
        ``slot_score + pair_score - current_score`` (admissible:
        submodularity caps the candidate's contribution to the
        leave-one-out group by its solo score).  Only candidates whose
        bound clears the running acceptance threshold — plus, when
        exchange moves are on, every current group member anywhere (the
        exchange kernel reads those entries) — are evaluated exactly,
        through a row-gathered kernel that is bitwise-equal to the full
        broadcast.  Skipped entries are ``-inf``: their true gain is below
        the threshold, so the first-strict-improvement scan could never
        have accepted them.

        When exchange moves force a near-dense gather anyway (assigned
        reviewers approach the pool size, true of every
        capacity-saturated instance), there is nothing to prune: the full
        kernel runs directly, without the bound work and without touching
        the prune counters.  ``prune_fallbacks`` therefore counts only
        genuinely attempted-but-uncertified prunes.
        """
        dense = self.dense
        num_reviewers = dense.num_reviewers
        if do_exchange and self.slot_member.size * 2 >= num_reviewers:
            # The exchange side alone needs (an upper bound of) most of the
            # column: pruning is inapplicable here, not failed.
            return dense.candidate_scores(leave_one_out, paper_idx)
        if do_replace:
            bound = self.slot_score[slot] + self.pair_scores[:, paper_idx]
            surviving = np.flatnonzero(
                allowed
                & (bound - current_score + PRUNE_MARGIN > best_gain + _TOLERANCE)
            )
        else:
            surviving = np.empty(0, dtype=np.int64)
        if do_exchange:
            rows = np.union1d(surviving, self.slot_member)
        else:
            rows = surviving
        if rows.size * 2 >= num_reviewers:
            # Bound too loose to pay for the gather: evaluate everything.
            dense.view_stats.prune_fallbacks += 1
            return dense.candidate_scores(leave_one_out, paper_idx)
        dense.view_stats.prune_certified += 1
        swapped = np.full(num_reviewers, -np.inf, dtype=np.float64)
        swapped[rows] = dense.candidate_scores_for_rows(
            leave_one_out, paper_idx, rows
        )
        return swapped


class LocalSearchRefiner:
    """Greedy hill-climbing over replace/exchange moves.

    Parameters
    ----------
    max_rounds:
        Maximum number of full passes over the papers.
    time_budget:
        Optional wall-clock budget in seconds.
    moves:
        Which move kinds to consider: ``"all"`` (default), ``"replace"``
        or ``"exchange"``.
    """

    def __init__(
        self,
        max_rounds: int = 100,
        time_budget: float | None = None,
        moves: str = "all",
    ) -> None:
        if moves not in {"all", "replace", "exchange"}:
            raise ConfigurationError("moves must be 'all', 'replace' or 'exchange'")
        self._max_rounds = max_rounds
        self._time_budget = time_budget
        self._moves = moves

    def refine(
        self, problem: WGRAPProblem, assignment: Assignment
    ) -> tuple[Assignment, dict[str, Any]]:
        """Hill-climb from ``assignment``; returns the local optimum reached."""
        problem.validate_assignment(assignment, require_complete=True)
        return self._refine(problem, assignment)

    def _refine(
        self, problem: WGRAPProblem, assignment: Assignment
    ) -> tuple[Assignment, dict[str, Any]]:
        """The dense hill-climb over a :class:`_DenseSearchState` mirror."""
        dense = problem.dense_view()
        state = _DenseSearchState(dense, assignment.copy())
        current_score = float(sum(state.scores.tolist()))
        do_replace = self._moves in {"all", "replace"}
        do_exchange = self._moves in {"all", "exchange"}
        started = time.perf_counter()
        history: list[tuple[float, float]] = [(0.0, current_score)]
        moves_applied = 0

        for round_index in range(self._max_rounds):
            if self._time_budget is not None:
                if time.perf_counter() - started >= self._time_budget:
                    break
            improved = False

            with TRACER.span("local_search.round", round=round_index) as round_span:
                moves_before = moves_applied
                for paper_idx in range(dense.num_papers):
                    if self._time_budget is not None:
                        if time.perf_counter() - started >= self._time_budget:
                            break
                    gain, move = state.best_move(paper_idx, do_replace, do_exchange)
                    if move is not None and gain > _TOLERANCE:
                        state.apply(move)
                        current_score += gain
                        moves_applied += 1
                        improved = True
                        history.append((time.perf_counter() - started, current_score))
                round_span.set(moves=moves_applied - moves_before)

            if not improved:
                break

        stats: dict[str, Any] = {
            "moves_applied": moves_applied,
            "final_score": current_score,
            "history": history,
        }
        return state.assignment, stats


class SDGAWithLocalSearchSolver(CRASolver):
    """SDGA followed by local search — the "SDGA-LS" line of Figure 12."""

    name = "SDGA-LS"

    def __init__(
        self,
        refiner: LocalSearchRefiner | None = None,
        base_solver: CRASolver | None = None,
    ) -> None:
        self._refiner = refiner or LocalSearchRefiner()
        self._base_solver = base_solver or StageDeepeningGreedySolver()

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        base_result: CRAResult = self._base_solver.solve(problem)
        refined, refine_stats = self._refiner.refine(problem, base_result.assignment)
        stats: dict[str, Any] = {
            "base_solver": self._base_solver.name,
            "base_score": base_result.score,
            **{f"local_search_{key}": value for key, value in refine_stats.items()},
        }
        return refined, stats
