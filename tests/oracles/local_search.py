"""Object-path reference of the local-search refiner (SDGA-LS).

:class:`LocalSearchOracle` overrides :class:`~repro.cra.local_search.LocalSearchRefiner`'s
``_refine`` with the pre-dense hill-climb: every replace and exchange
candidate is scored by mutating the assignment and calling the
object-path :func:`~tests.oracles.scoring.paper_score`.  It selects the
identical moves as the dense search, and it is the refinement half of the
dense-kernel benchmark's timing baseline.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.local_search import _TOLERANCE, LocalSearchRefiner
from repro.obs.trace import get_tracer
from tests.oracles.scoring import assignment_score, paper_score

TRACER = get_tracer()

__all__ = ["LocalSearchOracle"]


class LocalSearchOracle(LocalSearchRefiner):
    """The local-search refiner evaluated entirely through the object layer."""

    def _refine(
        self, problem: WGRAPProblem, assignment: Assignment
    ) -> tuple[Assignment, dict[str, Any]]:
        """The pre-dense hill-climb over object-path ``paper_score`` calls."""
        current = assignment.copy()
        current_score = assignment_score(problem, current)
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
                for paper_id in problem.paper_ids:
                    if self._time_budget is not None:
                        if time.perf_counter() - started >= self._time_budget:
                            break
                    gain, move = self._best_move_for_paper(problem, current, paper_id)
                    if move is not None and gain > _TOLERANCE:
                        self._apply_move(current, move)
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
        return current, stats

    # ------------------------------------------------------------------
    # Move generation (object path)
    # ------------------------------------------------------------------
    def _best_move_for_paper(
        self, problem: WGRAPProblem, assignment: Assignment, paper_id: str
    ) -> tuple[float, tuple | None]:
        """The best improving move that touches ``paper_id`` (or ``None``)."""
        best_gain = 0.0
        best_move: tuple | None = None
        current_score = paper_score(problem, assignment, paper_id)
        members = sorted(assignment.reviewers_of(paper_id))
        do_replace = self._moves in {"all", "replace"}
        do_exchange = self._moves in {"all", "exchange"}

        for reviewer_id in members:
            # Replace moves: bring in a reviewer with spare capacity.
            if do_replace:
                for candidate_id in problem.reviewer_ids:
                    if candidate_id in members:
                        continue
                    if assignment.load(candidate_id) >= problem.reviewer_workload:
                        continue
                    if not problem.is_feasible_pair(candidate_id, paper_id):
                        continue
                    gain = self._replace_gain(
                        problem, assignment, paper_id, reviewer_id, candidate_id, current_score
                    )
                    if gain > best_gain + _TOLERANCE:
                        best_gain = gain
                        best_move = ("replace", paper_id, reviewer_id, candidate_id)

            # Exchange moves: trade reviewers with another paper.
            if do_exchange:
                for other_paper_id in problem.paper_ids:
                    if other_paper_id == paper_id:
                        continue
                    for other_reviewer_id in sorted(assignment.reviewers_of(other_paper_id)):
                        gain = self._exchange_gain(
                            problem,
                            assignment,
                            paper_id,
                            reviewer_id,
                            other_paper_id,
                            other_reviewer_id,
                        )
                        if gain is not None and gain > best_gain + _TOLERANCE:
                            best_gain = gain
                            best_move = (
                                "exchange",
                                paper_id,
                                reviewer_id,
                                other_paper_id,
                                other_reviewer_id,
                            )
        return best_gain, best_move

    @staticmethod
    def _replace_gain(
        problem: WGRAPProblem,
        assignment: Assignment,
        paper_id: str,
        out_reviewer: str,
        in_reviewer: str,
        current_score: float,
    ) -> float:
        assignment.remove(out_reviewer, paper_id)
        assignment.add(in_reviewer, paper_id)
        new_score = paper_score(problem, assignment, paper_id)
        assignment.remove(in_reviewer, paper_id)
        assignment.add(out_reviewer, paper_id)
        return new_score - current_score

    @staticmethod
    def _exchange_gain(
        problem: WGRAPProblem,
        assignment: Assignment,
        paper_a: str,
        reviewer_a: str,
        paper_b: str,
        reviewer_b: str,
    ) -> float | None:
        """Gain of swapping ``reviewer_a`` and ``reviewer_b`` between papers."""
        if reviewer_b in assignment.reviewers_of(paper_a):
            return None
        if reviewer_a in assignment.reviewers_of(paper_b):
            return None
        if not problem.is_feasible_pair(reviewer_b, paper_a):
            return None
        if not problem.is_feasible_pair(reviewer_a, paper_b):
            return None
        before = paper_score(problem, assignment, paper_a) + paper_score(
            problem, assignment, paper_b
        )
        assignment.remove(reviewer_a, paper_a)
        assignment.remove(reviewer_b, paper_b)
        assignment.add(reviewer_b, paper_a)
        assignment.add(reviewer_a, paper_b)
        after = paper_score(problem, assignment, paper_a) + paper_score(
            problem, assignment, paper_b
        )
        assignment.remove(reviewer_b, paper_a)
        assignment.remove(reviewer_a, paper_b)
        assignment.add(reviewer_a, paper_a)
        assignment.add(reviewer_b, paper_b)
        return after - before

    @staticmethod
    def _apply_move(assignment: Assignment, move: tuple) -> None:
        if move[0] == "replace":
            _, paper_id, out_reviewer, in_reviewer = move
            assignment.remove(out_reviewer, paper_id)
            assignment.add(in_reviewer, paper_id)
        else:
            _, paper_a, reviewer_a, paper_b, reviewer_b = move
            assignment.remove(reviewer_a, paper_a)
            assignment.remove(reviewer_b, paper_b)
            assignment.add(reviewer_b, paper_a)
            assignment.add(reviewer_a, paper_b)
