"""Branch-and-Bound Algorithm (BBA) for Journal Reviewer Assignment.

This is the paper's exact JRA solver (Section 3, Algorithm 1).  The search
space is the tree of reviewer combinations of depth ``delta_p``; BBA makes
it practical with four ingredients:

* **T sorted lists** — for every topic ``t`` the reviewers are pre-sorted
  by their expertise on ``t`` in descending order.
* **Branching** by marginal gain — at every stage the candidate reviewers
  are the ones currently pointed at by the per-topic cursors, and the one
  with the largest marginal gain (Definition 8) is tried first.
* **Bounding** — the per-topic cursors give an optimistic completion
  ``ub[t] = max(g[t], value at cursor t)``; if the coverage of that bound
  vector cannot beat the best group found so far, the branch is pruned and
  the search backtracks (Equation 3).
* **The submodular completion bound** — Appendix B's scoring contract
  (per-topic contributions summed independently, C.1, and non-decreasing
  in expertise, C.2) makes group coverage monotone submodular.  A group
  ``G`` that still has ``m`` members to pick therefore completes to at most
  ``c(G)`` plus the ``m`` largest marginal gains over the reviewers not yet
  visited — the only reviewers any completion in the subtree may use.
  When the cursor bound fails to prune and the incumbent heap is full,
  this bound is tried next; it prunes most of the branches the cursor
  bound keeps.

The solver is exact: pruning only removes branches whose upper bound is no
better than the incumbent.  The completion bound is made float-safe (see
:meth:`BranchAndBoundSolver._completion_bound` for the slack and its
derivation), so it never removes a subtree holding a group the cursor-only
search would record: the sequence of recorded incumbents, and with it the
answer and the tie order of the ranked ``top_k`` list, is bitwise the
cursor-only search's.  Only the search statistics (``nodes_expanded``,
``prunings``, ``complete_groups_evaluated``) change.
Both the gain-based ordering and the bounding can be disabled
individually, which is used by the ablation benchmark to quantify how much
each contributes; ``use_bound=False`` turns off both bounds.

A ``top_k`` mode keeps the ``k`` best groups in a heap instead of a single
incumbent (Figure 15); pruning then compares against the k-th best score.

Per node, the search does little more than advance the front and read
two bounds:

* **Stage gains.**  A stage's marginal gains depend only on its group
  vector, and only a descent into the stage changes that vector.  The
  search therefore computes ``gain_vector`` over the whole pool, and the
  stage's ``coverage``, once per entry into a stage: on the stage's first
  need, for the completion bound or for branching.  A descent clears
  them; a backtrack keeps them for the stage's next sibling.
* **One gain path.**  Branching always reads ``stage_gains[candidates]``,
  the completion bound the same array.  A row's gain does not depend on
  which other rows share its ``gain_vector`` batch
  (``tests/test_property_completion_bound.py`` pins this bit for bit), so
  these are the values a ``gain_vector`` over the candidates alone gives.
* **The sentinel front.**  The T sorted lists come pre-computed (and
  cached across solves) from :meth:`JRAProblem.sorted_topic_lists
  <repro.core.problem.JRAProblem.sorted_topic_lists>` and end in a
  sentinel column: reviewer index ``R`` with weight ``0.0``, whose
  ``visited_stage`` slot is never marked.  A cursor past the last reviewer
  rests on it, so the cursor advance gathers all T fronts in one step,
  walks only the cursors actually blocked by a visited reviewer, and needs
  no bounds check; the cursor bound reads ``sorted_values[t, cursor[t]]``
  directly.  The candidate set is deduplicated in first-occurrence order,
  without the sentinel.

``tests/oracles`` holds two references: the historical per-topic cursor
loops (the identical search tree, node counts included) and the
cursor-bound-only search (the paper's Algorithm 1 bounding, same answers,
more nodes).
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.core.problem import JRAProblem
from repro.jra.base import JRASolver
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["BranchAndBoundSolver"]

_EPS = float(np.finfo(np.float64).eps)


class BranchAndBoundSolver(JRASolver):
    """Exact branch-and-bound JRA solver (the paper's BBA).

    Parameters
    ----------
    top_k:
        Number of best groups to retain.  With ``top_k == 1`` (default) the
        solver behaves exactly like Algorithm 1; with larger values the
        incumbent is replaced by a bounded heap and the result's
        ``stats["top_k"]`` lists the k best groups in descending order.
    use_bound:
        Disable to skip the upper-bound pruning — the cursor bound and the
        completion bound both (ablation only).
    use_gain_ordering:
        Disable to pick candidates in arbitrary (topic) order instead of by
        marginal gain (ablation only).
    """

    name = "BBA"

    def __init__(
        self,
        top_k: int = 1,
        use_bound: bool = True,
        use_gain_ordering: bool = True,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self._top_k = top_k
        self._use_bound = use_bound
        self._use_gain_ordering = use_gain_ordering

    # ------------------------------------------------------------------
    # Core search
    # ------------------------------------------------------------------
    def _solve(
        self, problem: JRAProblem
    ) -> tuple[tuple[str, ...], float, bool, dict[str, Any]]:
        scoring = problem.scoring
        reviewer_matrix = problem.reviewer_matrix
        paper_vector = problem.paper_vector
        paper_total = problem.paper.vector.total()
        num_reviewers = problem.num_reviewers
        num_topics = problem.num_topics
        group_size = problem.group_size

        # T sorted lists: sorted_reviewers[t] lists reviewer indices by
        # expertise on topic t, descending, then the sentinel R;
        # sorted_values[t] the weights, then 0.0 — cached on the problem so
        # repeat solves skip the pre-sort.
        sorted_reviewers, sorted_values = problem.sorted_topic_lists()
        topics = np.arange(num_topics)

        # visited_stage[r] == 0 means "feasible"; otherwise it records the
        # stage at which the reviewer was visited along the current path.
        # Slot R belongs to the sentinel and is never visited.
        visited_stage = np.zeros(num_reviewers + 1, dtype=np.int64)
        pool_visited = visited_stage[:num_reviewers]
        # One cursor row per stage (1-indexed); cursors[s, t] is a position
        # in sorted list t.
        cursors = np.zeros((group_size + 1, num_topics), dtype=np.int64)

        # Running group: member indices per stage and the running max vector
        # per stage (group_vectors[s] is the vector *before* stage s picks).
        members = np.full(group_size + 1, -1, dtype=np.int64)
        group_vectors = np.zeros((group_size + 2, num_topics), dtype=np.float64)
        # stage_gains[s]: gain_vector over the whole pool and the coverage of
        # group_vectors[s], computed on the stage's first need and cleared
        # when the search descends into it (nothing else moves the vector).
        stage_gains: list[tuple[np.ndarray, float] | None] = [None] * (group_size + 1)

        def gains_of(stage: int) -> tuple[np.ndarray, float]:
            entry = stage_gains[stage]
            if entry is None:
                group_vector = group_vectors[stage]
                entry = (
                    scoring.gain_vector(group_vector, reviewer_matrix, paper_vector),
                    scoring.coverage(group_vector, paper_vector),
                )
                stage_gains[stage] = entry
            return entry

        nodes_expanded = 0
        prunings = 0
        completion_prunings = 0
        complete_groups = 0

        # Incumbent bookkeeping: a bounded min-heap of the top_k best groups.
        incumbents: list[tuple[float, int, tuple[int, ...]]] = []
        tiebreak = 0

        def incumbent_threshold() -> float:
            if len(incumbents) < self._top_k:
                return -np.inf
            return incumbents[0][0]

        def record_group(group: tuple[int, ...], score: float) -> None:
            nonlocal tiebreak
            tiebreak += 1
            entry = (score, tiebreak, group)
            if len(incumbents) < self._top_k:
                heapq.heappush(incumbents, entry)
            elif score > incumbents[0][0]:
                heapq.heapreplace(incumbents, entry)

        stage = 1
        with TRACER.span("bba.search", group_size=group_size) as search_span:
            while stage >= 1:
                cursor = cursors[stage]
                group_vector = group_vectors[stage]

                # Advance every cursor of this stage past infeasible reviewers.
                candidates = self._advance_front(
                    cursor, visited_stage, sorted_reviewers, num_reviewers
                )

                if not candidates:
                    stage = self._backtrack(stage, visited_stage, members)
                    continue

                # Bounding: optimistic completion uses the best remaining value
                # per topic (the value under each cursor; 0.0 on the sentinel).
                if self._use_bound:
                    threshold = incumbent_threshold()
                    upper_vector = np.maximum(group_vector, sorted_values[topics, cursor])
                    upper = scoring.coverage(upper_vector, paper_vector, paper_total)
                    if upper <= threshold + 1e-15:
                        prunings += 1
                        stage = self._backtrack(stage, visited_stage, members)
                        continue
                    # The completion bound, once the threshold is finite.
                    if len(incumbents) == self._top_k:
                        completion = self._completion_bound(
                            *gains_of(stage),
                            pool_visited == 0,
                            group_size - stage + 1,
                            num_topics,
                        )
                        if completion is not None:
                            bound, slack = completion
                            if bound + slack <= threshold:
                                prunings += 1
                                completion_prunings += 1
                                stage = self._backtrack(stage, visited_stage, members)
                                continue

                # Branching: pick the candidate with the largest marginal gain
                # (or simply the first candidate when ordering is disabled for
                # the ablation study).
                if self._use_gain_ordering:
                    gains = gains_of(stage)[0][candidates]
                    chosen = candidates[int(np.argmax(gains))]
                else:
                    chosen = candidates[0]

                nodes_expanded += 1
                visited_stage[chosen] = stage
                members[stage] = chosen
                extended_vector = np.maximum(group_vector, reviewer_matrix[chosen])

                if stage == group_size:
                    complete_groups += 1
                    score = scoring.coverage(extended_vector, paper_vector, paper_total)
                    group = tuple(int(members[s]) for s in range(1, group_size + 1))
                    if score > incumbent_threshold() or len(incumbents) < self._top_k:
                        record_group(group, score)
                    # Stay at this stage and try the next candidate; the chosen
                    # reviewer remains visited at this stage so it is not retried.
                    members[stage] = -1
                else:
                    group_vectors[stage + 1] = extended_vector
                    cursors[stage + 1] = cursor
                    stage += 1
                    stage_gains[stage] = None
            search_span.set(
                nodes_expanded=nodes_expanded,
                prunings=prunings,
                completion_prunings=completion_prunings,
            )

        if not incumbents:
            # Degenerate but possible when group_size > 0 and the paper has
            # zero topic mass: fall back to the lexicographically first group.
            fallback = tuple(range(group_size))
            record_group(fallback, 0.0)

        ranked = sorted(incumbents, key=lambda entry: (-entry[0], entry[1]))
        best_score, _, best_group = ranked[0]
        reviewer_ids = tuple(problem.reviewer_ids[index] for index in best_group)
        stats: dict[str, Any] = {
            "nodes_expanded": nodes_expanded,
            "prunings": prunings,
            "completion_prunings": completion_prunings,
            "complete_groups_evaluated": complete_groups,
        }
        if self._top_k > 1:
            stats["top_k"] = [
                (tuple(problem.reviewer_ids[index] for index in group), score)
                for score, _, group in ranked
            ]
        return reviewer_ids, float(best_score), True, stats

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _completion_bound(
        gains: np.ndarray,
        coverage: float,
        available: np.ndarray,
        remaining: int,
        num_topics: int,
    ) -> tuple[float, float] | None:
        """The submodular completion bound of a partial group.

        ``gains`` is ``scoring.gain_vector(g, M, p)`` over the whole pool
        ``M`` and ``coverage`` is ``scoring.coverage(g, p)``, both of the
        group's running maximum ``g`` (the search computes them once per
        entry into a stage); ``available`` is the boolean mask of the
        reviewers a completion may still use, ``remaining`` the number
        ``m`` of members still to pick and ``num_topics`` is ``T``.
        Returns ``(bound, slack)``: ``bound`` is ``c(g)`` plus the sum of
        the ``m`` largest available gains (each clipped at 0), and every
        completion ``w`` of ``m`` available reviewers scores
        ``scoring.coverage(w, p) <= bound + slack``.  The search prunes on
        ``bound + slack <= threshold``; a reference may return ``None`` to
        skip the bound.

        **Why it bounds.**  Write ``phi_t(x)`` for the *computed* per-topic
        contribution ``topic_contribution(x, p[t])``.  It is non-negative
        and non-decreasing in ``x`` (Appendix B's C.2; rounding is monotone,
        and ``min``/``where`` are exact), so with ``N(x) = sum_t phi_t(x[t])``
        summed exactly, ``phi_t(max(a, b)) = max(phi_t(a), phi_t(b))`` and
        ``N(w) - N(g) <= sum_{r in S} (N(g v r) - N(g))`` for the group
        vector ``w = g v r_1 v ... v r_m`` of any completion ``S``
        (``v`` = element-wise max): ``N`` is monotone submodular.

        **Slack.**  Let ``u = eps / 2`` be the unit roundoff and
        ``gamma = (T - 1) u`` (first order).  Every sum here has
        non-negative terms, so a summation of ``n`` terms in any order is
        within ``(n - 1) u`` of its exact value, relatively.  Then, to first
        order in ``u``:

        * a completion's computed score is at most
          ``(1 + T u) N(w) / D`` (the ``T``-term sum, then the division);
        * ``N(g) / D <= (1 + T u) c(g)``, where ``c(g)`` is the computed
          score of ``g``;
        * one computed gain ``(sum(N(g v r)) - sum(N(g))) / D`` misses the
          exact ``Delta_r / D`` by at most ``2 gamma N(g) / D`` (the two
          ``T``-term sums, with ``N(g v r) = N(g) + Delta_r`` folded back)
          plus ``(T + 1) u`` relative (that fold, the subtraction and the
          division); over ``m`` members that is ``2 m (T - 1) u c(g)``;
        * the ``m``-term sum ``h`` of the clipped gains is within
          ``(m - 1) u`` relative of its exact sum, and ``bound = c(g) + h``
          adds one more ``u``.

        Collecting terms, every completion scores at most
        ``bound + K u bound`` with ``K = max(2T + 2m(T - 1), 2T + m) + 1
        <= 2T(m + 1) + 1``.  The slack is ``K eps bound = 2 K u bound``: the
        second factor of ``u`` covers the second-order terms and the
        rounding of ``bound + slack`` itself for any ``K u <= 1/4``, so the
        bound never prunes a subtree holding a group that scores above the
        threshold (barring underflow).  The cursor bound's ``+1e-15``,
        which errs toward pruning, is not used here.
        """
        pool = gains[available]
        if pool.size > remaining:
            pool = np.partition(pool, pool.size - remaining)[pool.size - remaining:]
        bound = coverage + float(np.maximum(pool, 0.0).sum())
        slack = (2 * (remaining + 1) * num_topics + 1) * _EPS * bound
        return bound, slack

    @staticmethod
    def _advance_front(
        cursor: np.ndarray,
        visited_stage: np.ndarray,
        sorted_reviewers: np.ndarray,
        num_reviewers: int,
    ) -> list[int]:
        """Advance the cursors past visited reviewers; return the candidates.

        One gather reads all T fronts at once.  Only cursors whose front
        reviewer is currently visited fall into the per-topic walk (at most
        a handful per node: a cursor can only be blocked by a reviewer
        visited since the cursor array was copied).  The walk needs no
        bounds check: every list ends in the sentinel ``num_reviewers``,
        whose ``visited_stage`` slot is never marked.  Deduplication keeps
        first-occurrence topic order and drops the sentinel — exactly the
        list the per-topic cursor loop builds, so gain argmax tie-breaking
        and the ablation's ``candidates[0]`` pick are unchanged.
        """
        front = sorted_reviewers[np.arange(cursor.shape[0]), cursor]
        for topic in visited_stage[front].nonzero()[0].tolist():
            position = cursor[topic] + 1
            while visited_stage[sorted_reviewers[topic, position]]:
                position += 1
            cursor[topic] = position
            front[topic] = sorted_reviewers[topic, position]
        # dict preserves insertion order = first-occurrence topic order.
        candidates = dict.fromkeys(front.tolist())
        candidates.pop(num_reviewers, None)
        return list(candidates)

    @staticmethod
    def _backtrack(
        stage: int, visited_stage: np.ndarray, members: np.ndarray
    ) -> int:
        """Reset the current stage and step back to the previous one.

        Resetting clears the "visited" marks made at this stage (so those
        reviewers become available again under a different ancestor) and
        removes the previous stage's tentative member from the running
        group — it stays visited at that previous stage, so the search will
        move on to a different reviewer there.
        """
        visited_stage[visited_stage == stage] = 0
        previous = stage - 1
        if previous >= 1 and members[previous] >= 0:
            members[previous] = -1
        return previous
