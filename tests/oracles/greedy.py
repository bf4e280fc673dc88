"""Object-path references of the pair greedies.

* :class:`NaiveGreedyOracle` — Greedy's conformance reference: the naive
  re-scan of every feasible pair at every step, evaluated through the
  object layer.  It shares no kernel with the fast path.
* :class:`LazyHeapGreedy` — the textbook lazy-heap greedy on the object
  path, the timing baseline of ``benchmarks/bench_dense_kernels.py``.
  It is *not* a tie-order oracle: the heap selects on recorded gains
  refreshed only when popped, and an ulp-stale record reorders
  exact-gain ties (found on the tie-heavy conformance cell, see
  ``tests/conformance/test_regressions.py``).
* :class:`RatioGreedyOracle` — Ratio-Greedy's conformance reference.

Each overrides the registry solver's ``_solve``; the repair pass they
may fall back on runs on the object path too (:func:`object_refill`).
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.greedy import GreedySolver
from repro.cra.ratio import RatioGreedySolver
from repro.cra.repair import complete_assignment
from tests.oracles import scoring as scoring_oracle
from tests.oracles.inputs import object_refill

__all__ = ["LazyHeapGreedy", "NaiveGreedyOracle", "RatioGreedyOracle"]


class NaiveGreedyOracle(GreedySolver):
    """Greedy's reference: the true-argmax re-scan through the object layer."""

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        """The naive greedy evaluated entirely through the object layer.

        Every round re-scans every feasible pair: gains come from
        per-paper :func:`~tests.oracles.scoring.group_vector`
        + :meth:`~repro.core.scoring.ScoringFunction.gain_vector` calls and
        feasibility from per-pair ``is_feasible_pair`` checks, and the
        round picks the true argmax (ties on the smallest
        ``(reviewer, paper)`` pair).
        """
        scoring = problem.scoring
        reviewer_matrix = problem.reviewer_matrix
        paper_matrix = problem.paper_matrix
        num_papers = problem.num_papers
        num_reviewers = problem.num_reviewers

        assignment = Assignment()
        loads = np.zeros(num_reviewers, dtype=np.int64)
        target_pairs = num_papers * problem.group_size
        iterations = 0
        evaluations = 0

        while len(assignment) < target_pairs:
            gains = np.full((num_reviewers, num_papers), -np.inf, dtype=np.float64)
            for paper_idx, paper_id in enumerate(problem.paper_ids):
                if assignment.group_size(paper_id) >= problem.group_size:
                    continue
                group_vector = scoring_oracle.group_vector(problem, assignment, paper_id)
                gains[:, paper_idx] = scoring.gain_vector(
                    group_vector, reviewer_matrix, paper_matrix[paper_idx]
                )
                evaluations += num_reviewers
                members = assignment.reviewers_of(paper_id)
                for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
                    if (
                        loads[reviewer_idx] >= problem.reviewer_workload
                        or reviewer_id in members
                        or not problem.is_feasible_pair(reviewer_id, paper_id)
                    ):
                        gains[reviewer_idx, paper_idx] = -np.inf

            reviewer_idx, paper_idx = np.unravel_index(np.argmax(gains), gains.shape)
            if not np.isfinite(gains[reviewer_idx, paper_idx]):
                break
            assignment.add(
                problem.reviewer_ids[int(reviewer_idx)],
                problem.paper_ids[int(paper_idx)],
            )
            loads[reviewer_idx] += 1
            iterations += 1

        repaired = False
        if len(assignment) < target_pairs:
            with object_refill():
                assignment = complete_assignment(problem, assignment)
            repaired = True
        return assignment, {
            "iterations": iterations,
            "gain_evaluations": evaluations,
            "strategy": "naive_object",
            "repaired": repaired,
        }


class LazyHeapGreedy(GreedySolver):
    """The object-path lazy-heap greedy (a timing baseline, not an oracle)."""

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        """The pre-dense lazy heap, kept as a pinned timing baseline."""
        scoring = problem.scoring
        reviewer_matrix = problem.reviewer_matrix
        paper_matrix = problem.paper_matrix
        num_papers = problem.num_papers
        num_reviewers = problem.num_reviewers

        assignment = Assignment()
        group_vectors = np.zeros((num_papers, problem.num_topics), dtype=np.float64)
        group_sizes = np.zeros(num_papers, dtype=np.int64)
        loads = np.zeros(num_reviewers, dtype=np.int64)
        versions = np.zeros(num_papers, dtype=np.int64)

        initial_gains = problem.pair_score_matrix()
        heap: list[tuple[float, int, int, int]] = []
        for paper_idx in range(num_papers):
            paper_id = problem.paper_ids[paper_idx]
            for reviewer_idx in range(num_reviewers):
                reviewer_id = problem.reviewer_ids[reviewer_idx]
                if not problem.is_feasible_pair(reviewer_id, paper_id):
                    continue
                heap.append(
                    (-float(initial_gains[reviewer_idx, paper_idx]), reviewer_idx, paper_idx, 0)
                )
        heapq.heapify(heap)

        target_pairs = num_papers * problem.group_size
        iterations = 0
        reinsertions = 0

        while len(assignment) < target_pairs and heap:
            negative_gain, reviewer_idx, paper_idx, version = heapq.heappop(heap)
            if group_sizes[paper_idx] >= problem.group_size:
                continue
            if loads[reviewer_idx] >= problem.reviewer_workload:
                continue
            reviewer_id = problem.reviewer_ids[reviewer_idx]
            paper_id = problem.paper_ids[paper_idx]
            if assignment.contains(reviewer_id, paper_id):
                continue

            if version != versions[paper_idx]:
                gain = float(
                    scoring.gain_vector(
                        group_vectors[paper_idx],
                        reviewer_matrix[reviewer_idx][None, :],
                        paper_matrix[paper_idx],
                    )[0]
                )
                heapq.heappush(
                    heap, (-gain, reviewer_idx, paper_idx, int(versions[paper_idx]))
                )
                reinsertions += 1
                continue

            assignment.add(reviewer_id, paper_id)
            group_vectors[paper_idx] = np.maximum(
                group_vectors[paper_idx], reviewer_matrix[reviewer_idx]
            )
            group_sizes[paper_idx] += 1
            loads[reviewer_idx] += 1
            versions[paper_idx] += 1
            iterations += 1

        repaired = False
        if len(assignment) < target_pairs:
            with object_refill():
                assignment = complete_assignment(problem, assignment)
            repaired = True
        return assignment, {
            "iterations": iterations,
            "heap_reinsertions": reinsertions,
            "strategy": "lazy_heap",
            "repaired": repaired,
        }


class RatioGreedyOracle(RatioGreedySolver):
    """Ratio-Greedy's reference: the same profits from object-path inputs."""

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        """Same arithmetic as the fast path, object-path inputs."""
        scoring = problem.scoring
        reviewer_matrix = problem.reviewer_matrix
        paper_matrix = problem.paper_matrix
        num_papers = problem.num_papers
        num_reviewers = problem.num_reviewers
        workload = float(problem.reviewer_workload)

        assignment = Assignment()
        loads = np.zeros(num_reviewers, dtype=np.int64)
        target_pairs = num_papers * problem.group_size
        iterations = 0

        while len(assignment) < target_pairs:
            profits = np.full((num_reviewers, num_papers), -np.inf, dtype=np.float64)
            weight = (workload - loads) / workload
            for paper_idx, paper_id in enumerate(problem.paper_ids):
                if assignment.group_size(paper_id) >= problem.group_size:
                    continue
                group_vector = scoring_oracle.group_vector(problem, assignment, paper_id)
                column = scoring.gain_vector(
                    group_vector, reviewer_matrix, paper_matrix[paper_idx]
                )
                profits[:, paper_idx] = column * weight
                members = assignment.reviewers_of(paper_id)
                for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
                    if (
                        loads[reviewer_idx] >= problem.reviewer_workload
                        or reviewer_id in members
                        or not problem.is_feasible_pair(reviewer_id, paper_id)
                    ):
                        profits[reviewer_idx, paper_idx] = -np.inf

            reviewer_idx, paper_idx = np.unravel_index(
                np.argmax(profits), profits.shape
            )
            if not np.isfinite(profits[reviewer_idx, paper_idx]):
                break
            assignment.add(
                problem.reviewer_ids[int(reviewer_idx)],
                problem.paper_ids[int(paper_idx)],
            )
            loads[reviewer_idx] += 1
            iterations += 1

        repaired = False
        if len(assignment) < target_pairs:
            with object_refill():
                assignment = complete_assignment(problem, assignment)
            repaired = True
        return assignment, {
            "iterations": iterations,
            "strategy": "object",
            "repaired": repaired,
        }
