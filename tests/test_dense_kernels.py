"""Equivalence tests for the dense index-space kernels.

Two families of guarantees keep ``repro.core.dense`` honest:

* **kernel equivalence** — every ``DenseProblem`` kernel matches the
  object-path computation it compiles (``tests.oracles.scoring``'s
  ``paper_score``, ``ScoringFunction.gain_vector``, ...) to 0 ulp across
  random instances and scoring functions;
* **solver equivalence** — every solver rewired onto the dense view
  returns an assignment identical to its pre-refactor object-path
  behaviour (the object-path references in ``tests/oracles``, or a pinned
  reference replicated here where only the SRA loop's staging moved).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.scoring import available_scoring_functions, get_scoring_function
from repro.cra.greedy import GreedySolver
from repro.cra.local_search import LocalSearchRefiner
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.cra.sra import StochasticRefiner
from repro.cra.stable_matching import StableMatchingSolver
from repro.data.synthetic import make_problem
from repro.jra.topk import find_top_k_groups
from repro.service.cache import ScoreMatrixCache
from tests.oracles import LazyHeapGreedy, LocalSearchOracle, NaiveGreedyOracle
from tests.oracles.inputs import preferences_object, stage_inputs_object
from tests.oracles.scoring import assignment_score, group_vector, paper_score


def _instance(seed: int, scoring: str | None = None, conflict_ratio: float = 0.06):
    return make_problem(
        num_papers=12,
        num_reviewers=21,
        num_topics=10,
        group_size=3,
        seed=seed,
        conflict_ratio=conflict_ratio,
        scoring=scoring,
    )


def _partial_assignment(problem, seed: int, per_paper: int) -> Assignment:
    """A feasible partial assignment with ``per_paper`` reviewers per paper."""
    rng = np.random.default_rng(seed)
    assignment = Assignment()
    loads = {rid: 0 for rid in problem.reviewer_ids}
    for paper_id in problem.paper_ids:
        candidates = [
            rid
            for rid in problem.candidate_reviewers(paper_id)
            if loads[rid] < problem.reviewer_workload
        ]
        chosen = rng.choice(len(candidates), size=per_paper, replace=False)
        for index in chosen:
            assignment.add(candidates[int(index)], paper_id)
            loads[candidates[int(index)]] += 1
    return assignment


# ----------------------------------------------------------------------
# Kernel equivalence (0 ulp)
# ----------------------------------------------------------------------
class TestDenseKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_feasibility_mask_matches_is_feasible_pair(self, seed):
        problem = _instance(seed, conflict_ratio=0.15)
        dense = problem.dense_view()
        for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
            for paper_idx, paper_id in enumerate(problem.paper_ids):
                assert bool(dense.feasible[reviewer_idx, paper_idx]) == (
                    problem.is_feasible_pair(reviewer_id, paper_id)
                )

    @pytest.mark.parametrize("scoring", available_scoring_functions())
    @pytest.mark.parametrize("seed", range(3))
    def test_gain_matrix_matches_gain_vector(self, scoring, seed):
        problem = _instance(seed, scoring=scoring)
        dense = problem.dense_view()
        assignment = _partial_assignment(problem, seed, per_paper=2)
        group_vectors = dense.group_vectors(assignment)
        gains = dense.gain_matrix(group_vectors, paper_block=5)
        function = get_scoring_function(scoring)
        for paper_idx in range(problem.num_papers):
            reference = function.gain_vector(
                group_vectors[paper_idx],
                problem.reviewer_matrix,
                problem.paper_matrix[paper_idx],
            )
            assert np.array_equal(gains[paper_idx], reference)
            assert np.array_equal(
                dense.gains_for_paper(group_vectors[paper_idx], paper_idx), reference
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_group_vectors_match_the_per_paper_reference(self, seed):
        # Ragged groups (full, short and empty) exercise the padded gather's
        # repeated rows and its zeroed rows.
        problem = _instance(seed)
        assignment = _partial_assignment(problem, seed, per_paper=3)
        for paper_idx, paper_id in enumerate(problem.paper_ids):
            for reviewer_id in sorted(assignment.reviewers_of(paper_id))[: paper_idx % 4]:
                assignment.discard(reviewer_id, paper_id)
        vectors = problem.dense_view().group_vectors(assignment)
        expected = np.stack(
            [group_vector(problem, assignment, paper_id) for paper_id in problem.paper_ids]
        )
        assert vectors.tobytes() == expected.tobytes()
        assert vectors.flags.writeable

    @pytest.mark.parametrize("scoring", available_scoring_functions())
    @pytest.mark.parametrize("seed", range(3))
    def test_scores_match_object_path(self, scoring, seed):
        problem = _instance(seed, scoring=scoring)
        dense = problem.dense_view()
        assignment = _partial_assignment(problem, seed, per_paper=2)
        group_vectors = dense.group_vectors(assignment)
        batch = dense.paper_scores(group_vectors)
        for paper_idx, paper_id in enumerate(problem.paper_ids):
            reference = paper_score(problem, assignment, paper_id)
            assert batch[paper_idx] == reference
            assert dense.paper_score(group_vectors[paper_idx], paper_idx) == reference
        assert dense.assignment_score(assignment) == assignment_score(problem, assignment)

    @pytest.mark.parametrize("seed", range(3))
    def test_candidate_scores_match_extended_groups(self, seed):
        problem = _instance(seed)
        dense = problem.dense_view()
        assignment = _partial_assignment(problem, seed, per_paper=2)
        for paper_idx, paper_id in enumerate(problem.paper_ids):
            group_vector = dense.group_vectors(assignment)[paper_idx]
            scores = dense.candidate_scores(group_vector, paper_idx)
            for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
                probe = assignment.copy()
                probe.discard(reviewer_id, paper_id)
                probe.add(reviewer_id, paper_id)
                assert scores[reviewer_idx] == paper_score(problem, probe, paper_id)

    @pytest.mark.parametrize("seed", range(3))
    def test_scores_with_reviewer_matches_object_path(self, seed):
        problem = _instance(seed)
        dense = problem.dense_view()
        assignment = _partial_assignment(problem, seed, per_paper=2)
        group_vectors = dense.group_vectors(assignment)
        paper_indices = np.arange(problem.num_papers, dtype=np.int64)
        for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids[:5]):
            scores = dense.scores_with_reviewer(group_vectors, paper_indices, reviewer_idx)
            for paper_idx, paper_id in enumerate(problem.paper_ids):
                probe = assignment.copy()
                probe.discard(reviewer_id, paper_id)
                probe.add(reviewer_id, paper_id)
                assert scores[paper_idx] == paper_score(problem, probe, paper_id)

    @pytest.mark.parametrize("seed", range(3))
    def test_stage_inputs_match_reference(self, seed):
        problem = _instance(seed, conflict_ratio=0.1)
        dense = problem.dense_view()
        for per_paper in (0, 1, 2):
            assignment = (
                Assignment()
                if per_paper == 0
                else _partial_assignment(problem, seed + per_paper, per_paper)
            )
            gains, forbidden, capacities = dense.stage_inputs(assignment)
            ref_gains, ref_forbidden, ref_capacities = stage_inputs_object(
                problem, assignment
            )
            assert np.array_equal(gains, ref_gains)
            assert np.array_equal(forbidden, ref_forbidden)
            assert np.array_equal(capacities, ref_capacities)


# ----------------------------------------------------------------------
# Solver equivalence
# ----------------------------------------------------------------------
class TestRewiredSolversMatchObjectPath:
    @pytest.mark.parametrize("group_size", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_dense_equals_naive_selection(self, seed, group_size):
        """The dense greedy is bitwise the true-argmax (naive) selection.

        This holds on *every* instance, including exact-gain-tie regimes
        (e.g. groups that fully cover a paper's residual), where the
        historical lazy heap can reorder ties through ulp-stale records.
        """
        kwargs = dict(
            num_papers=14,
            num_reviewers=22,
            num_topics=8,
            group_size=group_size,
            conflict_ratio=0.08,
        )
        dense_result = GreedySolver().solve(make_problem(seed=seed, **kwargs))
        naive_result = NaiveGreedyOracle().solve(make_problem(seed=seed, **kwargs))
        assert dense_result.assignment == naive_result.assignment
        assert dense_result.score == naive_result.score
        assert (
            dense_result.stats["iterations"] == naive_result.stats["iterations"]
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_dense_equals_object_heap(self, seed):
        """On tie-free instances the dense path also matches the lazy heap."""
        dense_result = GreedySolver().solve(_instance(seed))
        object_result = LazyHeapGreedy().solve(_instance(seed))
        assert dense_result.assignment == object_result.assignment
        assert dense_result.score == object_result.score
        assert dense_result.stats["repaired"] == object_result.stats["repaired"]

    @pytest.mark.parametrize("moves", ["all", "replace", "exchange"])
    @pytest.mark.parametrize("seed", range(3))
    def test_local_search_dense_equals_object(self, seed, moves):
        problem = _instance(seed, conflict_ratio=0.1)
        base = StageDeepeningGreedySolver().solve(problem).assignment
        refined_dense, stats_dense = LocalSearchRefiner(
            max_rounds=4, moves=moves
        ).refine(problem, base)
        refined_object, stats_object = LocalSearchOracle(
            max_rounds=4, moves=moves
        ).refine(problem, base)
        assert refined_dense == refined_object
        assert stats_dense["final_score"] == stats_object["final_score"]
        assert stats_dense["moves_applied"] == stats_object["moves_applied"]

    @pytest.mark.parametrize("model", ["decayed", "coverage", "uniform"])
    def test_sra_refine_matches_reference(self, model):
        problem = _instance(1, conflict_ratio=0.05)
        base = StageDeepeningGreedySolver().solve(problem).assignment
        refiner = StochasticRefiner(
            convergence_window=50, max_rounds=6, seed=9, probability_model=model
        )
        refined, stats = refiner.refine(problem, base)
        reference, reference_score = _reference_sra_refine(
            problem, base, rounds=6, seed=9, probability_model=model,
            decay=0.05,
        )
        assert refined == reference
        assert stats["best_score"] == reference_score

    @pytest.mark.parametrize("seed", range(3))
    def test_stable_matching_preferences_match_reference(self, seed):
        problem = _instance(seed, conflict_ratio=0.12)
        pair_scores = problem.dense_view().pair_scores()
        compiled = StableMatchingSolver._preferences(problem, pair_scores)
        assert compiled == preferences_object(problem, pair_scores)
        # and the full solve still produces a valid, repair-free matching
        result = StableMatchingSolver().solve(problem)
        problem.validate_assignment(result.assignment)

    def test_bfs_topk_matches_combinations(self):
        from itertools import combinations

        problem = _instance(2).to_jra(_instance(2).papers[0])
        shortlist = find_top_k_groups(problem, k=3, method="bfs")
        scored = sorted(
            (
                (problem.group_score(group), group)
                for group in combinations(problem.reviewer_ids, problem.group_size)
            ),
            key=lambda entry: -entry[0],
        )
        assert shortlist[0].score == scored[0][0]
        assert [entry.score for entry in shortlist] == [
            score for score, _ in scored[:3]
        ]
        bba = find_top_k_groups(problem, k=3, method="bba")
        assert [entry.score for entry in bba] == pytest.approx(
            [entry.score for entry in shortlist], abs=0.0
        )


def _reference_sra_refine(problem, assignment, rounds, seed, probability_model, decay):
    """The pre-refactor stochastic-refinement loop (object path), pinned."""
    rng = np.random.default_rng(seed)
    pair_scores = problem.pair_score_matrix()
    reviewer_mass = pair_scores.sum(axis=1)
    reviewer_mass = np.where(reviewer_mass > 0.0, reviewer_mass, 1.0)
    current = assignment.copy()
    best = assignment.copy()
    best_score = assignment_score(problem, best)
    num_reviewers = problem.num_reviewers
    uniform_floor = 1.0 / num_reviewers

    from repro.assignment.transportation import solve_capacitated_assignment

    for round_index in range(1, rounds + 1):
        decay_factor = (
            float(np.exp(-decay * round_index)) if probability_model == "decayed" else 1.0
        )
        for paper_id in problem.paper_ids:
            members = sorted(current.reviewers_of(paper_id))
            if not members:
                continue
            paper_idx = problem.paper_index(paper_id)
            keep = np.empty(len(members), dtype=np.float64)
            for position, reviewer_id in enumerate(members):
                reviewer_idx = problem.reviewer_index(reviewer_id)
                if probability_model == "uniform":
                    keep[position] = uniform_floor
                    continue
                data_driven = (
                    decay_factor
                    * pair_scores[reviewer_idx, paper_idx]
                    / reviewer_mass[reviewer_idx]
                )
                keep[position] = max(uniform_floor, data_driven)
            removal = 1.0 - keep / keep.sum()
            if removal.sum() <= 0.0:
                removal = np.full(len(members), 1.0 / len(members))
            else:
                removal = removal / removal.sum()
            victim = rng.choice(len(members), p=removal)
            current.remove(members[int(victim)], paper_id)

        gains = np.zeros((problem.num_papers, num_reviewers), dtype=np.float64)
        forbidden = np.zeros_like(gains, dtype=bool)
        for paper_idx, paper_id in enumerate(problem.paper_ids):
            gains[paper_idx] = problem.scoring.gain_vector(
                group_vector(problem, current, paper_id),
                problem.reviewer_matrix,
                problem.paper_matrix[paper_idx],
            )
            group = current.reviewers_of(paper_id)
            conflicted = problem.conflicts.reviewers_conflicting_with(paper_id)
            for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
                if reviewer_id in group or reviewer_id in conflicted:
                    forbidden[paper_idx, reviewer_idx] = True
        capacities = np.array(
            [
                problem.reviewer_workload - current.load(reviewer_id)
                for reviewer_id in problem.reviewer_ids
            ],
            dtype=np.int64,
        )
        result = solve_capacitated_assignment(
            gains, np.maximum(capacities, 0), forbidden=forbidden
        )
        for paper_idx, reviewer_idx in enumerate(result.row_to_col):
            current.add(problem.reviewer_ids[reviewer_idx], problem.paper_ids[paper_idx])

        current_score = assignment_score(problem, current)
        if current_score > best_score + 1e-12:
            best = current.copy()
            best_score = current_score
    return best, best_score


# ----------------------------------------------------------------------
# Dense view sharing across the serving stack
# ----------------------------------------------------------------------
class TestDenseViewSharing:
    def test_dense_view_is_cached_per_problem(self):
        problem = _instance(0)
        assert problem.dense_view() is problem.dense_view()

    def test_dense_view_tracks_live_conflict_mutations(self):
        """problem.conflicts is a live container; the compiled mask follows it.

        Since the delta-maintenance layer (``repro.core.delta``), conflict
        edits are replayed *in place* into the compiled feasibility mask:
        the view object stays the same, only the affected cells flip.
        """
        problem = _instance(0, conflict_ratio=0.0)
        first = problem.dense_view()
        reviewer_id, paper_id = problem.reviewer_ids[0], problem.paper_ids[0]
        assert bool(first.feasible[0, 0])
        patches_before = problem.view_stats.conflict_patches
        recompiles_before = problem.view_stats.recompiles

        problem.conflicts.add(reviewer_id, paper_id)
        patched = problem.dense_view()
        assert patched is first  # maintained in place, not recompiled
        assert not bool(patched.feasible[0, 0])
        assert problem.view_stats.conflict_patches == patches_before + 1
        assert problem.view_stats.recompiles == recompiles_before
        # a solver running after the mutation must respect the new conflict
        result = GreedySolver().solve(problem)
        assert not result.assignment.contains(reviewer_id, paper_id)

        problem.conflicts.discard(reviewer_id, paper_id)
        assert bool(problem.dense_view().feasible[0, 0])
        # no-op mutations do not touch the mask
        problem.conflicts.discard(reviewer_id, paper_id)
        patches_now = problem.view_stats.conflict_patches
        assert problem.dense_view() is first
        assert problem.view_stats.conflict_patches == patches_now

    def test_patched_mask_matches_full_recompile(self):
        """After arbitrary edit sequences the patched mask equals the oracle."""
        problem = _instance(1, conflict_ratio=0.1)
        view = problem.dense_view()
        rng = np.random.default_rng(5)
        for _ in range(30):
            reviewer_id = problem.reviewer_ids[int(rng.integers(problem.num_reviewers))]
            paper_id = problem.paper_ids[int(rng.integers(problem.num_papers))]
            if rng.random() < 0.5:
                problem.conflicts.add(reviewer_id, paper_id)
            else:
                problem.conflicts.discard(reviewer_id, paper_id)
        patched = problem.dense_view()
        assert patched is view
        from repro.core.dense import DenseProblem

        oracle = DenseProblem(problem)
        assert np.array_equal(patched.feasible, oracle.feasible)
        assert patched.conflict_version == problem.conflicts.version

    def test_cache_matrix_is_the_problem_matrix(self):
        problem = _instance(0)
        cache = ScoreMatrixCache(problem)
        matrix = cache.matrix()
        assert problem.cached_pair_scores is not None
        assert matrix is problem.pair_score_matrix()
        assert cache.stats.full_builds == 1

    def test_cache_reuses_a_warmed_problem(self, monkeypatch):
        from repro.core.scoring import ScoringFunction

        problem = _instance(0)
        warmed = problem.warm_pair_scores()
        calls = []
        original = ScoringFunction.score_matrix

        def counting(self, reviewer_matrix, paper_matrix, **kwargs):
            calls.append((reviewer_matrix.shape[0], paper_matrix.shape[0]))
            return original(self, reviewer_matrix, paper_matrix, **kwargs)

        monkeypatch.setattr(ScoringFunction, "score_matrix", counting)
        cache = ScoreMatrixCache(problem)
        assert np.array_equal(cache.matrix(), warmed)
        assert calls == []
