"""Unit tests for the conference-assignment solvers (Section 4 / 5.2)."""

from __future__ import annotations

import pytest

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRAResult
from repro.cra.brgg import BestReviewerGroupGreedySolver
from repro.cra.greedy import GreedySolver
from repro.cra.ideal import ideal_assignment
from repro.cra.ilp import PairwiseILPSolver
from repro.cra.local_search import LocalSearchRefiner, SDGAWithLocalSearchSolver
from repro.cra.ratio import GREEDY_RATIO, RatioGreedySolver, sdga_ratio
from repro.cra.repair import RefillRepairSolver, complete_assignment
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.cra.sra import SDGAWithRefinementSolver, StochasticRefiner
from repro.cra.stable_matching import StableMatchingSolver
from repro.data.synthetic import make_problem
from repro.exceptions import ConfigurationError
from tests.conftest import exhaustive_optimal_assignment
from tests.oracles import LazyHeapGreedy, NaiveGreedyOracle, StableMatchingOracle
from tests.oracles.flow import PairwiseILPFlow, SDGAFlow
from tests.oracles.scoring import paper_score

ALL_SOLVERS = [
    StableMatchingSolver,
    PairwiseILPSolver,
    BestReviewerGroupGreedySolver,
    GreedySolver,
    StageDeepeningGreedySolver,
    SDGAWithRefinementSolver,
    SDGAWithLocalSearchSolver,
    RatioGreedySolver,
    RefillRepairSolver,
]


class TestAllSolversProduceFeasibleAssignments:
    @pytest.mark.parametrize("solver_class", ALL_SOLVERS)
    def test_feasible_on_small_problem(self, small_problem, solver_class):
        result = solver_class().solve(small_problem)
        assert isinstance(result, CRAResult)
        small_problem.validate_assignment(result.assignment)
        assert result.score > 0.0
        assert result.score == pytest.approx(
            small_problem.assignment_score(result.assignment)
        )

    @pytest.mark.parametrize("solver_class", ALL_SOLVERS)
    def test_feasible_with_conflicts_and_slack(self, medium_problem, solver_class):
        result = solver_class().solve(medium_problem)
        medium_problem.validate_assignment(result.assignment)
        for reviewer_id, paper_id in result.assignment.pairs():
            assert medium_problem.is_feasible_pair(reviewer_id, paper_id)

    @pytest.mark.parametrize("solver_class", ALL_SOLVERS)
    def test_group_size_one(self, solver_class):
        problem = make_problem(
            num_papers=8, num_reviewers=6, num_topics=8, group_size=1, seed=4
        )
        result = solver_class().solve(problem)
        problem.validate_assignment(result.assignment)


class TestMethodOrdering:
    """The qualitative ordering the paper's Figure 10 reports."""

    def test_sdga_beats_stable_matching_and_brgg(self, small_problem):
        sdga = StageDeepeningGreedySolver().solve(small_problem)
        stable = StableMatchingSolver().solve(small_problem)
        brgg = BestReviewerGroupGreedySolver().solve(small_problem)
        assert sdga.score >= stable.score - 1e-9
        assert sdga.score >= brgg.score - 1e-9

    def test_refinement_never_hurts_sdga(self, small_problem):
        sdga = StageDeepeningGreedySolver().solve(small_problem)
        refined = SDGAWithRefinementSolver().solve(small_problem)
        assert refined.score >= sdga.score - 1e-9
        assert refined.stats["base_score"] == pytest.approx(sdga.score)

    def test_local_search_never_hurts_sdga(self, small_problem):
        sdga = StageDeepeningGreedySolver().solve(small_problem)
        refined = SDGAWithLocalSearchSolver().solve(small_problem)
        assert refined.score >= sdga.score - 1e-9


class TestApproximationGuarantees:
    def test_sdga_respects_its_worst_case_bound_on_tiny_instances(self):
        for seed in range(4):
            problem = make_problem(
                num_papers=3, num_reviewers=4, num_topics=5, group_size=2, seed=seed
            )
            _, optimal_score = exhaustive_optimal_assignment(problem)
            sdga = StageDeepeningGreedySolver().solve(problem)
            guarantee = sdga_ratio(problem.group_size, problem.reviewer_workload)
            assert sdga.score >= guarantee * optimal_score - 1e-9

    def test_greedy_respects_its_worst_case_bound_on_tiny_instances(self):
        for seed in range(4):
            problem = make_problem(
                num_papers=3, num_reviewers=4, num_topics=5, group_size=2, seed=seed
            )
            _, optimal_score = exhaustive_optimal_assignment(problem)
            greedy = GreedySolver().solve(problem)
            assert greedy.score >= GREEDY_RATIO * optimal_score - 1e-9

    def test_sdga_stage_gains_are_recorded(self, small_problem):
        result = StageDeepeningGreedySolver().solve(small_problem)
        gains = result.stats["stage_gains"]
        assert len(gains) == small_problem.group_size
        assert sum(gains) == pytest.approx(result.score, rel=1e-6)


class TestSDGADetails:
    def test_stage_workload_counterexample(self, sdga_counterexample_vectors):
        """The Section 4.2 example: capping per-stage workload helps topic t3."""
        papers, reviewers = sdga_counterexample_vectors
        problem = WGRAPProblem(
            papers=papers, reviewers=reviewers, group_size=2, reviewer_workload=2
        )
        result = StageDeepeningGreedySolver().solve(problem)
        problem.validate_assignment(result.assignment)
        # r1 is the only reviewer covering topic t3 of p1; the stage cap of
        # delta_r/delta_p = 1 forces SDGA to keep one unit of r1 for p1.
        assert "r1" in result.assignment.reviewers_of("p1")
        assert result.score == pytest.approx(
            problem.assignment_score(result.assignment)
        )
        assert paper_score(problem, result.assignment, "p1") >= 0.6 - 1e-9

    def test_flow_backend_matches_hungarian_backend(self, small_problem):
        hungarian = StageDeepeningGreedySolver().solve(small_problem)
        flow = SDGAFlow().solve(small_problem)
        assert hungarian.score == pytest.approx(flow.score)

    def test_respects_conflicts(self):
        problem = make_problem(
            num_papers=10, num_reviewers=8, num_topics=6, group_size=2,
            conflict_ratio=0.05, seed=12,
        )
        result = StageDeepeningGreedySolver().solve(problem)
        for reviewer_id, paper_id in result.assignment.pairs():
            assert not problem.conflicts.is_conflict(reviewer_id, paper_id)


class TestGreedyDetails:
    def test_lazy_and_naive_strategies_agree(self, small_problem):
        lazy = GreedySolver().solve(small_problem)
        naive = NaiveGreedyOracle().solve(small_problem)
        assert lazy.score == pytest.approx(naive.score)

    def test_stats_reflect_strategy(self, small_problem):
        lazy = GreedySolver().solve(small_problem)
        heap = LazyHeapGreedy().solve(small_problem)
        assert lazy.stats["strategy"] == "dense_argmax"
        assert heap.stats["strategy"] == "lazy_heap"
        assert lazy.stats["iterations"] == small_problem.num_papers * small_problem.group_size


class TestStochasticRefiner:
    def test_refiner_is_deterministic_given_a_seed(self, small_problem):
        base = StageDeepeningGreedySolver().solve(small_problem)
        first, _ = StochasticRefiner(seed=42, max_rounds=15).refine(
            small_problem, base.assignment
        )
        second, _ = StochasticRefiner(seed=42, max_rounds=15).refine(
            small_problem, base.assignment
        )
        assert first == second

    def test_refiner_validates_input(self, small_problem):
        with pytest.raises(Exception):
            StochasticRefiner().refine(small_problem, Assignment())

    def test_refiner_history_and_convergence(self, small_problem):
        base = StageDeepeningGreedySolver().solve(small_problem)
        refined, stats = StochasticRefiner(convergence_window=3, seed=1).refine(
            small_problem, base.assignment
        )
        assert stats["rounds"] == len(stats["history"])
        assert stats["best_score"] == pytest.approx(
            small_problem.assignment_score(refined)
        )
        best_scores = [entry.best_score for entry in stats["history"]]
        assert best_scores == sorted(best_scores)

    def test_time_budget_is_respected(self, small_problem):
        base = StageDeepeningGreedySolver().solve(small_problem)
        refiner = StochasticRefiner(convergence_window=10_000, time_budget=0.3, seed=0)
        _, stats = refiner.refine(small_problem, base.assignment)
        if stats["history"]:
            assert stats["history"][-1].elapsed_seconds <= 2.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            StochasticRefiner(convergence_window=0)
        with pytest.raises(ConfigurationError):
            StochasticRefiner(decay=-1.0)
        with pytest.raises(ConfigurationError):
            StochasticRefiner(max_rounds=0)


class TestLocalSearch:
    def test_refinement_monotonically_improves(self, small_problem):
        base = StageDeepeningGreedySolver().solve(small_problem)
        refined, stats = LocalSearchRefiner(max_rounds=3).refine(
            small_problem, base.assignment
        )
        assert small_problem.assignment_score(refined) >= base.score - 1e-9
        history_scores = [score for _, score in stats["history"]]
        assert history_scores == sorted(history_scores)

    def test_moves_preserve_feasibility(self, medium_problem):
        base = StageDeepeningGreedySolver().solve(medium_problem)
        refined, _ = LocalSearchRefiner(max_rounds=2).refine(
            medium_problem, base.assignment
        )
        medium_problem.validate_assignment(refined)


class TestPairwiseILP:
    def test_highs_and_flow_backends_agree(self, small_problem):
        highs = PairwiseILPSolver().solve(small_problem)
        flow = PairwiseILPFlow().solve(small_problem)
        # Both maximise the pairwise objective; their WGRAP scores may differ
        # slightly because ties are broken differently, but the pairwise
        # objective value must match.
        pairwise = small_problem.pair_score_matrix()

        def pairwise_objective(assignment):
            return sum(
                pairwise[
                    small_problem.reviewer_index(reviewer_id),
                    small_problem.paper_index(paper_id),
                ]
                for reviewer_id, paper_id in assignment.pairs()
            )

        assert pairwise_objective(highs.assignment) == pytest.approx(
            pairwise_objective(flow.assignment), rel=1e-6
        )

    def test_lp_solution_is_essentially_integral(self, small_problem):
        result = PairwiseILPSolver().solve(small_problem)
        assert result.stats["max_fractionality"] < 1e-6

    def test_ilp_maximises_pairwise_objective_better_than_stable_matching(
        self, small_problem
    ):
        pairwise = small_problem.pair_score_matrix()

        def pairwise_objective(assignment):
            return sum(
                pairwise[
                    small_problem.reviewer_index(reviewer_id),
                    small_problem.paper_index(paper_id),
                ]
                for reviewer_id, paper_id in assignment.pairs()
            )

        ilp = PairwiseILPSolver().solve(small_problem)
        stable = StableMatchingSolver().solve(small_problem)
        assert pairwise_objective(ilp.assignment) >= pairwise_objective(stable.assignment) - 1e-9


class TestIdealAssignment:
    def test_ideal_is_an_upper_reference_for_every_solver(self, small_problem):
        ideal = ideal_assignment(small_problem)
        for solver_class in (GreedySolver, StageDeepeningGreedySolver,
                             SDGAWithRefinementSolver):
            result = solver_class().solve(small_problem)
            assert result.score <= ideal.score + 1e-9

    def test_ideal_ignores_workload_but_respects_conflicts(self):
        problem = make_problem(
            num_papers=10, num_reviewers=8, num_topics=6, group_size=2,
            conflict_ratio=0.05, seed=21,
        )
        ideal = ideal_assignment(problem)
        for reviewer_id, paper_id in ideal.assignment.pairs():
            assert not problem.conflicts.is_conflict(reviewer_id, paper_id)
        for paper_id in problem.paper_ids:
            assert ideal.assignment.group_size(paper_id) == problem.group_size
        assert set(ideal.paper_scores) == set(problem.paper_ids)


class TestRepair:
    def test_completes_partial_assignment(self, small_problem):
        partial = Assignment()
        partial.add(small_problem.reviewer_ids[0], small_problem.paper_ids[0])
        completed = complete_assignment(small_problem, partial)
        small_problem.validate_assignment(completed)
        # The original pair is preserved and the input is untouched.
        assert completed.contains(
            small_problem.reviewer_ids[0], small_problem.paper_ids[0]
        )
        assert len(partial) == 1

    def test_no_op_on_complete_assignment(self, small_problem):
        full = StageDeepeningGreedySolver().solve(small_problem).assignment
        assert complete_assignment(small_problem, full) == full

    def test_deadlock_resolved_by_swapping(self):
        """Spare capacity concentrated on a reviewer already in the group."""
        problem = make_problem(
            num_papers=4, num_reviewers=4, num_topics=5, group_size=2,
            reviewer_workload=2, seed=3,
        )
        partial = Assignment()
        # Fill three papers completely and give the fourth only reviewer-0000,
        # consuming all of everyone else's capacity.
        r = problem.reviewer_ids
        p = problem.paper_ids
        for reviewer_id, paper_id in [
            (r[1], p[0]), (r[2], p[0]),
            (r[1], p[1]), (r[3], p[1]),
            (r[2], p[2]), (r[3], p[2]),
            (r[0], p[3]),
        ]:
            partial.add(reviewer_id, paper_id)
        completed = complete_assignment(problem, partial)
        problem.validate_assignment(completed)


class TestStableMatchingLiveConflictEdits:
    """Satellite audit (PR 5): SM preference lists are built from the
    compiled feasibility mask, which is patched *in place* by live
    conflict edits — a mid-session ``conflicts.add`` must be observed by
    the next solve, never a stale snapshot."""

    def test_preference_lists_observe_in_place_conflict_patch(self):
        problem = make_problem(
            num_papers=8, num_reviewers=8, num_topics=6, group_size=2,
            reviewer_workload=4, seed=6, conflict_ratio=0.0,
        )
        solver = StableMatchingSolver()
        first = solver.solve(problem)
        reviewer_id, paper_id = sorted(first.assignment.pairs())[0]

        # Live edit mid-session: the mask is patched in place, no recompile.
        patches_before = problem.view_stats.conflict_patches
        problem.conflicts.add(reviewer_id, paper_id)
        second = solver.solve(problem)
        assert problem.view_stats.conflict_patches == patches_before + 1
        assert not second.assignment.contains(reviewer_id, paper_id)

        # ... and the patched-mask solve equals a cold rebuild bitwise.
        cold = WGRAPProblem(
            papers=problem.papers, reviewers=problem.reviewers,
            group_size=problem.group_size,
            reviewer_workload=problem.reviewer_workload,
            conflicts=problem.conflicts, scoring=problem.scoring,
            validate_capacity=False,
        )
        reference = solver.solve(cold)
        assert second.assignment == reference.assignment
        assert second.score == reference.score

    def test_object_oracle_sees_the_same_edit(self):
        problem = make_problem(
            num_papers=8, num_reviewers=8, num_topics=6, group_size=2,
            reviewer_workload=4, seed=7, conflict_ratio=0.0,
        )
        dense_solver = StableMatchingSolver()
        object_solver = StableMatchingOracle()
        first = dense_solver.solve(problem)
        reviewer_id, paper_id = sorted(first.assignment.pairs())[-1]
        problem.conflicts.add(reviewer_id, paper_id)
        assert dense_solver.solve(problem).assignment == (
            object_solver.solve(problem).assignment
        )


class TestRatioGreedy:
    def test_rations_saturating_reviewers(self):
        problem = make_problem(
            num_papers=10, num_reviewers=8, num_topics=6, group_size=2,
            reviewer_workload=4, seed=9,
        )
        result = RatioGreedySolver().solve(problem)
        problem.validate_assignment(result.assignment)
        # The capacity weight keeps the load spread strictly tighter than
        # (or equal to) the workload bound for every reviewer.
        assert max(
            result.assignment.load(rid) for rid in problem.reviewer_ids
        ) <= problem.reviewer_workload

    def test_first_pick_matches_plain_greedy(self):
        """With all loads at zero the weight is 1.0 for everyone, so the
        very first selected pair equals the naive greedy's first pick."""
        problem = make_problem(
            num_papers=6, num_reviewers=6, num_topics=5, group_size=2,
            reviewer_workload=3, seed=11,
        )
        ratio = RatioGreedySolver().solve(problem)
        greedy = NaiveGreedyOracle().solve(problem)
        assert ratio.stats["iterations"] >= 1
        # Both solvers pick the global max of the same (unweighted) gain
        # matrix on step one; equality of the full assignments is not
        # implied, but both must contain that common first pair.
        import numpy as np

        gains = np.where(
            problem.dense_view().feasible, problem.pair_score_matrix(), -np.inf
        )
        reviewer_idx, paper_idx = np.unravel_index(np.argmax(gains), gains.shape)
        pair = (problem.reviewer_ids[int(reviewer_idx)], problem.paper_ids[int(paper_idx)])
        assert ratio.assignment.contains(*pair)
        assert greedy.assignment.contains(*pair)


class TestRefillRepairSolver:
    def test_constructs_a_complete_assignment_from_scratch(self, small_problem):
        result = RefillRepairSolver().solve(small_problem)
        small_problem.validate_assignment(result.assignment)
        assert result.score > 0.0

    def test_never_beats_nor_misses_sdga_wildly(self, small_problem):
        """Sanity band: the uncapped refill is SDGA minus stage discipline,
        so it stays within a factor of the SDGA score on benign instances."""
        refill = RefillRepairSolver().solve(small_problem)
        sdga = StageDeepeningGreedySolver().solve(small_problem)
        assert refill.score >= 0.5 * sdga.score
