"""Tests for the experiment harness (small configurations of every experiment)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.data.synthetic import make_problem
from repro.exceptions import ConfigurationError
from repro.experiments import jra_scalability
from repro.experiments.case_study import pick_interdisciplinary_paper, run_case_study
from repro.experiments.cra_quality import build_dataset_problem, run_cra_quality
from repro.experiments.jra_scalability import (
    JRAScalabilityConfig,
    run_cp_comparison,
    run_group_size_scalability,
    run_pool_size_scalability,
    run_topk_experiment,
)
from repro.experiments.refinement import run_omega_sensitivity, run_refinement_comparison
from repro.experiments.runner import (
    DEFAULT_CRA_METHODS,
    ExperimentConfig,
    make_cra_solver,
    make_jra_solver,
    run_cra_methods,
)
from repro.experiments.scoring_ablation import (
    run_h_index_scaling,
    run_scoring_ablation,
    scoring_toy_example,
)

#: a deliberately tiny configuration so the harness tests stay fast
TINY = ExperimentConfig(scale=0.04, seed=13, num_topics=12, refinement_omega=3)
FAST_METHODS = ("SM", "Greedy", "SDGA", "SDGA-SRA")
TINY_JRA = JRAScalabilityConfig(num_trials=1, num_topics=10, seed=3, ilp_time_limit=20.0)


class TestRunner:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(scale=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_topics=2)

    def test_all_cra_method_names_resolve(self):
        for name in (*DEFAULT_CRA_METHODS, "SDGA-LS"):
            solver = make_cra_solver(name)
            assert solver.name.upper().startswith(name.split("-")[0].upper())
        with pytest.raises(ConfigurationError):
            make_cra_solver("UNKNOWN")

    def test_all_jra_method_names_resolve(self):
        for name in ("BFS", "BBA", "ILP", "CP", "CP-FIRST"):
            make_jra_solver(name)
        with pytest.raises(ConfigurationError):
            make_jra_solver("UNKNOWN")

    def test_run_cra_methods_keys_and_feasibility(self):
        problem = make_problem(num_papers=10, num_reviewers=7, num_topics=10, seed=1)
        results = run_cra_methods(problem, methods=("SM", "SDGA"), config=TINY)
        assert set(results) == {"SM", "SDGA"}
        for result in results.values():
            problem.validate_assignment(result.assignment)


class TestCRAQualityExperiment:
    @pytest.fixture(scope="class")
    def quality_result(self):
        return run_cra_quality(
            dataset="DB08", group_size=3, methods=FAST_METHODS, config=TINY
        )

    def test_dataset_problem_is_scaled(self):
        problem = build_dataset_problem("DB08", group_size=3, config=TINY)
        assert problem.num_papers <= 40
        assert problem.group_size == 3

    def test_all_methods_present(self, quality_result):
        assert set(quality_result.results) == set(FAST_METHODS)

    def test_optimality_ratios_are_sane(self, quality_result):
        ratios = quality_result.optimality_ratios()
        for value in ratios.values():
            assert 0.0 < value <= 1.0 + 1e-9
        # The paper's headline result: SDGA-SRA dominates SM.
        assert ratios["SDGA-SRA"] >= ratios["SM"] - 1e-9
        assert ratios["SDGA-SRA"] >= ratios["Greedy"] - 0.02

    def test_tables_render(self, quality_result):
        assert "Optimality ratio" in quality_result.optimality_table().to_text()
        assert "Response time" in quality_result.timing_table().to_text()
        assert "Superiority" in quality_result.superiority_table().to_text()
        assert "Lowest coverage" in quality_result.lowest_coverage_table().to_text()

    def test_superiority_breakdowns(self, quality_result):
        breakdown = quality_result.superiority_of("SDGA-SRA")
        assert "SM" in breakdown and "SDGA-SRA" not in breakdown
        for entry in breakdown.values():
            assert 0.0 <= entry["superiority"] <= 1.0

    def test_lowest_coverage_values(self, quality_result):
        lowest = quality_result.lowest_coverage()
        for value in lowest.values():
            assert 0.0 <= value <= 1.0


class TestJRAScalabilityExperiments:
    def test_group_size_sweep(self):
        table = run_group_size_scalability(
            group_sizes=(2, 3), num_candidates=25, methods=("BFS", "BBA"), config=TINY_JRA
        )
        assert table.column("delta_p") == [2, 3]
        bfs_scores = table.column("BFS score")
        bba_scores = table.column("BBA score")
        for bfs, bba in zip(bfs_scores, bba_scores):
            assert bfs == pytest.approx(bba)

    def test_pool_size_sweep(self):
        table = run_pool_size_scalability(
            pool_sizes=(15, 25), group_size=2, methods=("BFS", "BBA"), config=TINY_JRA
        )
        assert table.column("R") == [15, 25]

    def test_first_solve_of_the_process_is_not_timed(self, monkeypatch):
        # A process's first solve carries one-time costs (the ILP's SciPy
        # import); the sweep must bill them to an untimed warm-up solve.
        solved = []

        class FirstSolveSlow:
            def solve(self, problem):
                solved.append(problem)
                return SimpleNamespace(
                    elapsed_seconds=100.0 if len(solved) == 1 else 0.5, score=1.0
                )

        monkeypatch.setattr(
            jra_scalability, "make_jra_solver", lambda name, time_limit=None: FirstSolveSlow()
        )
        config = JRAScalabilityConfig(num_trials=2, num_topics=10, seed=3)
        table = run_group_size_scalability(
            group_sizes=(2,), num_candidates=12, methods=("ILP",), config=config
        )
        assert table.column("ILP time (s)") == [0.5]
        warm_up, *timed = solved
        assert len(timed) == config.num_trials
        # The warm-up instance is none of the timed ones.
        assert all(problem is not warm_up for problem in timed)
        assert [problem.num_reviewers for problem in timed] == [12, 12]

    def test_topk_sweep(self):
        table = run_topk_experiment(k_values=(1, 5, 20), num_candidates=20,
                                    group_size=2, config=TINY_JRA)
        assert table.column("k") == [1, 5, 20]
        best_scores = table.column("best score")
        kth_scores = table.column("k-th score")
        for best, kth in zip(best_scores, kth_scores):
            assert kth <= best + 1e-12
        # The best score is independent of k.
        assert best_scores[0] == pytest.approx(best_scores[-1])

    def test_cp_comparison(self):
        table = run_cp_comparison(num_candidates=12, group_size=2, config=TINY_JRA)
        methods = table.column("method")
        scores = dict(zip(methods, table.column("score")))
        assert scores["CP"] == pytest.approx(scores["BBA"])
        assert scores["CP-FIRST"] <= scores["BBA"] + 1e-12


class TestRefinementExperiments:
    def test_refinement_comparison_table(self):
        table = run_refinement_comparison(
            dataset="DB08", group_size=3, time_budgets=(0.2,), config=TINY
        )
        assert len(table.rows) == 1
        sra_ratio = table.column("SDGA-SRA ratio")[0]
        base_ratio = table.column("SDGA ratio")[0]
        ls_ratio = table.column("SDGA-LS ratio")[0]
        assert sra_ratio >= base_ratio - 1e-9
        assert ls_ratio >= base_ratio - 1e-9

    def test_omega_sensitivity_table(self):
        table = run_omega_sensitivity(dataset="DB08", group_size=3, omegas=(2, 4),
                                      config=TINY)
        assert table.column("omega") == [2, 4]
        rounds = table.column("rounds")
        assert rounds[1] >= rounds[0]


class TestCaseStudy:
    def test_pick_interdisciplinary_paper(self):
        problem = make_problem(num_papers=12, num_reviewers=8, num_topics=10, seed=2)
        paper_id = pick_interdisciplinary_paper(problem)
        assert paper_id in problem.paper_ids

    def test_case_study_reports(self):
        result = run_case_study(
            dataset="DB08", group_size=3, methods=("Greedy", "SDGA-SRA"),
            top_topic_count=4, config=TINY,
        )
        assert set(result.reports) == {"Greedy", "SDGA-SRA"}
        assert len(result.top_topics) == 4
        table = result.to_table()
        assert len(table.rows) == 2
        reviewers = result.reviewer_table()
        assert len(reviewers.rows) == 2
        scores = result.scores()
        assert all(0.0 <= value <= 1.0 for value in scores.values())


class TestScoringAblation:
    def test_toy_example_matches_table6(self):
        table = scoring_toy_example()
        rows = {row[0]: row for row in table.rows}
        assert rows["weighted_coverage"][3] == "r2"
        assert rows["reviewer_coverage"][3] == "r1"
        assert rows["dot_product"][3] == "r1"
        assert rows["paper_coverage"][3] == "r1"

    @pytest.mark.parametrize("scoring", ["reviewer_coverage", "dot_product"])
    def test_alternative_objectives_keep_sdga_sra_on_top(self, scoring):
        result = run_scoring_ablation(
            scoring, dataset="DB08", group_size=3, methods=("SM", "SDGA-SRA"), config=TINY
        )
        ratios = result.optimality_ratios()
        assert ratios["SDGA-SRA"] >= ratios["SM"] - 1e-9

    def test_h_index_scaling_experiment(self):
        result = run_h_index_scaling(
            dataset="DB08", group_size=3, methods=("SM", "SDGA"), config=TINY
        )
        ratios = result.optimality_ratios()
        assert ratios["SDGA"] >= ratios["SM"] - 1e-9
