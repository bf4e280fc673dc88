"""Tests for the long-lived assignment-engine subsystem (repro.service)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.entities import Paper
from repro.core.problem import ProblemMutation
from repro.core.scoring import ScoringFunction
from repro.core.vectors import TopicVector
from repro.cra import available_solvers as available_cra_solvers
from repro.data.io import load_engine_snapshot
from repro.data.synthetic import make_problem
from repro.exceptions import (
    ConfigurationError,
    InfeasibleProblemError,
    UnknownSolverError,
)
from repro.jra import available_solvers as available_jra_solvers
from repro.service.cache import ScoreMatrixCache
from repro.service.engine import AssignmentEngine
from repro.service.registry import available_solvers, create_solver, solver_spec
from repro.service.requests import JournalQuery
from repro.service.session import EngineSession


def _service_problem(**overrides):
    defaults = dict(
        num_papers=10, num_reviewers=8, num_topics=8, group_size=2,
        reviewer_workload=4, seed=11,
    )
    defaults.update(overrides)
    return make_problem(**defaults)


def _late_paper(problem, paper_id="late-submission"):
    rng = np.random.default_rng(99)
    vector = rng.dirichlet(np.full(problem.num_topics, 0.5))
    return Paper(id=paper_id, vector=TopicVector(vector))


@pytest.fixture
def engine():
    return AssignmentEngine(_service_problem())


@pytest.fixture
def solved_engine(engine):
    engine.solve("SDGA")
    return engine


class TestRegistry:
    def test_canonical_names_cover_the_paper_methods(self):
        cra = available_solvers("cra")
        assert {"SM", "ILP", "BRGG", "Greedy", "SDGA", "SDGA-SRA", "SDGA-LS"} <= set(cra)
        jra = available_solvers("jra")
        assert {"BBA", "BFS", "ILP", "CP", "CP-FIRST"} <= set(jra)

    def test_lookup_is_case_insensitive_and_accepts_aliases(self):
        assert solver_spec("cra", "sdga-sra").name == "SDGA-SRA"
        assert solver_spec("cra", "SRA").name == "SDGA-SRA"
        assert solver_spec("jra", "brute-force").name == "BFS"

    def test_create_solver_ignores_foreign_options(self):
        solver = create_solver("cra", "SDGA", convergence_window=3, seed=1)
        assert solver.name == "SDGA"

    def test_unknown_names_raise(self):
        with pytest.raises(UnknownSolverError):
            create_solver("cra", "MAGIC")
        with pytest.raises(ConfigurationError):  # same error, broader class
            create_solver("jra", "MAGIC")

    def test_package_level_discovery_matches_registry(self):
        assert available_cra_solvers() == available_solvers("cra")
        assert available_jra_solvers() == available_solvers("jra")


class TestProblemMutationHooks:
    def test_add_paper_event(self):
        problem = _service_problem()
        events: list[ProblemMutation] = []
        problem.add_mutation_listener(events.append)
        derived = problem.with_additional_paper(_late_paper(problem))
        assert [event.kind for event in events] == ["add_paper"]
        assert events[0].source is problem
        assert events[0].result is derived
        assert events[0].papers == ("late-submission",)

    def test_listeners_carry_over_to_derived_problems(self):
        problem = _service_problem()
        events: list[str] = []
        problem.add_mutation_listener(lambda event: events.append(event.kind))
        derived = problem.with_additional_paper(_late_paper(problem))
        derived.without_reviewer(derived.reviewer_ids[0])
        assert events == ["add_paper", "remove_reviewer"]

    def test_remove_listener(self):
        problem = _service_problem()
        events: list[str] = []
        listener = problem.add_mutation_listener(lambda event: events.append(event.kind))
        problem.remove_mutation_listener(listener)
        problem.with_additional_paper(_late_paper(problem))
        assert events == []

    def test_duplicate_paper_rejected(self):
        problem = _service_problem()
        with pytest.raises(ConfigurationError):
            problem.with_additional_paper(problem.papers[0])

    def test_unknown_reviewer_rejected(self):
        problem = _service_problem()
        with pytest.raises(KeyError):
            problem.without_reviewer("nobody")


class TestScoreCacheInvalidation:
    """The acceptance criterion: mutations must not trigger full rebuilds."""

    def _count_scoring_calls(self, monkeypatch):
        calls: list[tuple[int, int]] = []
        original = ScoringFunction.score_matrix

        def counting(self, reviewer_matrix, paper_matrix):
            calls.append((reviewer_matrix.shape[0], paper_matrix.shape[0]))
            return original(self, reviewer_matrix, paper_matrix)

        monkeypatch.setattr(ScoringFunction, "score_matrix", counting)
        return calls

    def test_add_paper_scores_exactly_one_column(self, monkeypatch, solved_engine):
        solved_engine.warm()
        calls = self._count_scoring_calls(monkeypatch)
        solved_engine.add_paper(_late_paper(solved_engine.problem))
        # The delta layer scores exactly the new column at mutation time;
        # the cache reads the problem's matrix instead of re-scoring (or
        # even copying) anything.
        solved_engine.journal_query("late-submission")
        num_reviewers = solved_engine.problem.num_reviewers
        assert calls == [(num_reviewers, 1)]
        assert solved_engine.cache.stats.full_builds == 1

    def test_withdraw_reviewer_scores_nothing(self, monkeypatch, solved_engine):
        solved_engine.warm()
        calls = self._count_scoring_calls(monkeypatch)
        victim = solved_engine.problem.reviewer_ids[0]
        solved_engine.withdraw_reviewer(victim)
        solved_engine.journal_query(solved_engine.problem.paper_ids[0])
        assert calls == []
        assert solved_engine.cache.stats.rows_removed == 1
        assert solved_engine.cache.stats.full_builds == 1

    def test_scored_cells_counts_every_scored_cell(self, monkeypatch):
        """``scored_cells`` counts the chain's cold build and every late
        column, whoever scored it (delta layer or pool_size staffing)."""
        engine = AssignmentEngine(_service_problem())
        before = engine.stats()["cache"]
        calls = self._count_scoring_calls(monkeypatch)
        engine.solve("Greedy")
        engine.warm()
        workload = engine.problem.reviewer_workload + 2
        engine.add_paper(_late_paper(engine.problem, "late-a"), reviewer_workload=workload)
        engine.add_paper(
            _late_paper(engine.problem, "late-b"), reviewer_workload=workload, pool_size=3
        )
        engine.withdraw_reviewer(engine.problem.reviewer_ids[0])
        after = engine.stats()["cache"]
        num_reviewers = engine.problem.num_reviewers + 1  # before the withdrawal
        num_papers = engine.problem.num_papers - 2  # before the late papers
        assert calls == [(num_reviewers, num_papers), (num_reviewers, 1), (num_reviewers, 1)]
        assert after["scored_cells"] - before["scored_cells"] == sum(
            rows * cols for rows, cols in calls
        )
        assert after["full_builds"] == 1
        assert after["columns_added"] == 2

    def test_cache_matrix_stays_correct_after_mutations(self, solved_engine):
        solved_engine.warm()
        solved_engine.add_paper(_late_paper(solved_engine.problem))
        solved_engine.withdraw_reviewer(solved_engine.problem.reviewer_ids[-1])
        problem = solved_engine.problem
        expected = problem.scoring.score_matrix(
            problem.reviewer_matrix, problem.paper_matrix
        )
        np.testing.assert_allclose(solved_engine.cache.matrix(), expected)

    def test_top_reviewer_index_tracks_the_pool(self, engine):
        problem = engine.problem
        paper_id = problem.paper_ids[0]
        top = engine.cache.top_reviewers(paper_id, 3)
        assert len(top) == 3
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)
        best_reviewer = top[0][0]
        engine.withdraw_reviewer(best_reviewer)
        refreshed = engine.cache.top_reviewers(paper_id, 3)
        assert best_reviewer not in [reviewer_id for reviewer_id, _ in refreshed]


class TestEngineMutations:
    def test_add_paper_staffs_without_touching_existing_groups(self, solved_engine):
        before = {
            paper_id: solved_engine.assignment.reviewers_of(paper_id)
            for paper_id in solved_engine.problem.paper_ids
        }
        delta = solved_engine.add_paper(_late_paper(solved_engine.problem))
        assert delta.kind == "add_paper"
        assert delta.affected_papers == ("late-submission",)
        assert delta.removed_pairs == ()
        assert len(delta.added_pairs) == solved_engine.problem.group_size
        for paper_id, group in before.items():
            assert solved_engine.assignment.reviewers_of(paper_id) == group
        solved_engine.problem.validate_assignment(solved_engine.assignment)

    def test_add_paper_requires_spare_capacity(self):
        problem = make_problem(num_papers=8, num_reviewers=4, num_topics=6,
                               group_size=2, seed=13)
        engine = AssignmentEngine(problem)
        engine.solve("SDGA")
        with pytest.raises(InfeasibleProblemError):
            engine.add_paper(_late_paper(problem))
        # The failed mutation must not have changed the engine.
        assert engine.problem.num_papers == 8
        assert engine.revision == 0

    def test_infeasible_withdrawal_rolls_back_completely(self):
        # Minimal workload: capacity is exactly exhausted, so any
        # withdrawal is infeasible and must leave no trace.
        problem = make_problem(num_papers=8, num_reviewers=4, num_topics=6,
                               group_size=2, seed=13)
        engine = AssignmentEngine(problem)
        engine.solve("SDGA")
        engine.warm()
        before = engine.stats()
        with pytest.raises(InfeasibleProblemError):
            engine.withdraw_reviewer(problem.reviewer_ids[0])
        after = engine.stats()
        assert engine.problem is problem
        assert after["revision"] == before["revision"]
        assert after["remove_reviewer"] == before["remove_reviewer"]
        assert after["cache"]["rows_removed"] == before["cache"]["rows_removed"]
        # The engine still serves correctly afterwards.
        assert engine.evaluate(include_ratio=False)["score"] > 0

    def test_discarded_engines_do_not_accumulate_listeners(self):
        import gc

        problem = _service_problem()
        for _ in range(5):
            AssignmentEngine(problem)
        gc.collect()
        # Dead listeners unsubscribe themselves on the next mutation.
        derived = problem.with_additional_paper(_late_paper(problem))
        assert len(problem._mutation_listeners) == 0
        assert len(derived._mutation_listeners) == 0

    def test_withdraw_reviewer_delta_reports_changed_pairs(self, solved_engine):
        victim = max(solved_engine.problem.reviewer_ids,
                     key=solved_engine.assignment.load)
        affected = solved_engine.assignment.papers_of(victim)
        delta = solved_engine.withdraw_reviewer(victim)
        assert set(delta.affected_papers) == set(affected)
        victim_pairs = {(victim, paper_id) for paper_id in affected}
        assert victim_pairs <= set(delta.removed_pairs)
        assert victim not in solved_engine.problem.reviewer_ids
        solved_engine.problem.validate_assignment(solved_engine.assignment)

    def test_mutations_without_assignment_only_update_the_problem(self, engine):
        delta = engine.add_paper(_late_paper(engine.problem))
        assert delta.added_pairs == ()
        assert engine.assignment is None
        assert engine.problem.num_papers == 11

    def test_update_bids_rejects_unknown_ids_atomically(self, engine):
        paper_id = engine.problem.paper_ids[0]
        reviewer_id = engine.problem.reviewer_ids[0]
        with pytest.raises(KeyError):
            engine.update_bids([(reviewer_id, paper_id, 0.5), ("ghost", paper_id, 0.5)])
        assert len(engine.bids) == 0
        assert engine.update_bids([(reviewer_id, paper_id, 0.5)]) == 1
        assert engine.bids.get(reviewer_id, paper_id) == 0.5


class TestJournalQueries:
    def test_query_matches_direct_bba(self, engine):
        from repro.jra.bba import BranchAndBoundSolver

        paper_id = engine.problem.paper_ids[0]
        answer = engine.journal_query(paper_id)
        direct = BranchAndBoundSolver().solve(engine.problem.to_jra(paper_id))
        assert answer.best.score == pytest.approx(direct.score)
        assert not answer.cache_hit

    def test_repeated_queries_hit_the_jra_cache(self, engine):
        paper_id = engine.problem.paper_ids[0]
        assert not engine.journal_query(paper_id).cache_hit
        assert engine.journal_query(paper_id).cache_hit
        assert engine.stats()["journal_cache_hits"] == 1

    def test_top_k_groups_are_ranked(self, engine):
        answer = engine.journal_query(engine.problem.paper_ids[0], top_k=3)
        assert [group.rank for group in answer.groups] == [1, 2, 3]
        scores = [group.score for group in answer.groups]
        assert scores == sorted(scores, reverse=True)

    def test_pool_size_pruning_keeps_only_top_candidates(self, engine):
        paper_id = engine.problem.paper_ids[0]
        pool = 4
        answer = engine.journal_query(paper_id, pool_size=pool)
        shortlist = {r for r, _ in engine.cache.top_reviewers(paper_id, pool)}
        assert set(answer.best.reviewer_ids) <= shortlist

    def test_inline_paper_query_does_not_join_the_problem(self, engine):
        inline = _late_paper(engine.problem, paper_id="visitor")
        answer = engine.journal_query(inline)
        assert answer.paper_id == "visitor"
        assert len(answer.best.reviewer_ids) == engine.problem.group_size
        assert "visitor" not in engine.problem.paper_ids
        assert answer.shortlist == ()

    def test_unknown_paper_id_raises(self, engine):
        with pytest.raises(KeyError):
            engine.journal_query("nope")


class TestSnapshots:
    def test_round_trip_preserves_state(self, tmp_path, solved_engine):
        solved_engine.update_bids(
            [(solved_engine.problem.reviewer_ids[0], solved_engine.problem.paper_ids[0], 0.9)]
        )
        path = tmp_path / "engine.json"
        solved_engine.save_snapshot(path)

        restored = AssignmentEngine.load(path)
        assert restored.problem.num_papers == solved_engine.problem.num_papers
        assert restored.assignment == solved_engine.assignment
        assert len(restored.bids) == 1
        original = solved_engine.evaluate(include_ratio=False)
        resumed = restored.evaluate(include_ratio=False)
        assert resumed["score"] == pytest.approx(original["score"])

    def test_snapshot_before_solve_has_no_assignment(self, tmp_path, engine):
        path = tmp_path / "engine.json"
        engine.save_snapshot(path)
        snapshot = load_engine_snapshot(path)
        assert snapshot.assignment is None
        restored = AssignmentEngine.from_snapshot(snapshot)
        assert restored.assignment is None

    def test_version_mismatch_rejected(self, tmp_path, engine):
        import json

        path = tmp_path / "engine.json"
        engine.save_snapshot(path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            load_engine_snapshot(path)


class TestSessionDispatch:
    def test_failures_become_error_responses(self, engine):
        session = EngineSession(engine)
        response = session.dispatch(JournalQuery(paper_id="nope"))
        assert not response.ok
        assert "nope" in response.error
        assert session.stats()["session"]["failed"] == 1


class TestIncrementalExtensionsRunThroughEngine:
    def test_update_reports_pair_deltas(self):
        from repro.cra.sdga import StageDeepeningGreedySolver
        from repro.extensions.incremental import withdraw_reviewer

        problem = _service_problem()
        assignment = StageDeepeningGreedySolver().solve(problem).assignment
        victim = max(problem.reviewer_ids, key=assignment.load)
        update = withdraw_reviewer(problem, assignment, victim)
        assert update.removed_pairs
        assert all(reviewer_id == victim for reviewer_id, _ in update.removed_pairs)
        assert len(update.added_pairs) == len(update.removed_pairs)

    def test_no_listener_leaks_on_the_callers_problem(self):
        from repro.cra.sdga import StageDeepeningGreedySolver
        from repro.extensions.incremental import assign_additional_paper

        problem = _service_problem()
        assignment = StageDeepeningGreedySolver().solve(problem).assignment
        assign_additional_paper(problem, assignment, _late_paper(problem))
        assert problem._mutation_listeners == []
