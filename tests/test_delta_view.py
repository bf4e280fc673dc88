"""Regression tests for delta maintenance of compiled views.

The audit behind these tests (satellite of the incremental-maintenance
PR): ``dense_view()`` used to key its staleness check on the conflict
version only, and every structural mutation produced a stone-cold derived
problem — a full ``O(R * P * T)`` re-score before the next solve.  Now
every mutation event must yield a derived problem whose carried caches
are **bitwise-equal to a cold recompile** (the object path is the
oracle), and the serving path must absorb each mutation with
delta-proportional work:

* ``with_additional_paper`` — one appended column everywhere;
* ``without_reviewer`` — one dropped row, zero re-scoring;
* conflict edits — in-place feasibility-mask patches;
* arbitrary chains of the above.

A staleness bug found during the audit is pinned here too: the engine's
JRA sub-problem cache ignored conflict edits and kept serving exclusion
sets that no longer matched the live conflict container.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dense import DenseProblem
from repro.core.problem import WGRAPProblem
from repro.cra.greedy import GreedySolver
from repro.cra.local_search import LocalSearchRefiner
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.data.synthetic import make_problem
from repro.service.engine import AssignmentEngine


def _instance(seed: int = 0, conflict_ratio: float = 0.08) -> WGRAPProblem:
    return make_problem(
        num_papers=10,
        num_reviewers=16,
        num_topics=8,
        group_size=2,
        reviewer_workload=4,
        seed=seed,
        conflict_ratio=conflict_ratio,
    )


def _late_paper(problem: WGRAPProblem, tag: str = "late"):
    import zlib

    from repro.core.entities import Paper

    # crc32, not hash(): str hashing is salted per process, which would
    # quietly vary the "pinned" late-paper vectors between runs.
    rng = np.random.default_rng(zlib.crc32(tag.encode("utf-8")))
    return Paper(id=tag, vector=rng.dirichlet(np.full(problem.num_topics, 0.7)))


def _cold_clone(problem: WGRAPProblem) -> WGRAPProblem:
    """The same instance rebuilt from its entities, with every cache cold."""
    return WGRAPProblem(
        papers=problem.papers,
        reviewers=problem.reviewers,
        group_size=problem.group_size,
        reviewer_workload=problem.reviewer_workload,
        conflicts=problem.conflicts,
        scoring=problem.scoring,
        validate_capacity=False,
    )


def _assert_view_matches_oracle(problem: WGRAPProblem) -> None:
    """The problem's (possibly delta-derived) view equals a full compile."""
    view = problem.dense_view()
    oracle = DenseProblem(_cold_clone(problem))
    assert view.num_reviewers == oracle.num_reviewers
    assert view.num_papers == oracle.num_papers
    assert np.array_equal(view.reviewer_matrix, oracle.reviewer_matrix)
    assert np.array_equal(view.paper_matrix, oracle.paper_matrix)
    assert np.array_equal(view.feasible, oracle.feasible)
    assert np.array_equal(view.paper_totals, oracle.paper_totals)
    assert np.array_equal(view.safe_totals, oracle.safe_totals)
    assert np.array_equal(view.zero_mass, oracle.zero_mass)
    assert view.reviewer_pos == oracle.reviewer_pos
    assert view.paper_pos == oracle.paper_pos


def _assert_pair_scores_match_oracle(problem: WGRAPProblem) -> None:
    assert problem.cached_pair_scores is not None
    oracle = _cold_clone(problem).warm_pair_scores()
    assert np.array_equal(problem.cached_pair_scores, oracle)


class TestDeltaDerivedViews:
    def test_add_paper_derives_instead_of_recompiling(self):
        problem = _instance()
        problem.dense_view()
        problem.warm_pair_scores()
        stats = problem.view_stats
        recompiles = stats.recompiles
        applies = stats.delta_applies

        derived = problem.with_additional_paper(_late_paper(problem))
        assert derived.view_stats is stats  # shared along the chain
        assert stats.delta_applies == applies + 1
        assert stats.recompiles == recompiles  # no new compile happened
        assert derived.versions.papers == problem.versions.papers + 1
        _assert_view_matches_oracle(derived)
        _assert_pair_scores_match_oracle(derived)

    def test_remove_reviewer_derives_without_rescoring(self):
        problem = _instance()
        problem.dense_view()
        warmed = problem.warm_pair_scores()
        stats = problem.view_stats
        recompiles = stats.recompiles

        victim = problem.reviewer_ids[3]
        derived = problem.without_reviewer(victim)
        assert stats.recompiles == recompiles
        assert derived.versions.reviewers == problem.versions.reviewers + 1
        # zero re-scoring: the carried matrix is a row-deleted copy
        assert np.array_equal(
            derived.cached_pair_scores, np.delete(warmed, 3, axis=0)
        )
        _assert_view_matches_oracle(derived)
        _assert_pair_scores_match_oracle(derived)

    def test_cold_problems_stay_cold(self):
        """A mutation of an unwarmed problem must not trigger eager work."""
        problem = _instance()
        applies = problem.view_stats.delta_applies
        derived = problem.with_additional_paper(_late_paper(problem))
        assert problem.view_stats.delta_applies == applies
        assert derived.cached_pair_scores is None
        # ... and the lazily compiled view is still correct
        _assert_view_matches_oracle(derived)

    def test_chained_mutations_with_conflict_edits_stay_exact(self):
        problem = _instance(seed=3)
        problem.dense_view()
        problem.warm_pair_scores()

        current = problem.with_additional_paper(_late_paper(problem, "late-1"))
        current.conflicts.add(current.reviewer_ids[0], "late-1")
        current = current.without_reviewer(current.reviewer_ids[5])
        current = current.with_additional_paper(_late_paper(current, "late-2"))
        current.conflicts.discard(current.reviewer_ids[0], "late-1")
        current = current.without_reviewer(current.reviewer_ids[1])

        _assert_view_matches_oracle(current)
        _assert_pair_scores_match_oracle(current)

    def test_compacted_changelog_falls_back_to_recompile(self):
        """A view that fell behind a compacted conflict log recompiles
        (correctly) instead of replaying an unavailable tail."""
        from repro.core.constraints import ConflictOfInterest

        problem = _instance(seed=13, conflict_ratio=0.0)
        view = problem.dense_view()
        reviewer_id, paper_id = problem.reviewer_ids[0], problem.paper_ids[0]
        for _ in range(ConflictOfInterest._LOG_LIMIT):
            problem.conflicts.add(reviewer_id, paper_id)
            problem.conflicts.discard(reviewer_id, paper_id)
        problem.conflicts.add(reviewer_id, paper_id)
        assert problem.conflicts.changes_since(view.versions.conflicts) is None
        recompiles_before = problem.view_stats.recompiles
        fresh = problem.dense_view()
        assert fresh is not view  # recompiled, not patched
        assert problem.view_stats.recompiles == recompiles_before + 1
        assert not bool(
            fresh.feasible[
                fresh.reviewer_pos[reviewer_id], fresh.paper_pos[paper_id]
            ]
        )
        _assert_view_matches_oracle(problem)

    @pytest.mark.parametrize("kind", ["add_paper", "remove_reviewer", "conflict"])
    def test_every_mutation_event_yields_a_correct_view(self, kind):
        problem = _instance(seed=kind.__hash__() % 7)
        problem.dense_view()  # warm, so the mutation goes down the delta path
        if kind == "add_paper":
            mutated = problem.with_additional_paper(_late_paper(problem))
        elif kind == "remove_reviewer":
            mutated = problem.without_reviewer(problem.reviewer_ids[-1])
        else:
            problem.conflicts.add(problem.reviewer_ids[2], problem.paper_ids[2])
            mutated = problem
        _assert_view_matches_oracle(mutated)


class TestSolverOutputsBitwiseEqualToRecompile:
    """Acceptance pin: delta-maintained state never changes any result."""

    def _mutated_pair(self):
        """The same mutated instance, once delta-maintained, once cold."""
        problem = _instance(seed=11)
        problem.dense_view()
        problem.warm_pair_scores()
        current = problem.with_additional_paper(_late_paper(problem, "late-a"))
        current = current.without_reviewer(current.reviewer_ids[2])
        current = current.with_additional_paper(_late_paper(current, "late-b"))
        return current, _cold_clone(current)

    def test_greedy(self):
        delta_problem, cold_problem = self._mutated_pair()
        fast = GreedySolver().solve(delta_problem)
        cold = GreedySolver().solve(cold_problem)
        assert fast.assignment == cold.assignment
        assert fast.score == cold.score

    def test_sdga(self):
        delta_problem, cold_problem = self._mutated_pair()
        fast = StageDeepeningGreedySolver().solve(delta_problem)
        cold = StageDeepeningGreedySolver().solve(cold_problem)
        assert fast.assignment == cold.assignment
        assert fast.score == cold.score

    def test_local_search(self):
        delta_problem, cold_problem = self._mutated_pair()
        base = StageDeepeningGreedySolver().solve(cold_problem).assignment
        fast, fast_stats = LocalSearchRefiner(max_rounds=3).refine(
            delta_problem, base
        )
        cold, cold_stats = LocalSearchRefiner(max_rounds=3).refine(
            cold_problem, base
        )
        assert fast == cold
        assert fast_stats["final_score"] == cold_stats["final_score"]

    @pytest.mark.parametrize(
        "solver", ["Greedy", "SDGA", "SM", "BRGG", "Ratio-Greedy", "Repair", "Bid-SDGA"]
    )
    def test_interleaved_mutation_chain_feeds_solvers_bitwise(self, solver):
        """All three mutation kinds interleaved — add -> conflict edit ->
        withdraw — carried by delta, then fed to a solve: the result must
        equal a cold recompile bit for bit (the PR-5 acceptance pin, at
        the registry level so newly registered solvers inherit it)."""
        from repro.service.registry import create_solver

        problem = _instance(seed=21, conflict_ratio=0.04)
        problem.dense_view()
        problem.warm_pair_scores()
        current = problem.with_additional_paper(_late_paper(problem, "late-x"))
        current.conflicts.add(current.reviewer_ids[1], "late-x")
        current = current.without_reviewer(current.reviewer_ids[4])
        cold = _cold_clone(current)

        fast = create_solver("cra", solver).solve(current)
        reference = create_solver("cra", solver).solve(cold)
        assert fast.assignment == reference.assignment
        assert fast.score == reference.score
        cold.validate_assignment(fast.assignment, require_complete=True)


class TestEngineDeltaPath:
    def test_mutate_resolve_roundtrip_is_delta_maintained(self):
        problem = _instance(seed=5)
        engine = AssignmentEngine(problem)
        engine.warm()
        engine.solve("Greedy")
        stats = engine.problem.view_stats
        recompiles = stats.recompiles

        engine.add_paper(_late_paper(engine.problem))
        engine.solve("Greedy")
        engine.withdraw_reviewer(engine.problem.reviewer_ids[0])
        engine.solve("Greedy")
        assert stats.recompiles == recompiles  # solved twice, compiled never
        assert stats.delta_applies >= 2
        payload = engine.stats()
        assert payload["delta"]["delta_applies"] == stats.delta_applies
        assert payload["delta"]["recompiles"] == stats.recompiles

    def test_engine_results_match_full_recompile_baseline(self):
        """The churn acceptance criterion at test scale: same ops, same bits."""
        def replay(invalidate: bool):
            engine = AssignmentEngine(_instance(seed=7))
            outputs = []
            operations = [
                ("solve",),
                ("add", "late-1"),
                ("solve",),
                ("withdraw", 4),
                ("solve",),
                ("add", "late-2"),
                ("withdraw", 0),
                ("solve",),
            ]
            for operation in operations:
                if invalidate:
                    engine.problem.invalidate_caches()
                    engine.cache.invalidate(engine.problem)
                if operation[0] == "solve":
                    result = engine.solve("Greedy")
                    outputs.append(("solve", sorted(result.assignment.pairs()),
                                    result.score))
                elif operation[0] == "add":
                    delta = engine.add_paper(_late_paper(engine.problem, operation[1]))
                    outputs.append(("add", delta.added_pairs))
                else:
                    victim = engine.problem.reviewer_ids[operation[1]]
                    delta = engine.withdraw_reviewer(victim)
                    outputs.append(("withdraw", delta.added_pairs,
                                    delta.removed_pairs))
            return outputs

        assert replay(invalidate=False) == replay(invalidate=True)


class TestReviewFindings:
    """Regressions for defects found in review of the delta layer."""

    def test_lowered_workload_rejects_overloaded_assignment(self):
        """add_paper with a tightened delta_r must not commit an assignment
        whose existing loads exceed the new bound (and must reject it
        *before* mutating)."""
        from repro.exceptions import InfeasibleAssignmentError

        problem = _instance(seed=4)
        engine = AssignmentEngine(problem)
        engine.solve("Greedy")
        papers_before = engine.problem.num_papers
        with pytest.raises(InfeasibleAssignmentError):
            engine.add_paper(_late_paper(engine.problem), reviewer_workload=1)
        assert engine.problem.num_papers == papers_before  # nothing committed
        engine.problem.validate_assignment(engine.assignment)

    def test_adoption_clears_leftover_dirty_columns(self):
        """A dirty placeholder column left by a cold mutation must not make
        the cache write into a later-adopted read-only matrix."""
        problem = _instance(seed=6)
        engine = AssignmentEngine(problem)
        engine.warm()
        engine.problem.invalidate_caches()  # cold chain: next add carries no matrix
        engine.add_paper(_late_paper(engine.problem, "late-a"))
        engine.solve("Greedy")  # warms the derived problem's pair scores
        engine.add_paper(_late_paper(engine.problem, "late-b"))
        matrix = engine.cache.matrix()  # must not raise
        current = engine.problem
        expected = current.scoring.score_matrix(
            current.reviewer_matrix, current.paper_matrix
        )
        assert np.array_equal(matrix, expected)

    def test_conflict_edit_voids_the_assignment_validity_cache(self):
        """A live conflict edit that invalidates an assigned pair must make
        the next mutation raise, exactly like the historical unconditional
        validation did (the validity cache keys on the conflict version)."""
        from repro.exceptions import InfeasibleAssignmentError

        problem = _instance(seed=12, conflict_ratio=0.0)
        engine = AssignmentEngine(problem)
        engine.solve("Greedy")
        reviewer_id, paper_id = next(iter(engine.assignment.pairs()))
        engine.problem.conflicts.add(reviewer_id, paper_id)
        with pytest.raises(InfeasibleAssignmentError):
            engine.add_paper(_late_paper(engine.problem))

    def test_one_scoring_pass_per_pooled_add(self):
        """add_paper(pool_size=...) scores the new column exactly once."""
        from repro.core.scoring import ScoringFunction

        problem = _instance(seed=14)
        engine = AssignmentEngine(problem)
        engine.warm()
        engine.solve("Greedy")
        calls: list[tuple[int, int]] = []
        original = ScoringFunction.score_matrix

        def counting(self, reviewer_matrix, paper_matrix, parallel=None):
            calls.append((reviewer_matrix.shape[0], paper_matrix.shape[0]))
            return original(self, reviewer_matrix, paper_matrix)

        try:
            ScoringFunction.score_matrix = counting
            engine.add_paper(_late_paper(engine.problem), pool_size=6)
        finally:
            ScoringFunction.score_matrix = original
        num_reviewers = engine.problem.num_reviewers
        assert calls == [(num_reviewers, 1)]
        _assert_pair_scores_match_oracle(engine.problem)

    def test_full_width_greedy_reports_no_prune_activity(self):
        # 16 reviewers: Greedy's default shortlist width covers the whole
        # pool, so there is nothing to prune and nothing to count.
        problem = _instance(seed=8)
        result = GreedySolver().solve(problem)
        assert result.stats["prune_width"] == problem.num_reviewers
        assert result.stats["prune_certified"] == 0
        assert result.stats["prune_fallbacks"] == 0


class TestBranchedChains:
    """Deriving twice from one parent must not let siblings share columns.

    The chain's pair-score matrix appends in place only while the parent
    holds the medium's tip (the RAM arena's ``used`` count, or the memmap
    blocks' live generation and column count); every other derivation
    copies first.  Each member must still equal a cold recompile.
    """

    @pytest.mark.parametrize("medium", ["ram", "blocks"])
    def test_siblings_and_their_parent_stay_exact(self, medium, tmp_path):
        root = _instance(seed=9)
        store = None
        if medium == "blocks":
            from repro.store import SqliteProblemStore

            store = SqliteProblemStore.create(
                tmp_path / "branch.db", root, blocks=True, block_cols=4
            )
        try:
            root.warm_pair_scores()
            parent = root.with_additional_paper(_late_paper(root, "parent"))
            first = parent.with_additional_paper(_late_paper(parent, "first"))
            second = parent.with_additional_paper(_late_paper(parent, "second"))
            first_dropped = first.without_reviewer(first.reviewer_ids[2])
            parent_dropped = parent.without_reviewer(parent.reviewer_ids[5])
            members = {
                "root": root,
                "parent": parent,
                "first": first,
                "second": second,
                "first_dropped": first_dropped,
                "parent_dropped": parent_dropped,
            }
            for name, member in members.items():
                expected = _cold_clone(member).pair_score_matrix()
                matrix = member.pair_score_matrix()
                assert matrix.shape == expected.shape, name
                assert matrix.tobytes() == expected.tobytes(), name
        finally:
            if store is not None:
                store.close()


class TestJraCacheConflictStaleness:
    def test_journal_query_tracks_live_conflict_edits(self):
        """Found during the invalidation audit: the JRA sub-problem cache
        keyed on (paper, group size, pool) only, so conflict edits kept
        serving stale exclusion sets."""
        problem = _instance(seed=2, conflict_ratio=0.0)
        engine = AssignmentEngine(problem)
        paper_id = problem.paper_ids[0]
        first = engine.journal_query(paper_id)
        best_reviewer = first.best.reviewer_ids[0]

        engine.problem.conflicts.add(best_reviewer, paper_id)
        second = engine.journal_query(paper_id)
        assert best_reviewer not in second.best.reviewer_ids
