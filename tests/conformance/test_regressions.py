"""Named regression tests for defects the conformance harness surfaced.

Each test pins the exact instance (or the minimal reconstruction) that
exposed the bug, so the fix cannot silently regress.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.entities import Paper, Reviewer
from repro.core.problem import WGRAPProblem
from repro.core.vectors import TopicVector
from repro.data.synthetic import make_problem
from repro.exceptions import InfeasibleProblemError, RequestError
from repro.service.engine import AssignmentEngine
from repro.service.registry import create_solver
from repro.service.requests import request_from_dict
from repro.service.session import EngineSession, serve_stream
from repro.store import SqliteProblemStore
from tests.conformance import GRID, apply_chain, cold_clone, late_paper, make_instance
from tests.oracles import LazyHeapGreedy, reference_solver


class TestGreedyHeapTieDrift:
    """Harness finding #1: the lazy heap is not a valid bitwise oracle.

    On the tie-heavy ``reviewer_coverage`` grid cell the heap's ulp-stale
    records reorder exact-gain ties and cascade into a *different
    assignment with a different score* (18.3497 vs 18.3628 at the time of
    the finding) — a historical divergence the dense-kernel work documented
    but the old dense-vs-object comparison never covered.  The fix: Greedy's
    reference is the naive true-argmax re-scan evaluated through the object
    layer; the heap stays in ``tests/oracles`` as a benchmark baseline.
    """

    INSTANCE = "tie-heavy-reviewer-coverage"

    def _mutated(self):
        return apply_chain(make_instance(GRID[self.INSTANCE]), "interleaved-all-three")

    def test_dense_greedy_matches_naive_object_oracle_bitwise(self):
        problem = self._mutated()
        dense = create_solver("cra", "Greedy").solve(problem)
        oracle = reference_solver("cra", "Greedy").solve(problem)
        assert dense.assignment == oracle.assignment
        assert dense.score == oracle.score

    def test_greedy_reference_is_the_naive_scan_not_the_heap(self):
        solver = reference_solver("cra", "Greedy")
        result = solver.solve(make_instance(GRID[self.INSTANCE]))
        assert result.stats["strategy"] == "naive_object"

    def test_heap_baseline_remains_reachable_and_valid(self):
        problem = self._mutated()
        heap = LazyHeapGreedy().solve(problem)
        assert heap.stats["strategy"] == "lazy_heap"
        cold_clone(problem).validate_assignment(heap.assignment)


class TestSolveOptionsCannotSelectAnOracle:
    """Solve options used to reach the object-path oracles.

    ``solve`` and ``portfolio`` options go straight into the registry
    factories, so ``{"options": {"use_dense": false}}`` over the network
    selected Greedy's object-path re-scan — orders of magnitude slower
    than the fast path on a served tenant — and ``lazy_heap`` its heap.
    ``{"backend": "flow"}`` likewise sent SDGA's and Repair's stage
    assignments through a pure-Python min-cost flow (a 400x120x30 SDGA
    solve took 35.3 s against 0.106 s on a 2-vCPU VM, for the same
    score).  ``{"prune": false}`` switched off Greedy's pruned column
    refresh, and ``prune_width`` resized its shortlist.  The references
    now live in ``tests/oracles``; the factories ignore all five options,
    so an old client's request is accepted and answered by the one fast
    path.
    """

    INSTANCE = "tie-heavy-reviewer-coverage"

    @pytest.mark.parametrize(
        "solver,options",
        [
            ("Greedy", {"use_dense": False}),
            ("Greedy", {"use_dense": False, "lazy_heap": True}),
            ("SDGA", {"backend": "flow"}),
            ("Repair", {"backend": "flow"}),
            ("Greedy", {"prune": False}),
            ("Greedy", {"prune_width": 1}),
        ],
        ids=[
            "use_dense",
            "use_dense+lazy_heap",
            "SDGA-backend=flow",
            "Repair-backend=flow",
            "Greedy-prune=false",
            "Greedy-prune_width=1",
        ],
    )
    def test_oracle_options_have_no_effect(self, solver, options):
        plain = AssignmentEngine(make_instance(GRID[self.INSTANCE])).solve(solver)
        optioned = AssignmentEngine(make_instance(GRID[self.INSTANCE])).solve(
            solver, **options
        )
        assert optioned.assignment == plain.assignment
        assert optioned.score == plain.score
        assert dict(optioned.stats) == dict(plain.stats)


class TestJournalPruneHasNoEffect:
    """A journal request's ``prune`` chose a second exact path.

    ``{"prune": 16}`` first solved on the 16 best candidates by pair score
    and then tried to certify that answer with a bound built from solo
    pair scores.  On both serve workloads of the benchmark it never
    certified, so every such query paid the restricted solve and then the
    full one.  The pool search is gone.  The field is still accepted and
    ignored, so the query is the same one solve as without it, and no
    prune counter moves.
    """

    def test_old_client_prune_field_is_ignored(self):
        # 24 candidates: more than the 16 the old pool search kept.
        problem = make_problem(
            num_papers=6, num_reviewers=24, num_topics=8, group_size=2, seed=4
        )
        session = EngineSession(AssignmentEngine(problem))
        plain = {"kind": "journal", "paper_id": problem.paper_ids[1], "top_k": 2}
        expected = session.dispatch(request_from_dict(plain))
        before = session.engine.stats()["delta"]
        answered = session.dispatch(request_from_dict({**plain, "prune": 16}))
        after = session.engine.stats()["delta"]
        assert answered.ok and expected.ok
        assert answered.payload["groups"] == expected.payload["groups"]
        assert answered.payload["shortlist"] == expected.payload["shortlist"]
        assert after["prune_certified"] == before["prune_certified"]
        assert after["prune_fallbacks"] == before["prune_fallbacks"]


class TestStorelessEngineReportsNoStoreCounters:
    """A store-less engine reported store counters that were wrong.

    Every problem in the chain lazily built its own in-RAM store object,
    so on a 12-reviewer engine ``stats()["store"]["index_hits"]`` fell
    from 12 to 0 after one withdrawal, and ``bid_rows`` read 0 after
    ``update_bids`` had recorded two bids (the engine mirrors bids only
    into a bound store).  The in-RAM store is folded into the problem:
    without a bound store the engine reports ``{"kind": "memory"}`` and
    no ``store.*`` gauge.
    """

    def test_store_block_is_just_the_kind(self):
        problem = make_problem(num_papers=6, num_reviewers=12, seed=3)
        engine = AssignmentEngine(problem)
        engine.solve("Greedy")
        for paper_id in problem.paper_ids:
            engine.problem.candidate_reviewers(paper_id)
        engine.withdraw_reviewer(problem.reviewer_ids[0])
        engine.update_bids(
            [
                (problem.reviewer_ids[1], problem.paper_ids[0], 1.0),
                (problem.reviewer_ids[2], problem.paper_ids[1], 0.5),
            ]
        )
        stats = engine.stats()
        assert stats["store"] == {"kind": "memory"}
        gauges = [name for name in stats["metrics"] if name.startswith("store.")]
        assert gauges == []


class TestTightConflictDenseInstancesComplete:
    """Findings of the pruning property tests: feasible instances raised.

    With δr·R barely above δp·P and dense conflicts, two constructive
    paths could strand a paper every feasible reviewer of which was full:

    * the repair pass's deadlock resolver tried one swap only, so Greedy
      and Ratio-Greedy raised ``InfeasibleProblemError`` on an instance
      every other solver staffs (it needs a longer chain of moves);
    * SDGA's stages never revisit earlier choices, so a later stage had
      no feasible one-reviewer-per-paper assignment; SDGA, its refined
      variants and Bid-SDGA raised.

    The resolver now falls back on the shortest chain of moves, and a
    stranded SDGA stage hands the rest to the repair pass.
    """

    @pytest.mark.parametrize("name", ["Greedy", "Ratio-Greedy"])
    def test_repair_resolves_a_deadlock_needing_a_chain(self, name):
        problem = make_problem(
            num_papers=4, num_reviewers=8, num_topics=3, group_size=2, seed=2693,
            conflict_ratio=0.15, scoring="dot_product",
        )
        result = create_solver("cra", name).solve(problem)
        problem.validate_assignment(result.assignment)
        assert result.stats["repaired"] is True

    @pytest.mark.parametrize("name", ["SDGA", "SDGA-LS", "SDGA-SRA", "Bid-SDGA"])
    def test_stranded_sdga_stage_is_completed(self, name):
        problem = make_problem(
            num_papers=4, num_reviewers=9, num_topics=4, group_size=4, seed=280,
            conflict_ratio=0.15, scoring="dot_product",
        )
        result = create_solver("cra", name).solve(problem)
        oracle = reference_solver("cra", name).solve(problem)
        problem.validate_assignment(result.assignment)
        assert result.assignment == oracle.assignment
        assert result.score == oracle.score


def _tiny_entities(num_topics: int = 3):
    vectors = [
        [0.7, 0.2, 0.1],
        [0.1, 0.8, 0.1],
        [0.3, 0.3, 0.4],
    ]
    reviewers = [
        Reviewer(id=f"r{i}", vector=TopicVector(values)) for i, values in enumerate(vectors)
    ]
    papers = [
        Paper(id="p0", vector=TopicVector([0.5, 0.3, 0.2])),
        Paper(id="p1", vector=TopicVector([0.2, 0.5, 0.3])),
    ]
    return papers, reviewers


class TestStaleConflictEntriesAfterWithdrawal:
    """Harness findings #2/#3: conflict entries can outlive their reviewer.

    The conflict container travels along mutation chains by id, so after
    ``without_reviewer`` it can still name reviewers no longer in the
    pool.  That crashed ``ExhaustiveSolver`` (KeyError on the index
    lookup) and made BRGG's object path *under-count* availability
    (``available = R - len(excluded)`` with phantom members in
    ``excluded``), shrinking groups that the dense mask — which never sees
    unknown ids — staffed in full.
    """

    def test_exhaustive_tolerates_conflicts_naming_withdrawn_reviewers(self):
        papers, reviewers = _tiny_entities()
        problem = WGRAPProblem(
            papers=papers, reviewers=reviewers, group_size=2, reviewer_workload=2,
            conflicts=[("r2", "p0")],
        )
        problem.dense_view()
        derived = problem.without_reviewer("r2")
        assert "r2" in derived.conflicts.reviewers_conflicting_with("p0")
        result = create_solver("cra", "Exhaustive").solve(derived)  # used to raise KeyError
        derived.validate_assignment(result.assignment)

    def test_brgg_object_path_counts_only_pool_members(self):
        papers, reviewers = _tiny_entities()
        problem = WGRAPProblem(
            papers=papers, reviewers=reviewers, group_size=2, reviewer_workload=2,
            conflicts=[("r2", "p0")],
        )
        problem.dense_view()
        derived = problem.without_reviewer("r2")
        dense = create_solver("cra", "BRGG").solve(derived)
        oracle = reference_solver("cra", "BRGG").solve(derived)
        # The phantom "r2" entry used to push the object path's available
        # count below delta_p, forcing a partial group + a repair detour
        # (observable as repaired=True here, and as an outright
        # InfeasibleProblemError on conflict-dense instances).
        assert oracle.assignment == dense.assignment
        assert oracle.score == dense.score
        assert dict(oracle.stats) == dict(dense.stats)
        assert oracle.stats["repaired"] is False
        assert dense.assignment.group_size("p0") == 2

    def test_engine_add_paper_counts_only_pool_members(self):
        papers, reviewers = _tiny_entities()
        problem = WGRAPProblem(
            papers=papers, reviewers=reviewers, group_size=2, reviewer_workload=3,
        )
        engine = AssignmentEngine(problem)
        engine.solve("Greedy")
        # A conflict declared for a paper id that has not arrived yet,
        # naming a reviewer who then withdraws.
        engine.problem.conflicts.add("r0", "late")
        engine.withdraw_reviewer("r0")
        late = Paper(id="late", vector=TopicVector([0.4, 0.4, 0.2]))
        delta = engine.add_paper(late)  # used to raise InfeasibleProblemError
        assert delta.affected_papers == ("late",)
        assert engine.assignment.group_size("late") == 2
        engine.problem.validate_assignment(engine.assignment)


class TestConformanceSweepStaysClean:
    """The exact sweep cell that exposed finding #1 must stay clean for
    every constructive solver with a reference (cheap insurance against
    tie-order drift reappearing through a kernel change)."""

    @pytest.mark.parametrize("name", ["Greedy", "SDGA", "SM", "BRGG", "Ratio-Greedy", "Repair"])
    def test_tie_heavy_cell_dense_object_parity(self, name):
        problem = apply_chain(
            make_instance(GRID["tie-heavy-reviewer-coverage"]), "interleaved-all-three"
        )
        dense = create_solver("cra", name).solve(problem)
        oracle = reference_solver("cra", name).solve(problem)
        assert dense.assignment == oracle.assignment
        assert dense.score == oracle.score


def _memmap_backed(array) -> bool:
    """Whether ``array`` is, or is a view of, an ``np.memmap``."""
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


class TestOneScoreMatrix:
    """The problem chain's matrix is the engine's only score matrix.

    The engine's cache used to keep a second ``(R, P)`` matrix beside the
    chain's delta-maintained one and reconcile the two.  An out-of-core
    engine then solved from a full RAM copy after its first late paper
    (while the blocks were kept up to date beside it), and an in-RAM
    engine copied the matrix twice per withdrawal and held both copies.
    """

    def _problem(self):
        # 6 reviewers x workload 3 = 18 slots for 8 papers x 2; ``_drive``
        # raises the workload where a step needs more room.
        return make_problem(8, 6, num_topics=6, group_size=2, reviewer_workload=3, seed=5)

    def _drive(self, engine):
        """solve, add, solve, withdraw, infeasible withdraw, add: yields after each."""
        engine.solve("Greedy")
        yield "solve"
        engine.add_paper(late_paper(engine.problem, "one-a"), reviewer_workload=4)
        yield "add_paper"
        engine.solve("Greedy")
        yield "solve again"
        engine.withdraw_reviewer(engine.problem.reviewer_ids[1])
        yield "withdraw_reviewer"
        problem = engine.problem
        with pytest.raises(InfeasibleProblemError):  # 4 x 4 slots < 9 x 2
            engine.withdraw_reviewer(engine.problem.reviewer_ids[0])
        assert engine.problem is problem
        yield "rolled-back withdrawal"
        engine.add_paper(late_paper(engine.problem, "one-b"), reviewer_workload=5)
        yield "add_paper again"

    def test_store_engine_keeps_its_matrix_in_the_blocks(self, tmp_path):
        ram = AssignmentEngine(self._problem())
        store = SqliteProblemStore.create(
            tmp_path / "one.db", self._problem(), blocks=True, block_cols=4
        )
        blocked = AssignmentEngine.from_store(store)
        try:
            for step, _ in zip(self._drive(blocked), self._drive(ram)):
                matrix = blocked.problem.pair_score_matrix()
                assert _memmap_backed(matrix), f"RAM-backed after {step}"
                expected = ram.problem.pair_score_matrix()
                assert matrix.shape == expected.shape, step
                assert matrix.tobytes() == expected.tobytes(), step
        finally:
            store.close()

    def test_ram_engine_cache_shares_the_problem_matrix(self):
        engine = AssignmentEngine(self._problem())
        for step in self._drive(engine):
            assert np.shares_memory(
                engine.cache.matrix(), engine.problem.pair_score_matrix()
            ), f"two matrices after {step}"


class TestNullFieldsAreAbsent:
    """A JSON ``null`` in a string field was parsed as the string "None".

    ``request_from_dict`` coerced with ``str(payload.get(...))``, while
    optional integers already treated ``null`` as absent.  So
    ``{"kind": "snapshot", "path": null}`` answered ``ok: true`` and wrote
    a snapshot to a file named ``None`` in the server's working
    directory; ``"reviewer_id": null`` answered ``unknown_id`` for
    reviewer ``'None'``; ``"solver": null`` was ``unknown_solver
    'None'``; ``"include_ratio": null`` switched the ratio off; and a
    journal request with ``"paper_id"`` and ``"paper": null`` was
    rejected.  Null keys are now dropped before the per-kind parsing.
    """

    OPTIONAL = [
        ({"kind": "solve"}, "solver"),
        ({"kind": "journal", "paper_id": "p"}, "solver"),
        ({"kind": "evaluate"}, "include_ratio"),
        ({"kind": "journal", "paper_id": "p"}, "paper"),
    ]

    @pytest.mark.parametrize(("base", "field"), OPTIONAL)
    def test_null_optional_field_parses_as_absent(self, base, field):
        assert request_from_dict({**base, field: None}) == request_from_dict(base)

    @pytest.mark.parametrize(
        ("kind", "field"), [("snapshot", "path"), ("withdraw_reviewer", "reviewer_id")]
    )
    def test_null_required_field_is_missing(self, kind, field):
        with pytest.raises(RequestError):
            request_from_dict({"kind": kind})
        with pytest.raises(RequestError):
            request_from_dict({"kind": kind, field: None})

    def test_null_snapshot_path_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        engine = AssignmentEngine(make_problem(num_papers=4, num_reviewers=4, seed=0))
        output = io.StringIO()
        serve_stream(engine, ['{"kind": "snapshot", "path": null, "id": 1}'], output)
        response = json.loads(output.getvalue())
        assert response["ok"] is False
        assert response["error_type"] == "request"
        assert response["id"] == 1
        assert list(tmp_path.iterdir()) == []


class TestSessionStoreKeepsAcknowledgedMutations:
    """``wgrap session --store`` lost mutations it had acknowledged.

    The store was closed only after ``--save-snapshot`` succeeded, and
    only ``close()`` commits the SQLite transaction: an ``update_bids``
    answered ``ok: true``, a snapshot path in a missing directory then
    raised, and the reopened store held no bids.  The store now closes in
    a ``finally`` block, as ``wgrap serve`` closes it.
    """

    def test_failed_snapshot_still_commits_the_store(self, tmp_path):
        problem = make_problem(num_papers=4, num_reviewers=4, seed=0)
        store_path = tmp_path / "conf.db"
        SqliteProblemStore.create(store_path, problem).close()
        bid = [problem.reviewer_ids[0], problem.paper_ids[0], 1.0]
        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps({"kind": "update_bids", "bids": [bid]}) + "\n")
        responses = tmp_path / "responses.jsonl"
        with pytest.raises(OSError):
            main(
                [
                    "session", str(script), "--store", str(store_path),
                    "--output", str(responses),
                    "--save-snapshot", str(tmp_path / "missing" / "x.json"),
                ]
            )
        assert json.loads(responses.read_text())["ok"] is True
        store = SqliteProblemStore.open(store_path)
        try:
            assert store.load_bids() == (tuple(bid),)
        finally:
            store.close()
