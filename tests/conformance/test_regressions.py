"""Named regression tests for defects the conformance harness surfaced.

Each test pins the exact instance (or the minimal reconstruction) that
exposed the bug, so the fix cannot silently regress.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.entities import Paper, Reviewer
from repro.core.problem import WGRAPProblem
from repro.core.scoring import available_scoring_functions
from repro.core.vectors import TopicVector
from repro.data.io import load_problem, problem_from_dict, problem_to_dict
from repro.data.synthetic import make_problem
from repro.durability import DurabilityConfig, TenantJournal, read_checkpoint
from repro.exceptions import (
    ConfigurationError,
    InfeasibleProblemError,
    RequestError,
    UnsupportedFormatError,
)
from repro.jra.bba import BranchAndBoundSolver
from repro.jra.ilp import ILPSolver
from repro.metrics.analysis import coverage_histogram, paper_topic_coverage
from repro.metrics.quality import optimality_ratio
from repro.net.server import AssignmentServer
from repro.obs.metrics import get_registry
from repro.service.engine import AssignmentEngine
from repro.service.registry import create_solver
from repro.service.requests import request_from_dict
from repro.service.session import EngineSession, serve_stream
from repro.store import SqliteProblemStore
from tests.conformance import GRID, apply_chain, cold_clone, late_paper, make_instance
from tests.oracles import LazyHeapGreedy, reference_solver
from tests.oracles.flow import has_feasible_assignment
from tests.net_utils import ServerHarness, wait_until


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


class TestIntegerFieldsAreNotCoerced:
    """Integer request fields were truncated or coerced silently.

    ``request_from_dict`` applied a bare ``int(...)`` to seven fields, so
    a journal ``"top_k": 2.9`` answered the top 2, ``"top_k": true`` the
    top 1, ``"group_size": 2.5`` solved for groups of 2 and ``"3"`` was
    read as 3; ``add_paper`` and ``fault`` had the same hole.  Only the
    ``seq`` envelope field rejected anything but a non-bool ``int``.  All
    eight now go through that one rule.
    """

    FIELDS = [
        ({"kind": "journal", "paper_id": "paper-0000"}, "group_size"),
        ({"kind": "journal", "paper_id": "paper-0000"}, "top_k"),
        ({"kind": "journal", "paper_id": "paper-0000"}, "pool_size"),
        (
            {"kind": "add_paper", "paper": {"id": "late", "vector": [0.25, 0.25, 0.25, 0.25]}},
            "reviewer_workload",
        ),
        (
            {"kind": "add_paper", "paper": {"id": "late", "vector": [0.25, 0.25, 0.25, 0.25]}},
            "pool_size",
        ),
        ({"kind": "fault", "site": "solver_call", "mode": "off"}, "n"),
        ({"kind": "fault", "site": "solver_call", "mode": "off"}, "seed"),
    ]

    @staticmethod
    def _serve(line: dict) -> dict:
        problem = make_problem(
            num_papers=4, num_reviewers=6, num_topics=4, group_size=2,
            reviewer_workload=3, seed=0,
        )
        output = io.StringIO()
        serve_stream(AssignmentEngine(problem), [json.dumps(line)], output)
        return json.loads(output.getvalue())

    IDS = [f"{base['kind']}-{field}" for base, field in FIELDS]

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    @pytest.mark.parametrize(("base", "field"), FIELDS, ids=IDS)
    def test_non_integer_answers_a_request_error(self, base, field, value):
        response = self._serve({**base, field: value, "id": 7})
        assert response["ok"] is False
        assert response["error_type"] == "request"
        assert response["id"] == 7
        assert field in response["error"]

    @pytest.mark.parametrize(("base", "field"), FIELDS, ids=IDS)
    def test_plain_integer_parses_as_before(self, base, field):
        assert getattr(request_from_dict({**base, field: 2}), field) == 2

    def test_integer_top_k_still_answers_ranked_groups(self):
        response = self._serve(
            {"kind": "journal", "paper_id": "paper-0000", "top_k": 2, "id": 1}
        )
        assert response["ok"] is True
        assert [group["rank"] for group in response["payload"]["groups"]] == [1, 2]


class TestBooleanAndNumberFieldsAreNotCoerced:
    """Boolean and number request fields were coerced instead of checked.

    ``request_from_dict`` applied ``bool(...)`` to ``evaluate``'s
    ``include_ratio`` and ``include_per_paper``, ``trace``'s ``enable`` and
    ``fault``'s ``reset``, so ``"include_ratio": "false"`` ran the ratio
    (one BBA solve per paper for the ideal assignment), ``"enable":
    "false"`` turned tracing on and ``"reset": "false"`` disarmed every
    failpoint.  It applied ``float(...)`` to ``portfolio``'s ``deadline``,
    ``fault``'s ``probability`` and each bid value: ``"deadline": "5"``
    read as 5.0, ``true`` as 1.0, and a bid ``[r, p, true]`` recorded 1.0.
    ``create_tenant`` read ``default`` through ``bool(...)`` and ``warm``
    by truthiness.  A boolean field now takes only JSON ``true`` or
    ``false``, a number field only a finite JSON number; anything else
    answers ``error_type: "request"``.
    """

    BOOLEANS = [
        ({"kind": "evaluate"}, "include_ratio"),
        ({"kind": "evaluate"}, "include_per_paper"),
        ({"kind": "trace"}, "enable"),
        ({"kind": "fault"}, "reset"),
    ]
    NUMBERS = [
        ({"kind": "portfolio", "solvers": ["Greedy"]}, "deadline"),
        ({"kind": "fault", "site": "solver_call", "mode": "off"}, "probability"),
    ]

    _serve = staticmethod(TestIntegerFieldsAreNotCoerced._serve)

    def _assert_request_error(self, line: dict, field: str) -> None:
        response = self._serve({**line, "id": 7})
        assert response["ok"] is False
        assert response["error_type"] == "request"
        assert response["id"] == 7
        assert field in response["error"]

    @pytest.mark.parametrize("value", ["false", "true", 0, 1])
    @pytest.mark.parametrize(
        ("base", "field"), BOOLEANS, ids=[f"{b['kind']}-{f}" for b, f in BOOLEANS]
    )
    def test_non_boolean_answers_a_request_error(self, base, field, value):
        self._assert_request_error({**base, field: value}, field)

    @pytest.mark.parametrize("value", ["5", True, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        ("base", "field"), NUMBERS, ids=[f"{b['kind']}-{f}" for b, f in NUMBERS]
    )
    def test_non_number_answers_a_request_error(self, base, field, value):
        self._assert_request_error({**base, field: value}, field)

    @pytest.mark.parametrize("value", [True, "1", float("nan")])
    def test_non_number_bid_answers_a_request_error(self, value):
        bid = ["reviewer-0000", "paper-0000", value]
        self._assert_request_error({"kind": "update_bids", "bids": [bid]}, "bid value")

    @pytest.mark.parametrize(
        ("base", "field"), BOOLEANS, ids=[f"{b['kind']}-{f}" for b, f in BOOLEANS]
    )
    def test_plain_booleans_parse_as_before(self, base, field):
        for value in (True, False):
            assert getattr(request_from_dict({**base, field: value}), field) is value

    @pytest.mark.parametrize(
        ("base", "field"), NUMBERS, ids=[f"{b['kind']}-{f}" for b, f in NUMBERS]
    )
    def test_plain_numbers_parse_as_before(self, base, field):
        for value in (2, 0.5):
            parsed = getattr(request_from_dict({**base, field: value}), field)
            assert parsed == value and isinstance(parsed, float)
        bids = request_from_dict({"kind": "update_bids", "bids": [["r", "p", 2]]}).bids
        assert bids == (("r", "p", 2.0),)

    def test_create_tenant_flags_are_checked_before_the_tenant_exists(self):
        problem = make_problem(6, 8, num_topics=5, group_size=2, seed=4)
        harness = ServerHarness().start()
        try:
            for field in ("warm", "default"):
                response = harness.call(
                    {
                        "kind": "create_tenant",
                        "tenant": "kdd",
                        "problem": problem_to_dict(problem),
                        field: "false",
                    }
                )
                assert response["ok"] is False
                assert response["error_type"] == "request"
                assert field in response["error"]
            assert "kdd" not in harness.call({"kind": "list_tenants"})["payload"]["tenants"]
            created = harness.call(
                {
                    "kind": "create_tenant",
                    "tenant": "kdd",
                    "problem": problem_to_dict(problem),
                    "warm": False,
                    "default": True,
                }
            )
            assert created["ok"] is True
        finally:
            harness.stop()


class TestCoverageAnalysisFollowsTheScoring:
    """``repro.metrics.analysis`` assumed weighted coverage.

    ``paper_topic_coverage`` set ``covered_weight = min(paper_weight,
    group_weight)`` whatever the scoring: on ``make_problem(20, 12,
    num_topics=6, group_size=2, seed=3)`` solved with SDGA, the first
    paper's covered weights summed to 1.0 of its mass under
    ``reviewer_coverage`` against a reported score of 1.59, and to 0.99997
    under ``dot_product`` against 0.635.  ``coverage_histogram`` binned
    over ``[0, 1]`` and dropped higher scores: it counted 5 of the 40
    papers of ``make_problem(40, 20, ..., scoring="reviewer_coverage")``.
    A covered weight is now the scoring's ``topic_contribution`` and the
    histogram's upper edge is ``max(1, largest score)``.
    """

    @pytest.mark.parametrize("scoring", available_scoring_functions())
    def test_covered_weights_add_up_to_the_score(self, scoring):
        problem = make_problem(20, 12, num_topics=6, group_size=2, seed=3, scoring=scoring)
        assignment = create_solver("cra", "SDGA").solve(problem).assignment
        for paper in problem.papers:
            report = paper_topic_coverage(problem, assignment, paper.id)
            covered = sum(topic.covered_weight for topic in report.topics)
            assert covered / paper.vector.total() == pytest.approx(report.score, rel=1e-12)

    @pytest.mark.parametrize("scoring", available_scoring_functions())
    def test_histogram_counts_every_paper(self, scoring):
        problem = make_problem(40, 20, num_topics=6, group_size=2, seed=3, scoring=scoring)
        assignment = create_solver("cra", "SDGA").solve(problem).assignment
        histogram = coverage_histogram(problem, assignment)
        assert sum(count for _, _, count in histogram) == problem.num_papers


class TestKindsAreMatchedExactly:
    """``{"kind": "SHUTDOWN"}`` over TCP answered ``ok`` and shut nothing down.

    ``request_from_dict`` looked kinds up case-insensitively, while the TCP
    server matched its management kinds exactly.  So an upper-case
    ``SHUTDOWN`` missed the server's drain: the tenant's engine answered
    it ``{"shutdown": true}``, and the server went on admitting work
    (``list_tenants`` still reported ``"draining": false``).  The stdio
    loop stopped on it.  A kind is now matched exactly everywhere, and
    any other spelling is an unknown kind.
    """

    KINDS = ["SHUTDOWN", "Stats"]

    @staticmethod
    def _engine() -> AssignmentEngine:
        return AssignmentEngine(make_problem(6, 8, num_topics=5, group_size=2, seed=4))

    def test_tcp_server_refuses_other_spellings_and_keeps_serving(self):
        harness = ServerHarness()
        harness.add_tenant("conf", self._engine())
        harness.start()
        try:
            for kind in self.KINDS:
                response = harness.call({"kind": kind, "id": 3})
                assert response["ok"] is False, kind
                assert response["error_type"] == "request"
                assert response["id"] == 3
            assert harness.call({"kind": "list_tenants"})["payload"]["draining"] is False
            assert harness.call({"kind": "stats", "id": 4})["ok"] is True
        finally:
            harness.stop()

    def test_stdio_loop_refuses_other_spellings_and_keeps_serving(self):
        lines = [json.dumps({"kind": kind, "id": n}) for n, kind in enumerate(self.KINDS)]
        output = io.StringIO()
        serve_stream(self._engine(), [*lines, '{"kind": "stats", "id": 9}'], output)
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [response["error_type"] for response in responses[:2]] == ["request"] * 2
        assert responses[2]["ok"] is True
        assert responses[2]["id"] == 9


class TestStringNestedAndUnknownFieldsAreRefused:
    """String, list, nested and undeclared request fields were coerced or dropped.

    After the null, integer, boolean and number fixes, the per-kind parsing
    still applied ``str(...)`` to string fields and list entries, read a
    paper's id and vector loosely, unpacked any bid iterable and dropped
    the fields a kind does not declare.  ``{"kind": "snapshot", "path":
    {"a": 1}}`` wrote a snapshot file named ``{'a': 1}``;
    ``"reviewer_id": [1, 2]`` looked up reviewer ``'[1, 2]'``; ``"solvers":
    [1, null]`` raced the portfolio ``("1", "None")``; a paper ``"id": 5``
    became ``"5"``, and a vector of strings or booleans parsed as numbers;
    a bid ``[1, 2, 0.5]`` was read as the ids ``"1"`` and ``"2"``; a journal
    query's ``"bogus": 1`` was ignored; and the path fields of
    ``create_tenant`` and ``evict_tenant`` went through ``str(...)``.  The
    wire format is now one table derived from the request dataclasses:
    each field takes only its own JSON type, and an undeclared field
    answers ``error_type: "request"``.
    """

    PAPER = {"id": "late", "vector": [0.25, 0.25, 0.25, 0.25]}
    CASES = {
        "snapshot-path-object": ({"kind": "snapshot", "path": {"a": 1}}, "path"),
        "withdraw-reviewer-id-list": (
            {"kind": "withdraw_reviewer", "reviewer_id": [1, 2]},
            "reviewer_id",
        ),
        "solve-solver-object": ({"kind": "solve", "solver": {"x": 1}}, "solver"),
        "portfolio-solvers-object": ({"kind": "portfolio", "solvers": {"a": 1}}, "solvers"),
        "portfolio-solvers-non-strings": (
            {"kind": "portfolio", "solvers": [1, None]},
            "solvers",
        ),
        "add-paper-id-number": ({"kind": "add_paper", "paper": {**PAPER, "id": 5}}, "id"),
        "add-paper-vector-strings": (
            {"kind": "add_paper", "paper": {**PAPER, "vector": ["0.25"] * 4}},
            "vector",
        ),
        "journal-paper-vector-booleans": (
            {"kind": "journal", "paper": {**PAPER, "vector": [True, False, True, False]}},
            "vector",
        ),
        "bid-id-numbers": ({"kind": "update_bids", "bids": [[1, 2, 0.5]]}, "bid"),
        "journal-unknown-field": (
            {"kind": "journal", "paper_id": "paper-0000", "bogus": 1},
            "bogus",
        ),
        "stats-unknown-field": ({"kind": "stats", "include_ratio": True}, "include_ratio"),
    }

    @pytest.mark.parametrize(("line", "field"), list(CASES.values()), ids=list(CASES))
    def test_engine_request_answers_a_request_error(self, line, field, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a coerced snapshot path would land here
        response = TestIntegerFieldsAreNotCoerced._serve({**line, "id": 7})
        assert response["ok"] is False
        assert response["error_type"] == "request"
        assert response["id"] == 7
        assert field in response["error"]
        assert list(tmp_path.iterdir()) == []

    MANAGEMENT = [
        ({"kind": "create_tenant", "tenant": "kdd", "problem_path": 5}, "problem_path"),
        ({"kind": "create_tenant", "tenant": "kdd", "snapshot_path": ["a"]}, "snapshot_path"),
        ({"kind": "create_tenant", "tenant": "kdd", "store_path": {"a": 1}}, "store_path"),
        ({"kind": "evict_tenant", "tenant": "conf", "snapshot_path": 5}, "snapshot_path"),
    ]

    def test_management_path_fields_take_strings_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a coerced snapshot path would land here
        harness = ServerHarness()
        harness.add_tenant("conf", TestKindsAreMatchedExactly._engine())
        harness.start()
        try:
            for line, field in self.MANAGEMENT:
                response = harness.call({**line, "id": 7})
                assert response["ok"] is False, line
                assert response["error_type"] == "request"
                assert response["id"] == 7
                assert field in response["error"]
            tenants = harness.call({"kind": "list_tenants"})["payload"]["tenants"]
            assert list(tenants) == ["conf"]
        finally:
            harness.stop()
        assert list(tmp_path.iterdir()) == []


class TestProblemFormatFieldsAreNotCoerced:
    """The problem format coerced what the request walk refuses.

    ``problem_from_dict`` read ``group_size`` and ``reviewer_workload``
    through ``int(...)`` and kept paper and reviewer ids as given.  A
    ``create_tenant`` with an inline ``problem`` reaches it over the wire:
    ``"group_size": 2.9`` and ``"group_size": "2"`` both loaded as 2,
    ``"reviewer_workload": true`` as 1, and a paper ``"id": 5`` or a
    reviewer ``"id": 7`` stayed an integer, which no string request can
    name (a conflict's ids went through ``str(...)``).  The sizes now take
    only JSON integers and the ids only strings; anything else raises a
    :class:`ConfigurationError` naming the field, and no tenant is
    created.
    """

    CASES = {
        "group-size-float": (lambda payload: payload.update(group_size=2.9), "group_size"),
        "group-size-string": (lambda payload: payload.update(group_size="2"), "group_size"),
        "workload-boolean": (
            lambda payload: payload.update(reviewer_workload=True),
            "reviewer_workload",
        ),
        "paper-id-integer": (lambda payload: payload["papers"][0].update(id=5), "paper id"),
        "reviewer-id-integer": (
            lambda payload: payload["reviewers"][0].update(id=7),
            "reviewer id",
        ),
        "conflict-paper-id-integer": (
            lambda payload: payload.update(conflicts=[["reviewer-0000", 5]]),
            "conflict paper id",
        ),
    }

    @staticmethod
    def _payload(case: str) -> dict:
        payload = problem_to_dict(make_problem(6, 8, num_topics=5, group_size=2, seed=4))
        edit, _ = TestProblemFormatFieldsAreNotCoerced.CASES[case]
        edit(payload)
        return payload

    @pytest.mark.parametrize("case", list(CASES))
    def test_problem_from_dict_and_load_problem_refuse_the_field(self, case, tmp_path):
        field = self.CASES[case][1]
        with pytest.raises(ConfigurationError, match=field):
            problem_from_dict(self._payload(case))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(self._payload(case)))
        with pytest.raises(ConfigurationError, match=field):
            load_problem(path)

    def test_create_tenant_answers_an_error_and_registers_nothing(self):
        harness = ServerHarness().start()
        try:
            for case, (_, field) in self.CASES.items():
                response = harness.call(
                    {"kind": "create_tenant", "tenant": "kdd", "problem": self._payload(case)}
                )
                assert response["ok"] is False, case
                assert response["error_type"] not in ("internal", None), case
                assert field in response["error"], case
                tenants = harness.call({"kind": "list_tenants"})["payload"]["tenants"]
                assert "kdd" not in tenants, case
            plain = problem_to_dict(make_problem(6, 8, num_topics=5, group_size=2, seed=4))
            created = harness.call({"kind": "create_tenant", "tenant": "kdd", "problem": plain})
            assert created["ok"] is True
        finally:
            harness.stop()


class TestTheOptimalityRatioFollowsConflictEdits:
    """A cached ``evaluate`` payload keeps the ratio of an older conflict set.

    A memo of the whole ``evaluate`` payload, reset on mutations and
    solves, passed every other tier-1 test; but a conflict edit on the
    live container fires no mutation event, so after
    ``conflicts.add("reviewer-0003", "paper-0001")`` the memo answered the
    old ratio 0.9981285946241552 where the truth is 0.9984714216574778.
    The ratio is computed on every call.
    """

    def test_second_ratio_sees_the_new_conflict(self):
        problem = make_problem(12, 10, num_topics=8, group_size=3, reviewer_workload=5, seed=0)
        engine = AssignmentEngine(problem)
        engine.solve("Greedy")
        assert engine.evaluate(include_ratio=True)["optimality_ratio"] == 0.9981285946241552
        engine.problem.conflicts.add("reviewer-0003", "paper-0001")
        ratio = engine.evaluate(include_ratio=True)["optimality_ratio"]
        assert ratio == optimality_ratio(engine.problem, engine.assignment)
        assert ratio == 0.9984714216574778


class TestConflictEditsBeforeALatePaperReachTheJournalCache:
    """Conflict edits made between a journal query and a late paper were lost.

    A late paper's problem holds a copy of the conflict set, whose version
    counter restarts at its pair count, and the engine kept every cached
    JRA sub-problem and stored answer across it.  After
    ``conflicts.add(r1, p)``, queries on ``p`` and ``q`` (cache valid at
    version 1), ``conflicts.discard(r1, p)`` and ``conflicts.add(r2, q)``
    (version 3, one pair) and a late paper, the copy's version was 1 again:
    nothing was dropped, ``p`` kept an answer that excluded ``r1`` and ``q``
    one that held the now-conflicted ``r2``.  The engine now compares the
    versions of the source container when a paper arrives, and only then
    re-bases on the copy.
    """

    def test_journal_and_evaluate_agree_with_a_cold_engine(self):
        problem = make_problem(12, 10, num_topics=8, group_size=3, reviewer_workload=5, seed=0)
        engine = AssignmentEngine(problem)
        engine.solve("Greedy")
        p, q = "paper-0000", "paper-0001"
        engine.problem.conflicts.add("reviewer-0001", p)
        stale = {paper: engine.journal_query(paper, top_k=2).groups for paper in (p, q)}
        engine.problem.conflicts.discard("reviewer-0001", p)
        engine.problem.conflicts.add("reviewer-0003", q)
        engine.add_paper(late_paper(engine.problem, "late"))
        cold = AssignmentEngine(cold_clone(engine.problem), assignment=engine.assignment)
        for paper in (p, q):
            answer = engine.journal_query(paper, top_k=2).groups
            assert answer == cold.journal_query(paper, top_k=2).groups
            assert answer != stale[paper]
        assert "reviewer-0001" in engine.journal_query(p).groups[0].reviewer_ids
        assert "reviewer-0003" not in engine.journal_query(q).groups[0].reviewer_ids
        ratio = engine.evaluate()["optimality_ratio"]
        assert ratio == cold.evaluate()["optimality_ratio"]


class TestBidBatchesAreCheckedBeforeTheFirstBid:
    """``update_bids`` half-committed a batch with an out-of-range value.

    The engine checked every id before the first ``BidMatrix.set``, but not
    the values.  On ``make_problem(6, 8, num_topics=5, group_size=2,
    seed=4)`` the batch below answered ``ok: false`` / ``configuration``,
    yet its first bid stayed recorded, ``bid_updates`` stayed 0 and a bound
    store never saw the bid, so the store and the engine disagreed.  The
    whole batch, ids and values, is now checked before the first bid.
    """

    BATCH = [["reviewer-0000", "paper-0000", 0.5], ["reviewer-0001", "paper-0001", 1.5]]

    def _problem(self):
        return make_problem(6, 8, num_topics=5, group_size=2, seed=4)

    def _refuse_the_batch(self, engine):
        response = EngineSession(engine).dispatch(
            request_from_dict({"kind": "update_bids", "bids": self.BATCH})
        )
        assert not response.ok
        assert response.error_type == "configuration"

    def test_no_bid_is_recorded(self):
        engine = AssignmentEngine(self._problem())
        self._refuse_the_batch(engine)
        assert len(engine.bids) == 0
        assert engine.stats()["bid_updates"] == 0

    def test_the_store_holds_the_engine_bids(self, tmp_path):
        store = SqliteProblemStore.create(tmp_path / "bids.db", self._problem())
        engine = AssignmentEngine.from_store(store)
        try:
            engine.update_bids([("reviewer-0002", "paper-0002", 0.25)])
            self._refuse_the_batch(engine)
            assert store.load_bids() == tuple(engine.bids.pairs())
            assert store.load_bids() == (("reviewer-0002", "paper-0002", 0.25),)
        finally:
            store.close()


class TestInlineJournalQueriesHonourConflicts:
    """An inline journal query ignored conflicts declared for its paper id.

    On ``make_problem(10, 8, num_topics=5, group_size=2, seed=3,
    reviewer_workload=5)``, after ``conflicts.add(r, "visitor")`` for a
    reviewer ``r`` of the inline answer, an inline ``journal_query`` of the
    paper ``visitor`` still returned ``r``, while ``add_paper`` of the same
    paper and ``journal_query("visitor")`` afterwards excluded ``r``.  The
    inline sub-problem is now built through ``WGRAPProblem.to_jra``, like
    every JRA sub-problem of a paper id.
    """

    def test_inline_answer_equals_the_added_paper_answer(self):
        problem = make_problem(10, 8, num_topics=5, group_size=2, seed=3, reviewer_workload=5)
        engine = AssignmentEngine(problem)
        visitor = late_paper(problem, "visitor")
        conflicted = engine.journal_query(visitor).best.reviewer_ids[0]
        problem.conflicts.add(conflicted, "visitor")
        inline = engine.journal_query(visitor, top_k=2)
        assert all(conflicted not in group.reviewer_ids for group in inline.groups)
        engine.add_paper(visitor)
        assert inline.groups == engine.journal_query("visitor", top_k=2).groups


class TestFeasibleInstancesAreNotCalledInfeasible:
    """SDGA raised on instances that have a feasible assignment.

    On the three instances below (``tests.oracles.flow`` staffs each) an
    SDGA stage stranded a paper, and the repair pass raised too: every
    short paper still had a candidate, but no one-reviewer-per-paper
    refill staffed them all at once, and the refill's matching raised.
    The repair now advances one short paper through the swap-or-chain
    deadlock resolver and retries, raising only when no short paper can
    be advanced.
    """

    @pytest.mark.parametrize(
        ("num_papers", "num_reviewers", "seed"), [(4, 8, 6), (4, 10, 57), (12, 8, 17)]
    )
    def test_sdga_completes_and_validates(self, num_papers, num_reviewers, seed):
        problem = make_problem(
            num_papers, num_reviewers, num_topics=5, group_size=4, seed=seed,
            conflict_ratio=0.15,
        )
        assert has_feasible_assignment(problem)
        result = create_solver("cra", "SDGA").solve(problem)
        problem.validate_assignment(result.assignment)
        oracle = reference_solver("cra", "SDGA").solve(problem)
        assert result.assignment == oracle.assignment
        assert result.score == oracle.score


class TestCheckpointReadsFailWithStructuredErrors:
    """A damaged ``checkpoint.json`` crashed its readers with raw errors.

    ``wgrap wal`` died with ``AttributeError: 'list' object has no
    attribute 'get'`` on a checkpoint holding ``[1, 2]``.  On a truncated
    one, both ``wgrap wal`` and ``serve --tcp --wal-dir`` died with a raw
    ``JSONDecodeError``.  Recovery had its own copy of the reader.  Every
    reader now goes through ``read_checkpoint``.  A payload that is not an
    object raises ``UnsupportedFormatError``, like ``repro.data.io``'s
    version check.  Bytes that do not decode raise ``ConfigurationError``
    naming the file.  The replication sender's catch-up reads the file
    too: its loop caught only connection and frame errors, so those
    errors ended the sender task for every tenant.  It now reconnects and
    retries, and ships again once the tenant's next checkpoint replaces
    the damaged file.
    """

    @staticmethod
    def damaged(tmp_path, mangle) -> tuple[DurabilityConfig, object]:
        config = DurabilityConfig(root=tmp_path / "wal")
        journal = TenantJournal(config, "conf")
        journal.initialise(AssignmentEngine(make_problem(6, 5, num_topics=4, group_size=2, seed=2)))
        journal.close()
        path = journal.checkpoint_path
        path.write_bytes(mangle(path.read_bytes()))
        return config, path

    @staticmethod
    def readers(config: DurabilityConfig):
        root = str(config.root)
        return {
            "read_checkpoint": lambda: read_checkpoint(config.root / "conf"),
            "recover": lambda: TenantJournal(config, "conf").recover(),
            "wgrap wal": lambda: main(["wal", root, "--json"]),
            "serve --wal-dir": lambda: AssignmentServer(durability=config).recover_tenants(),
        }

    @pytest.mark.parametrize("payload", [b"[1, 2]", b'"checkpoint"', b"7", b"null"])
    def test_a_payload_that_is_not_an_object(self, payload, tmp_path):
        config, _ = self.damaged(tmp_path, lambda _: payload)
        for name, read in self.readers(config).items():
            with pytest.raises(UnsupportedFormatError) as caught:
                read()
            assert caught.value.found == type(json.loads(payload)).__name__, name

    @pytest.mark.parametrize(
        "mangle",
        [lambda data: data[: len(data) // 2], lambda data: b"", lambda data: b"\xff" + data],
        ids=["truncated", "empty", "not-utf8"],
    )
    def test_bytes_that_do_not_decode(self, mangle, tmp_path):
        config, path = self.damaged(tmp_path, mangle)
        for name, read in self.readers(config).items():
            with pytest.raises(ConfigurationError, match="does not decode") as caught:
                read()
            assert str(path) in str(caught.value), name
            assert not isinstance(caught.value, UnsupportedFormatError), name

    @pytest.mark.parametrize(
        "mangle",
        [lambda data: b"[1, 2]", lambda data: data[: len(data) // 2]],
        ids=["not-an-object", "truncated"],
    )
    def test_the_replication_sender_retries_until_the_next_checkpoint(
        self, mangle, tmp_path
    ):
        resyncs = get_registry().counter("replication.resyncs", "")
        standby = ServerHarness(
            durability=DurabilityConfig(root=tmp_path / "wal-s"), standby=True
        ).start()
        problem = make_problem(6, 5, num_topics=4, group_size=2, seed=2)
        primary = ServerHarness(
            durability=DurabilityConfig(root=tmp_path / "wal-p", checkpoint_every=2),
            replicate_to=("127.0.0.1", standby.port),
        )
        primary.add_tenant("conf", AssignmentEngine(problem), default=True)
        primary.start()

        def caught_up() -> bool:
            status = primary.call({"kind": "replication_status"})
            return bool(status["payload"]["replication"]["caught_up"])

        try:
            wait_until(caught_up)
            path = primary.server.tenants.get("conf").journal.checkpoint_path
            path.write_bytes(mangle(path.read_bytes()))
            before = resyncs.value
            primary.server.replication.request_resync("conf")
            wait_until(lambda: resyncs.value >= before + 2)  # failed, then retried
            for tag in ("late-1", "late-2"):  # checkpoint_every=2: a new checkpoint
                paper = late_paper(problem, tag)
                response = primary.call({
                    "kind": "add_paper",
                    "paper": {"id": paper.id, "vector": paper.vector.to_list()},
                })
                assert response["ok"], response
            wait_until(caught_up)
            replica = standby.server.standby.replicas["conf"]
            assert replica.engine.problem.paper_ids[-2:] == ("late-1", "late-2")
        finally:
            standby.stop()
            primary.stop()


class TestTheCliPrintsLibraryErrors:
    """The command line printed a traceback for a library error.

    ``repro.cli.main`` had no handler for ``ReproError``.  ``wgrap wal``
    over a damaged ``checkpoint.json`` (and ``serve --tcp --wal-dir`` at
    start-up) printed a Python traceback ending in the structured error
    and exited 1, while a missing WAL root printed an ``error:`` line and
    exited 2.  The console entry point ``repro.cli.run`` now turns a
    ``ReproError`` into ``error: <message>`` and exit code 2; ``main``
    still raises it.
    """

    SRC = Path(__file__).resolve().parents[2] / "src"

    DAMAGES = pytest.mark.parametrize(
        "mangle, names_the_file",
        [(lambda data: b"[1, 2]", False), (lambda data: data[: len(data) // 2], True)],
        ids=["not-an-object", "truncated"],
    )

    @classmethod
    def cli(cls, *argv: str) -> subprocess.CompletedProcess:
        """``python -m repro.cli *argv`` in a fresh process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(cls.SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            env=env,
            text=True,
            timeout=120,
        )

    @DAMAGES
    def test_wgrap_wal_over_a_damaged_checkpoint(self, mangle, names_the_file, tmp_path):
        config, path = TestCheckpointReadsFailWithStructuredErrors.damaged(tmp_path, mangle)
        completed = self.cli("wal", str(config.root))
        assert completed.returncode == 2, completed.stderr
        assert completed.stderr.startswith("error:"), completed.stderr
        assert "Traceback" not in completed.stderr
        if names_the_file:
            assert str(path) in completed.stderr

    @DAMAGES
    def test_durable_serve_over_a_damaged_checkpoint(self, mangle, names_the_file, tmp_path):
        # Recovery reads the checkpoint before the server listens, so the
        # process ends at start-up; a server that started would run into
        # the timeout instead.
        config, path = TestCheckpointReadsFailWithStructuredErrors.damaged(tmp_path, mangle)
        completed = self.cli("serve", "--tcp", "--port", "0", "--wal-dir", str(config.root))
        assert completed.returncode == 2, completed.stderr
        assert completed.stderr.startswith("error:"), completed.stderr
        assert "Traceback" not in completed.stderr
        assert '"event"' not in completed.stdout
        if names_the_file:
            assert str(path) in completed.stderr

    def test_wgrap_wal_over_a_healthy_root(self, tmp_path, capsys):
        config, _ = TestCheckpointReadsFailWithStructuredErrors.damaged(tmp_path, lambda data: data)
        for argv in (["wal", str(config.root)], ["wal", str(config.root), "--json"]):
            assert main(argv) == 0
            completed = self.cli(*argv)
            assert completed.returncode == 0, completed.stderr
            assert (completed.stdout, completed.stderr) == (capsys.readouterr().out, "")


class TestACheckpointShortOfCapacityRecovers:
    """Recovery refused a checkpoint that its own engine had written.

    Before the first solve, ``add_paper`` and ``withdraw_reviewer`` staff
    nothing, so they succeed even when the reviewers can no longer absorb
    every paper: a derived problem skips the constructor's capacity check,
    as ``cold_clone`` does.  The checkpoint's snapshot then held a problem
    that ``problem_from_dict`` refused with ``InfeasibleProblemError``.
    ``recover``, and so ``serve --tcp --wal-dir`` at start-up, failed for a
    tenant that had answered every request.  The engine state machine's
    checkpoint rule found it.  An engine snapshot now restores its problem
    as it was written; a problem file is still checked.
    """

    @staticmethod
    def short_engine(mutation: str) -> AssignmentEngine:
        problem = make_problem(4, 4, num_topics=3, group_size=1, reviewer_workload=1, seed=0)
        engine = AssignmentEngine(problem)
        if mutation == "add_paper":
            engine.add_paper(late_paper(problem, "late"))
        else:
            engine.withdraw_reviewer(problem.reviewer_ids[0])
        return engine

    @pytest.mark.parametrize("mutation", ["add_paper", "withdraw_reviewer"])
    def test_recovery_rebuilds_the_engine_it_checkpointed(self, mutation, tmp_path):
        engine = self.short_engine(mutation)
        config = DurabilityConfig(root=tmp_path)
        journal = TenantJournal(config, "conf")
        journal.initialise(engine)
        journal.close()
        recovered = TenantJournal(config, "conf").recover().engine
        assert json.dumps(recovered.to_snapshot()) == json.dumps(engine.to_snapshot())

    def test_a_problem_file_is_still_checked(self):
        payload = problem_to_dict(self.short_engine("add_paper").problem)
        with pytest.raises(InfeasibleProblemError, match="insufficient review capacity"):
            problem_from_dict(payload)


class TestTheIlpProvesOnlyTheOptimum:
    """The ILP flagged a group below the optimum as proven optimal.

    On HiGHS's defaults ``ILPSolver`` returned 0.0013833577, flagged
    optimal, for the first instance below, where BBA finds 0.0013842635:
    HiGHS ends a search within 1e-6 (absolute) of its bound and prunes by
    its 1e-6 MIP feasibility tolerance, and these papers' best groups lie
    closer than that.  The solve now asks for a zero absolute gap and a
    1e-9 tolerance, and turns presolve off.  Each of the other three
    instances is flagged optimal below the optimum (by 3.5e-7, 4.0e-9 and
    1.4e-8) when exactly one of those three settings is left out.
    """

    @pytest.mark.parametrize(
        "reviewers, topics, group_size, workload, seed, scoring, paper_id",
        [
            (9, 7, 2, 3, 21, "paper_coverage", "paper-0001"),
            (26, 20, 3, 4, 10, "paper_coverage", "paper-0001"),
            (15, 7, 3, 3, 15, "dot_product", "paper-0000"),
            (11, 5, 3, 3, 58, "dot_product", "paper-0001"),
        ],
        ids=["defaults", "absolute-gap", "presolve", "feasibility-tolerance"],
    )
    def test_a_proven_group_is_the_optimum(
        self, reviewers, topics, group_size, workload, seed, scoring, paper_id
    ):
        problem = make_problem(
            num_papers=3,
            num_reviewers=reviewers,
            num_topics=topics,
            group_size=group_size,
            reviewer_workload=workload,
            seed=seed,
            scoring=scoring,
        ).to_jra(paper_id)
        ilp = ILPSolver().solve(problem)
        assert ilp.is_optimal
        assert ilp.score == pytest.approx(BranchAndBoundSolver().solve(problem).score, abs=1e-9)
