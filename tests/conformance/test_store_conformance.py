"""Storage-layer conformance: every backend is bitwise-equal to RAM.

The pluggable problem store (:mod:`repro.store`) must be *invisible* to
results.  This file pins that across the shared grid:

* **store round-trip == cold oracle, bitwise** — solving a problem that
  went through a SQLite store (create, close, reopen from disk, load)
  must produce the identical assignment and score as solving the cold
  in-RAM instance, for every fast CRA solver on the grid and every
  exponential solver on TINY.
* **mutation chains == in-RAM oracle, bitwise** — a store attached to a
  live mutation chain (adds, withdrawals, conflict edits) maintains its
  rows by incremental index deltas; the problem reloaded from disk after
  the chain must solve bitwise-equal to the chain's in-RAM result —
  including when the store is **closed and reopened mid-chain**.
* **memmap-backed engine == RAM engine, bitwise** — an engine whose
  score matrix lives in memmap blocks answers an interleaved request
  stream (solve / add / bids / journal / withdraw / evaluate) with
  responses identical to the in-RAM engine's.
"""

from __future__ import annotations

import contextlib
import sqlite3

import numpy as np
import pytest

from repro.core.entities import Paper
from repro.data.synthetic import make_problem
from repro.service.engine import AssignmentEngine
from repro.service.registry import available_solver_specs, create_solver
from repro.store import SqliteProblemStore
from tests.conformance import (
    CHAINS,
    GRID,
    TINY,
    apply_chain,
    cold_clone,
    late_paper,
    make_instance,
)

CRA_SPECS = available_solver_specs("cra")
FAST_CRA = [spec for spec in CRA_SPECS if "exponential" not in spec.tags]
EXPONENTIAL_CRA = [spec for spec in CRA_SPECS if "exponential" in spec.tags]
MUTATION_CHAINS = sorted(name for name in CHAINS if CHAINS[name] is not None)


def _ids(specs):
    return [spec.name for spec in specs]


def _store_round_trip(problem, path):
    """Compile ``problem`` into a store, then reload it from disk cold."""
    SqliteProblemStore.create(path, problem).close()
    store = SqliteProblemStore.open(path)
    reloaded = store.load_problem()
    store.close()
    return reloaded


class TestStoreRoundTripSolves:
    """SQLite round-trip == cold in-RAM oracle, bitwise, whole registry."""

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    @pytest.mark.parametrize("spec", FAST_CRA, ids=_ids(FAST_CRA))
    def test_fast_cra_grid(self, spec, instance_id, tmp_path):
        problem = make_instance(GRID[instance_id])
        reloaded = _store_round_trip(problem, tmp_path / "grid.db")
        stored = create_solver("cra", spec.name).solve(reloaded)
        oracle = create_solver("cra", spec.name).solve(cold_clone(problem))
        assert stored.assignment == oracle.assignment, (
            f"{spec.name} diverged through the store on {instance_id!r}"
        )
        assert stored.score == oracle.score  # bitwise, not approx

    @pytest.mark.parametrize("spec", EXPONENTIAL_CRA, ids=_ids(EXPONENTIAL_CRA))
    def test_exponential_cra_tiny(self, spec, tmp_path):
        problem = make_instance(TINY)
        reloaded = _store_round_trip(problem, tmp_path / "tiny.db")
        stored = create_solver("cra", spec.name).solve(reloaded)
        oracle = create_solver("cra", spec.name).solve(cold_clone(problem))
        assert stored.assignment == oracle.assignment
        assert stored.score == oracle.score

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_loaded_matrices_are_bitwise(self, instance_id, tmp_path):
        problem = make_instance(GRID[instance_id])
        reloaded = _store_round_trip(problem, tmp_path / "m.db")
        assert np.array_equal(
            np.asarray(problem.reviewer_matrix), np.asarray(reloaded.reviewer_matrix)
        )
        assert np.array_equal(
            np.asarray(problem.paper_matrix), np.asarray(reloaded.paper_matrix)
        )
        assert sorted(problem.conflicts) == sorted(reloaded.conflicts)


class TestMutationChains:
    """A store following a live chain == the in-RAM chain, bitwise."""

    @pytest.mark.parametrize("chain_id", MUTATION_CHAINS)
    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_chain_reload_equals_oracle(self, instance_id, chain_id, tmp_path):
        spec = GRID[instance_id]
        oracle_tip = apply_chain(make_instance(spec), chain_id)
        oracle = create_solver("cra", "Greedy").solve(cold_clone(oracle_tip))

        base = make_instance(spec)
        store = SqliteProblemStore.create(tmp_path / "chain.db", base)
        apply_chain(base, chain_id)  # the attached store follows the chain
        store.close()

        reopened = SqliteProblemStore.open(tmp_path / "chain.db")
        try:
            stored = create_solver("cra", "Greedy").solve(reopened.load_problem())
            assert stored.assignment == oracle.assignment, (
                f"chain {chain_id!r} diverged through the store on {instance_id!r}"
            )
            assert stored.score == oracle.score
            assert reopened.stats.rebuilds == 0  # deltas, never a rebuild
        finally:
            reopened.close()

    def test_conflict_edit_through_an_older_member_reaches_the_rows(self, tmp_path):
        """The chain shares one conflict set: an edit made through any member
        is replayed into the rows at the next sync, with no rebuild."""
        path = tmp_path / "older.db"
        base = make_instance(GRID["compact"])
        store = SqliteProblemStore.create(path, base)
        late = base.with_additional_paper(late_paper(base, "older-a"))
        tip = late.without_reviewer(late.reviewer_ids[-1])
        dropped = sorted(base.conflicts)[0]
        base.conflicts.add(base.reviewer_ids[0], "older-a")
        late.conflicts.discard(*dropped)
        store.sync()
        try:
            with contextlib.closing(sqlite3.connect(path)) as conn:
                rows = conn.execute("SELECT reviewer_id, paper_id FROM conflicts").fetchall()
            assert sorted(rows) == sorted(tip.conflicts)
            assert (base.reviewer_ids[0], "older-a") in rows
            assert dropped not in rows
            assert store.stats.rebuilds == 0
            assert store.stats.conflict_deltas == 2
        finally:
            store.close()

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_close_and_reopen_mid_chain(self, instance_id, tmp_path):
        """The chain survives a full close-and-reopen-from-disk mid-way."""
        spec = GRID[instance_id]
        path = tmp_path / "midchain.db"

        # In-RAM oracle: the whole chain on one resident problem.
        oracle_base = make_instance(spec)
        cur = oracle_base.with_additional_paper(late_paper(oracle_base, "mid-a"))
        cur.conflicts.add(cur.reviewer_ids[0], "mid-a")
        cur = cur.with_additional_paper(late_paper(cur, "mid-b"))
        oracle = create_solver("cra", "Greedy").solve(cold_clone(cur))

        # Store path: first half, close, reopen from disk, second half.
        base = make_instance(spec)
        store = SqliteProblemStore.create(path, base)
        half = base.with_additional_paper(late_paper(base, "mid-a"))
        half.conflicts.add(half.reviewer_ids[0], "mid-a")
        store.close()

        store = SqliteProblemStore.open(path)
        resumed = store.load_problem()
        store.attach(resumed)
        resumed.with_additional_paper(late_paper(resumed, "mid-b"))
        store.close()

        final = SqliteProblemStore.open(path)
        try:
            stored = create_solver("cra", "Greedy").solve(final.load_problem())
        finally:
            final.close()
        assert stored.assignment == oracle.assignment
        assert stored.score == oracle.score

    def test_workload_override_survives_reopen(self, tmp_path):
        """An ``add_paper`` that raises ``reviewer_workload`` must persist
        the raised constraint — otherwise the reopened problem is
        infeasible where the live chain was not (regression)."""
        from repro.service.engine import AssignmentEngine

        path = tmp_path / "workload.db"
        base = make_instance(GRID["compact"])
        raised = base.reviewer_workload + 1
        store = SqliteProblemStore.create(path, base)
        engine = AssignmentEngine.from_store(store)
        live = engine.add_paper(
            late_paper(engine.problem, "over-capacity"),
            reviewer_workload=raised,
        )
        assert live is not None
        live_solve = engine.solve("Greedy")
        store.close()

        reopened = SqliteProblemStore.open(path)
        try:
            problem = reopened.load_problem()
            assert problem.reviewer_workload == raised
            stored = create_solver("cra", "Greedy").solve(problem)
        finally:
            reopened.close()
        assert stored.assignment == live_solve.assignment
        assert stored.score == live_solve.score


class TestMemmapEngineParity:
    """Engine on memmap blocks == engine in RAM across a request stream."""

    def _problem(self):
        return make_problem(10, 16, num_topics=8, reviewer_workload=6, seed=7)

    def _drive(self, engine):
        responses = []
        result = engine.solve("Greedy")
        responses.append((result.assignment, result.score))
        engine.update_bids(
            [
                (engine.problem.reviewer_ids[0], engine.problem.paper_ids[0], 1.0),
                (engine.problem.reviewer_ids[1], engine.problem.paper_ids[1], 0.25),
            ]
        )
        engine.add_paper(late_paper(engine.problem, "stream-a"))
        result = engine.solve("Greedy")
        responses.append((result.assignment, result.score))
        answer = engine.journal_query(engine.problem.paper_ids[0], top_k=2)
        responses.append((answer.best.reviewer_ids, answer.best.score))
        engine.withdraw_reviewer(engine.problem.reviewer_ids[-1])
        result = engine.solve("Greedy")
        responses.append((result.assignment, result.score))
        responses.append(engine.evaluate())
        return responses

    def test_interleaved_stream_bitwise(self, tmp_path):
        ram = AssignmentEngine(self._problem())
        store = SqliteProblemStore.create(
            tmp_path / "blocks.db", self._problem(), blocks=True, block_cols=4
        )
        blocked = AssignmentEngine.from_store(store)
        try:
            assert blocked.store is store
            assert store.matrix_backend() is not None
            assert self._drive(blocked) == self._drive(ram)
            description = store.matrix_backend().describe()
            assert description["appends"] >= 1
            assert description["drops"] >= 1
        finally:
            store.close()

    def test_reopen_between_requests(self, tmp_path):
        path = tmp_path / "resume.db"
        ram = AssignmentEngine(self._problem())
        ram.solve("Greedy")
        ram.add_paper(late_paper(ram.problem, "resume-a"))
        oracle = ram.solve("Greedy")

        store = SqliteProblemStore.create(path, self._problem(), blocks=True)
        engine = AssignmentEngine.from_store(store)
        engine.solve("Greedy")
        engine.add_paper(late_paper(engine.problem, "resume-a"))
        engine.sync_store()
        store.close()

        resumed = AssignmentEngine.from_store(SqliteProblemStore.open(path))
        try:
            result = resumed.solve("Greedy")
            assert result.assignment == oracle.assignment
            assert result.score == oracle.score
        finally:
            resumed.store.close()


class TestStoreFileWithTheDroppedTopicIndex:
    """A store file written with the old inverted topic index still serves.

    The schema used to keep a ``reviewer_topics`` table and two indexes
    that nothing read.  They were dropped with ``SCHEMA_VERSION`` kept at
    1 and no migration, so a file written before still holds them.
    Reopened, it must answer a mutation chain bitwise like the in-RAM
    engine, and the old table is left as it was.
    """

    OLD_DDL = (
        "CREATE TABLE reviewer_topics(reviewer_pos INTEGER NOT NULL, "
        "topic INTEGER NOT NULL, weight REAL NOT NULL)",
        "CREATE INDEX topic_index ON reviewer_topics(topic, weight DESC, reviewer_pos)",
        "CREATE INDEX reviewer_topics_by_reviewer ON reviewer_topics(reviewer_pos)",
    )

    def test_reopened_old_file_matches_the_ram_engine(self, tmp_path):
        path = tmp_path / "old.db"
        parity = TestMemmapEngineParity()
        problem = parity._problem()
        SqliteProblemStore.create(path, problem).close()
        rows, topics = np.nonzero(np.asarray(problem.reviewer_matrix))
        postings = [
            (int(row), int(topic), float(problem.reviewer_matrix[row, topic]))
            for row, topic in zip(rows, topics)
        ]
        with contextlib.closing(sqlite3.connect(path)) as conn:
            for statement in self.OLD_DDL:
                conn.execute(statement)
            conn.executemany("INSERT INTO reviewer_topics VALUES (?, ?, ?)", postings)
            conn.commit()

        store = SqliteProblemStore.open(path)
        try:
            engine = AssignmentEngine.from_store(store)
            assert parity._drive(engine) == parity._drive(AssignmentEngine(parity._problem()))
            assert "indexes" not in store.describe()
        finally:
            store.close()
        with contextlib.closing(sqlite3.connect(path)) as conn:
            names = {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
            kept = conn.execute("SELECT COUNT(*) FROM reviewer_topics").fetchone()[0]
        assert {"reviewer_topics", "topic_index", "reviewer_topics_by_reviewer"} <= names
        assert kept == len(postings)


class TestStoreFileWithTheDroppedConflictIndex:
    """A store file written with the old ``conflicts_by_paper`` index still serves.

    The index backed a candidate query that nothing in the program reached;
    it was dropped with ``SCHEMA_VERSION`` kept at 1, so a file written
    before still holds it.  SQLite keeps it current under the row deltas,
    and the reopened file answers like the in-RAM engine.
    """

    def test_reopened_old_file_matches_the_ram_engine(self, tmp_path):
        path = tmp_path / "old.db"
        parity = TestMemmapEngineParity()
        SqliteProblemStore.create(path, parity._problem()).close()
        with contextlib.closing(sqlite3.connect(path)) as conn:
            conn.execute("CREATE INDEX conflicts_by_paper ON conflicts(paper_id, reviewer_id)")
            conn.commit()

        store = SqliteProblemStore.open(path)
        try:
            engine = AssignmentEngine.from_store(store)
            assert parity._drive(engine) == parity._drive(AssignmentEngine(parity._problem()))
        finally:
            store.close()
        with contextlib.closing(sqlite3.connect(path)) as conn:
            assert conn.execute("PRAGMA integrity_check").fetchone() == ("ok",)
            names = {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
        assert "conflicts_by_paper" in names


class TestPaperWorthyInstance(object):
    """One store-backed solve at paper scale (small here, same code path)."""

    def test_store_backed_solve_validates(self, tmp_path):
        problem = make_problem(18, 24, num_topics=12, reviewer_workload=5, seed=11)
        store = SqliteProblemStore.create(
            tmp_path / "paper.db", problem, blocks=True, block_cols=8
        )
        engine = AssignmentEngine.from_store(store)
        try:
            result = engine.solve("Greedy")
            cold_clone(problem).validate_assignment(result.assignment)
            summary = store.describe()
            assert summary["reviewer_rows"] == 24
            assert summary["paper_rows"] == 18
        finally:
            store.close()
