"""Unit tests for :mod:`repro.durability` — WAL codec, segments,
checkpointing, recovery, and the atomic-write crash contract.

The network-level crash/recovery behaviour lives in
``tests/test_net_durability.py``; the end-to-end bitwise conformance
regime in ``tests/conformance/test_recovery_conformance.py``.  This
module pins the building blocks: a WAL record survives its codec
bitwise, a torn tail of *any* length recovers to the last complete
record without raising (property-tested with Hypothesis), rotation
keeps exactly one segment, and a crash injected between the atomic
write's fsync and its rename leaves the old file intact.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import atomic_write_text
from repro.durability import (
    CHECKPOINT_VERSION,
    DurabilityConfig,
    FSYNC_POLICIES,
    TenantJournal,
    WalRecord,
    WriteAheadLog,
    decode_line,
    encode_record,
    read_wal,
    segment_paths,
)
from repro.exceptions import ConfigurationError
from repro.fault import FaultInjected, get_failpoints
from repro.obs.metrics import get_registry
from repro.data.synthetic import make_problem
from repro.service.engine import AssignmentEngine
from repro.core.entities import Paper
from repro.core.vectors import TopicVector
from tests.conformance import late_paper
from repro.service.requests import (
    MUTATION_KINDS,
    AddPaper,
    PortfolioSolve,
    SolveRequest,
    UpdateBids,
    WithdrawReviewer,
    request_from_dict,
)
from repro.service.session import EngineSession

from tests.net_utils import strip_volatile


@pytest.fixture(autouse=True)
def _clean_failpoints():
    get_failpoints().reset()
    yield
    get_failpoints().reset()


def small_engine() -> AssignmentEngine:
    problem = make_problem(
        num_papers=8, num_reviewers=8, num_topics=6, group_size=2,
        reviewer_workload=5, conflict_ratio=0.0, seed=11,
    )
    return AssignmentEngine(problem)


def record(seq: int, *, cseq: int | None = None) -> WalRecord:
    return WalRecord(
        seq=seq,
        kind="update_bids",
        request={"kind": "update_bids", "bids": [["r", "p", 0.5]], "seq": cseq},
        client_seq=cseq,
    )


class TestWalCodec:
    def test_round_trip_is_exact(self):
        original = record(7, cseq=3)
        decoded = decode_line(encode_record(original))
        assert decoded == original

    def test_missing_newline_is_incomplete(self):
        line = encode_record(record(1))
        assert decode_line(line[:-1]) is None

    @pytest.mark.parametrize("mangle", [
        lambda line: line[: len(line) // 2] + b"\n",          # torn mid-record
        lambda line: line.replace(b'"seq"', b'"sqe"', 1),      # CRC mismatch
        lambda line: b"not json at all\n",
        lambda line: b"[1, 2, 3]\n",                           # non-object
        lambda line: b"\xff\xfe garbage \n",                   # invalid UTF-8
    ])
    def test_corruption_yields_none_never_raises(self, mangle):
        assert decode_line(mangle(encode_record(record(1)))) is None

    def test_wrong_version_is_rejected(self):
        body = record(1).to_body()
        body["v"] = 999
        import zlib
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        body["crc"] = zlib.crc32(canonical.encode("utf-8"))
        line = (json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n").encode()
        assert decode_line(line) is None


class TestWriteAheadLog:
    def test_append_and_read_back(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open_segment(1)
        for seq in (1, 2, 3):
            wal.append(record(seq))
        wal.sync()
        wal.close()
        result = read_wal(tmp_path)
        assert [r.seq for r in result.records] == [1, 2, 3]
        assert result.dropped_bytes == 0
        assert result.segments == 1

    def test_unknown_fsync_policy_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_always_policy_fsyncs_per_record(self, tmp_path):
        counter = get_registry().counter("durability.wal.fsyncs", "")
        before = counter.value
        wal = WriteAheadLog(tmp_path, fsync="always")
        wal.open_segment(1)
        wal.append(record(1))
        wal.append(record(2))
        wal.close()
        assert counter.value - before == 2

    def test_rotation_deletes_old_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open_segment(1)
        wal.append(record(1))
        wal.rotate(2)
        wal.append(record(2))
        wal.close()
        assert [p.name for p in segment_paths(tmp_path)] == ["wal-000000000002.jsonl"]
        assert [r.seq for r in read_wal(tmp_path).records] == [2]

    def test_non_ascending_seq_breaks_the_scan(self, tmp_path):
        data = encode_record(record(5)) + encode_record(record(5))
        (tmp_path / "wal-000000000005.jsonl").write_bytes(data)
        result = read_wal(tmp_path)
        assert [r.seq for r in result.records] == [5]
        assert result.dropped_bytes == len(encode_record(record(5)))

    def test_torn_first_segment_drops_later_segments_entirely(self, tmp_path):
        (tmp_path / "wal-000000000001.jsonl").write_bytes(
            encode_record(record(1)) + b'{"torn": '
        )
        later = encode_record(record(2))
        (tmp_path / "wal-000000000002.jsonl").write_bytes(later)
        result = read_wal(tmp_path)
        assert [r.seq for r in result.records] == [1]
        assert result.dropped_bytes == len(b'{"torn": ') + len(later)
        assert result.segments == 2


class TestArbitraryTruncation:
    """Satellite: a WAL cut anywhere recovers cleanly, never raises."""

    LINES = [encode_record(record(seq, cseq=seq)) for seq in range(1, 7)]
    BLOB = b"".join(LINES)

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=len(BLOB)))
    def test_any_cut_recovers_to_the_last_complete_record(self, cut, tmp_path_factory):
        directory = tmp_path_factory.mktemp("torn")
        (directory / "wal-000000000001.jsonl").write_bytes(self.BLOB[:cut])
        result = read_wal(directory)  # must not raise, whatever the cut
        consumed = 0
        expected = []
        for seq, line in enumerate(self.LINES, start=1):
            if consumed + len(line) > cut:
                break
            consumed += len(line)
            expected.append(seq)
        assert [r.seq for r in result.records] == expected
        assert result.dropped_bytes == cut - consumed


class TestDurabilityConfig:
    def test_rejects_unknown_policy_and_bad_intervals(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DurabilityConfig(root=tmp_path, fsync="sometimes")
        with pytest.raises(ConfigurationError):
            DurabilityConfig(root=tmp_path, checkpoint_every=0)
        with pytest.raises(ConfigurationError):
            DurabilityConfig(root=tmp_path, applied_limit=0)

    def test_policy_vocabulary_is_closed(self):
        assert set(FSYNC_POLICIES) == {"never", "batch", "always"}


class TestTenantJournal:
    def churn(self, journal: TenantJournal, session: EngineSession, engine):
        """Apply a deterministic mutation stream through the journal."""
        problem = engine.problem
        payloads = [
            {"kind": "solve", "solver": "Greedy", "seq": 1},
            {
                "kind": "update_bids", "seq": 2,
                "bids": [[problem.reviewer_ids[0], problem.paper_ids[0], 1.0]],
            },
            {"kind": "withdraw_reviewer", "reviewer_id": problem.reviewer_ids[-1], "seq": 3},
            {"kind": "solve", "solver": "Greedy", "seq": 4},
        ]
        responses = []
        for seq, payload in enumerate(payloads, start=1):
            request = request_from_dict(payload)
            journal.append(seq, request)
            response = session.dispatch(request)
            assert response.ok, response.error
            if request.client_seq is not None:
                journal.record_applied(request.client_seq, response)
            responses.append(response)
        journal.sync_batch()
        return responses

    def test_crash_recovery_is_bitwise(self, tmp_path):
        config = DurabilityConfig(root=tmp_path)
        journal = TenantJournal(config, "conf")
        engine = small_engine()
        journal.initialise(engine)
        session = EngineSession(engine)
        self.churn(journal, session, engine)
        journal.abort()  # crash: no checkpoint, WAL tail only

        recovered = TenantJournal(config, "conf").recover()
        assert json.dumps(recovered.engine.to_snapshot(), sort_keys=True) == (
            json.dumps(engine.to_snapshot(), sort_keys=True)
        )
        assert recovered.engine.revision == engine.revision
        stats = recovered.stats
        assert stats.replayed_records == 4
        assert stats.checkpoint_seq == 0
        assert stats.last_seq == 4
        assert stats.dropped_bytes == 0
        assert sorted(recovered.replayed) == [1, 2, 3, 4]
        assert recovered.next_seq == 5

    def test_recovery_rebuilds_the_applied_map(self, tmp_path):
        config = DurabilityConfig(root=tmp_path)
        journal = TenantJournal(config, "conf")
        engine = small_engine()
        journal.initialise(engine)
        responses = self.churn(journal, EngineSession(engine), engine)
        journal.abort()

        fresh = TenantJournal(config, "conf")
        outcome = fresh.recover()
        assert sorted(fresh.applied) == [1, 2, 3, 4]
        for cseq, original in zip((1, 2, 3, 4), responses):
            # Replay recomputes, so wall-clock fields differ; the semantic
            # content must be identical.
            assert strip_volatile(fresh.applied[cseq].to_dict()) == (
                strip_volatile(original.to_dict())
            )
        assert outcome.stats.restored_applied == 0  # all came from replay

    def test_checkpoint_collapses_the_wal(self, tmp_path):
        config = DurabilityConfig(root=tmp_path)
        journal = TenantJournal(config, "conf")
        engine = small_engine()
        journal.initialise(engine)
        self.churn(journal, EngineSession(engine), engine)
        journal.checkpoint(engine)
        assert read_wal(journal.directory).records == ()
        journal.close()

        outcome = TenantJournal(config, "conf").recover()
        assert outcome.stats.replayed_records == 0
        assert outcome.stats.checkpoint_seq == 4
        assert json.dumps(outcome.engine.to_snapshot(), sort_keys=True) == (
            json.dumps(engine.to_snapshot(), sort_keys=True)
        )

    def test_recovery_reports_and_survives_a_torn_tail(self, tmp_path):
        config = DurabilityConfig(root=tmp_path)
        journal = TenantJournal(config, "conf")
        engine = small_engine()
        journal.initialise(engine)
        self.churn(journal, EngineSession(engine), engine)
        journal.abort()
        segment = segment_paths(journal.directory)[-1]
        segment.write_bytes(segment.read_bytes() + b'{"half-a-record": ')

        outcome = TenantJournal(config, "conf").recover()
        assert outcome.stats.replayed_records == 4
        assert outcome.stats.dropped_bytes == len(b'{"half-a-record": ')

    def test_should_checkpoint_counts_appends(self, tmp_path):
        config = DurabilityConfig(root=tmp_path, checkpoint_every=2)
        journal = TenantJournal(config, "conf")
        engine = small_engine()
        journal.initialise(engine)
        request = request_from_dict({"kind": "solve", "solver": "Greedy"})
        journal.append(1, request)
        assert not journal.should_checkpoint
        journal.append(2, request)
        assert journal.should_checkpoint
        journal.checkpoint(engine)
        assert not journal.should_checkpoint
        journal.close()

    def test_applied_map_is_bounded_fifo(self, tmp_path):
        config = DurabilityConfig(root=tmp_path, applied_limit=3)
        journal = TenantJournal(config, "conf")
        from repro.service.requests import Response

        evicted = get_registry().counter("durability.applied_evicted", "")
        before = evicted.value
        for cseq in range(1, 6):
            journal.record_applied(cseq, Response(kind="solve", ok=True))
        assert sorted(journal.applied) == [3, 4, 5]
        assert evicted.value - before == 2

    def test_bad_tenant_ids_are_refused(self, tmp_path):
        config = DurabilityConfig(root=tmp_path)
        for bad in ("", "a/b", ".", ".."):
            with pytest.raises(ConfigurationError):
                TenantJournal(config, bad)

    def test_initialise_twice_and_recover_nothing_raise(self, tmp_path):
        config = DurabilityConfig(root=tmp_path)
        journal = TenantJournal(config, "conf")
        engine = small_engine()
        journal.initialise(engine)
        journal.close()
        with pytest.raises(ConfigurationError):
            TenantJournal(config, "conf").initialise(engine)
        with pytest.raises(ConfigurationError):
            TenantJournal(config, "virgin").recover()


class TestAssembledCheckpoint:
    """``checkpoint.json`` is assembled from the texts the journal keeps.

    Each reviewer and paper is encoded once, and its text is reused while
    the entity is the same object.  After every checkpoint the file must
    equal ``json.dumps`` of the dict body, recover to the live snapshot and
    applied map, and leave the journal holding texts for exactly the
    current reviewers and papers.
    """

    @staticmethod
    def expected(journal: TenantJournal, engine: AssignmentEngine) -> str:
        return json.dumps({
            "format_version": CHECKPOINT_VERSION,
            "tenant": journal.tenant_id,
            "last_seq": journal.last_seq,
            "applied": [
                [key, response.to_dict()] for key, response in journal.applied.items()
            ],
            "snapshot": engine.to_snapshot(),
        })

    def check(self, journal: TenantJournal, engine: AssignmentEngine, probe) -> str:
        text = journal.checkpoint_path.read_text(encoding="utf-8")
        assert text == self.expected(journal, engine)

        # Recover a copy: recovery writes a checkpoint of its own.
        copy = probe / str(len(list(probe.iterdir())) if probe.exists() else 0)
        (copy / journal.tenant_id).mkdir(parents=True)
        (copy / journal.tenant_id / "checkpoint.json").write_text(text, encoding="utf-8")
        recovered_journal = TenantJournal(DurabilityConfig(root=copy), journal.tenant_id)
        recovered = recovered_journal.recover().engine
        assert json.dumps(recovered.to_snapshot()) == json.dumps(engine.to_snapshot())
        assert [
            [key, response.to_dict()] for key, response in recovered_journal.applied.items()
        ] == [[key, response.to_dict()] for key, response in journal.applied.items()]
        recovered_journal.close()

        pieces = journal.pieces
        problem = engine.problem
        assert list(pieces) == ["reviewers", "papers"]
        for section, entities in (("reviewers", problem.reviewers), ("papers", problem.papers)):
            assert list(pieces[section]) == [entity.id for entity in entities]
            assert all(pieces[section][entity.id][0] is entity for entity in entities)
        return text

    def test_every_checkpoint_is_the_dumped_body(self, tmp_path):
        config = DurabilityConfig(root=tmp_path / "wal", applied_limit=3)
        probe = tmp_path / "probe"
        journal = TenantJournal(config, "conf")
        engine = small_engine()
        session = EngineSession(engine)
        journal.initialise(engine)
        self.check(journal, engine, probe)
        seqs = iter(range(1, 1000))

        def serve(payload: dict) -> None:
            """The tenant worker's order: append, dispatch, record."""
            request = request_from_dict(payload)
            journal.append(next(seqs), request)
            response = session.dispatch(request)
            assert response.ok, response.error
            if request.client_seq is not None:
                journal.record_applied(request.client_seq, response)

        def checkpoint() -> str:
            journal.sync_batch()
            journal.checkpoint(engine)
            return self.check(journal, engine, probe)

        def add_paper(tag: str) -> None:
            paper = late_paper(engine.problem, tag)
            serve({"kind": "add_paper", "paper": {"id": paper.id, "vector": paper.vector.to_list()}})

        r = engine.problem.reviewer_ids
        p = engine.problem.paper_ids
        serve({"kind": "solve", "solver": "Greedy", "seq": 1})
        serve({"kind": "update_bids", "bids": [[r[0], p[0], 0.0], [r[1], p[1], 0.5]], "seq": 2})
        add_paper("late-1")
        assert json.dumps([r[0], p[0], 0.0]) in checkpoint()

        # Conflict edits through an older chain member reach the live problem.
        older = engine.problem
        add_paper("late-2")
        free = next(rid for rid in r if rid not in engine.assignment.reviewers_of(p[3]))
        older.conflicts.add(free, p[3])
        assert json.dumps([free, p[3]]) in checkpoint()
        older.conflicts.discard(free, p[3])
        assert json.dumps([free, p[3]]) not in checkpoint()

        serve({"kind": "withdraw_reviewer", "reviewer_id": r[-1], "seq": 3})
        checkpoint()
        assert r[-1] not in journal.pieces["reviewers"]

        # An equal bid overwrites, and -0.0 is written as such.
        serve({"kind": "update_bids", "bids": [[r[0], p[0], -0.0]], "seq": 4})
        assert json.dumps([r[0], p[0], -0.0]) in checkpoint()
        serve({"kind": "update_bids", "bids": [[r[1], p[1], 0.5]]})
        checkpoint()

        # A solve, then client seqs past applied_limit evict the oldest keys.
        serve({"kind": "solve", "solver": "SDGA", "seq": 5})
        serve({"kind": "update_bids", "bids": [[r[2], p[2], 1.0]], "seq": 6})
        serve({"kind": "update_bids", "bids": [[r[3], p[3], 0.25]], "seq": 7})
        checkpoint()
        assert sorted(journal.applied) == [5, 6, 7]

        # A crash and recovery in place bring all-new, equal objects.
        add_paper("late-3")
        serve({"kind": "update_bids", "bids": [[r[4], p[4], 0.75]], "seq": 8})
        journal.sync_batch()
        journal.abort()
        encoded = get_registry().counter("durability.checkpoint.encoded")
        before = encoded.value
        engine = journal.recover().engine
        session = EngineSession(engine)
        problem = engine.problem
        assert encoded.value - before == problem.num_reviewers + problem.num_papers
        self.check(journal, engine, probe)
        add_paper("late-4")
        serve({"kind": "update_bids", "bids": [[r[0], p[0], 0.0]], "seq": 9})
        checkpoint()
        journal.close()

    def test_an_entity_with_the_same_id_is_encoded_again(self, tmp_path):
        journal = TenantJournal(DurabilityConfig(root=tmp_path / "wal"), "conf")
        journal.initialise(small_engine())
        other = AssignmentEngine(make_problem(
            num_papers=8, num_reviewers=8, num_topics=6, group_size=2,
            reviewer_workload=5, conflict_ratio=0.0, seed=12,
        ))
        journal.checkpoint(other)
        assert journal.checkpoint_path.read_text(encoding="utf-8") == self.expected(journal, other)
        journal.close()

    def test_a_store_backed_checkpoint_is_the_dumped_body(self, tmp_path):
        from repro.store import SqliteProblemStore

        store = SqliteProblemStore.create(tmp_path / "conf.db", small_engine().problem)
        engine = AssignmentEngine.from_store(store)
        session = EngineSession(engine)
        config = DurabilityConfig(root=tmp_path / "wal")
        journal = TenantJournal(config, "conf")
        journal.initialise(engine)
        r, p = engine.problem.reviewer_ids, engine.problem.paper_ids
        payloads = [
            {"kind": "solve", "solver": "Greedy", "seq": 1},
            {"kind": "update_bids", "bids": [[r[0], p[0], 0.5]], "seq": 2},
        ]
        for seq, payload in enumerate(payloads, start=1):
            request = request_from_dict(payload)
            journal.append(seq, request)
            response = session.dispatch(request)
            journal.record_applied(request.client_seq, response)
            journal.sync_batch()
            journal.checkpoint(engine)
            text = journal.checkpoint_path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text))
            assert journal.pieces == {}  # the store holds the entities
        journal.close()

        recovered = TenantJournal(config, "conf").recover().engine
        assert json.dumps(recovered.to_snapshot()) == json.dumps(engine.to_snapshot())
        recovered.store.close()
        store.close()

    def test_the_metrics_follow_the_change(self, tmp_path):
        registry = get_registry()
        encoded = registry.counter("durability.checkpoint.encoded")
        written = registry.counter("durability.checkpoint.bytes")
        seconds = registry.histogram("durability.checkpoint.seconds")
        journal = TenantJournal(DurabilityConfig(root=tmp_path), "conf")
        engine = small_engine()
        journal.initialise(engine)

        def checkpoint() -> tuple[int, int, int]:
            before = (encoded.value, written.value, seconds.count)
            journal.checkpoint(engine)
            after = (encoded.value, written.value, seconds.count)
            return tuple(b - a for a, b in zip(before, after))

        assert checkpoint()[0] == 0
        assert checkpoint()[0] == 0
        engine.add_paper(late_paper(engine.problem, "late"))
        fresh, size, observed = checkpoint()
        assert fresh == 1
        assert size == journal.checkpoint_path.stat().st_size
        assert observed == 1
        journal.close()


class TestAtomicWrites:
    """Satellite: the torn-write regression for ``atomic_write_text``."""

    def test_replaces_atomically(self, tmp_path):
        path = tmp_path / "snap.json"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text(encoding="utf-8") == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_crash_before_rename_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "snap.json"
        atomic_write_text(path, "old")
        get_failpoints().configure("snapshot_write", "once")
        with pytest.raises(FaultInjected):
            atomic_write_text(path, "new")
        # The old content is intact and no temp file litters the dir —
        # a crashed checkpoint can never leave a half-written snapshot.
        assert path.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_crashed_checkpoint_recovers_from_the_previous_one(self, tmp_path):
        config = DurabilityConfig(root=tmp_path)
        journal = TenantJournal(config, "conf")
        engine = small_engine()
        journal.initialise(engine)
        session = EngineSession(engine)
        request = request_from_dict({"kind": "solve", "solver": "Greedy", "seq": 1})
        journal.append(1, request)
        assert session.dispatch(request).ok
        journal.sync_batch()
        get_failpoints().configure("snapshot_write", "once")
        with pytest.raises(FaultInjected):
            journal.checkpoint(engine)
        journal.abort()

        outcome = TenantJournal(config, "conf").recover()
        assert outcome.stats.checkpoint_seq == 0  # the old base survived
        assert outcome.stats.replayed_records == 1
        assert json.dumps(outcome.engine.to_snapshot(), sort_keys=True) == (
            json.dumps(engine.to_snapshot(), sort_keys=True)
        )


class TestEarlierRequestRecordsStillParse:
    """WAL records in the earlier request encoding parse to the same requests.

    A WAL record keeps its request as ``request_to_dict`` wrote it, and
    recovery reads it back through ``request_from_dict``.  The encoder
    used to be written per kind and left out empty ``options`` and
    ``solvers``; it now emits every field that is not ``None``.  These
    literal records are in the earlier encoding, at least one per
    mutation kind, so a log written before the change still replays.
    """

    LATE = Paper(
        id="late", vector=TopicVector([0.5, 0.25, 0.25]), title="Late", abstract="x"
    )
    RECORDS = {
        "solve": (
            {"kind": "solve", "id": 1, "seq": 4, "solver": "Greedy"},
            SolveRequest(request_id=1, client_seq=4, solver="Greedy"),
        ),
        "solve-options": (
            {"kind": "solve", "solver": "SDGA", "options": {"seed": 3}},
            SolveRequest(solver="SDGA", options={"seed": 3}),
        ),
        "portfolio": (
            {"kind": "portfolio", "id": "p", "seq": 5, "solvers": ["SDGA", "Greedy"],
             "deadline": 30.0},
            PortfolioSolve(
                request_id="p", client_seq=5, solvers=("SDGA", "Greedy"), deadline=30.0
            ),
        ),
        "portfolio-default": ({"kind": "portfolio"}, PortfolioSolve()),
        "add_paper": (
            {"kind": "add_paper", "seq": 6,
             "paper": {"id": "late", "title": "Late", "abstract": "x",
                       "vector": [0.5, 0.25, 0.25]},
             "reviewer_workload": 4, "pool_size": 8},
            AddPaper(client_seq=6, paper=LATE, reviewer_workload=4, pool_size=8),
        ),
        "withdraw_reviewer": (
            {"kind": "withdraw_reviewer", "seq": 7, "reviewer_id": "reviewer-0002"},
            WithdrawReviewer(client_seq=7, reviewer_id="reviewer-0002"),
        ),
        "update_bids": (
            {"kind": "update_bids", "seq": 8,
             "bids": [["reviewer-0001", "paper-0000", 1.0],
                      ["reviewer-0002", "paper-0001", 0.25]]},
            UpdateBids(
                client_seq=8,
                bids=(
                    ("reviewer-0001", "paper-0000", 1.0),
                    ("reviewer-0002", "paper-0001", 0.25),
                ),
            ),
        ),
    }

    def test_every_mutation_kind_has_a_record(self):
        assert {record["kind"] for record, _ in self.RECORDS.values()} == MUTATION_KINDS

    @pytest.mark.parametrize(
        ("record", "expected"), list(RECORDS.values()), ids=list(RECORDS)
    )
    def test_record_parses_to_the_same_request(self, record, expected):
        assert request_from_dict(json.loads(json.dumps(record))) == expected
