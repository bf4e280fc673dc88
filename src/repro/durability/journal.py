"""Per-tenant durability: checkpoint + WAL tail = crash-safe engine state.

A :class:`TenantJournal` owns one directory, ``<wal_root>/<tenant_id>/``::

    checkpoint.json        # atomic snapshot: engine state + applied map
    wal-000000000042.jsonl # the current WAL segment (starts at seq 42)

The invariant, pinned by ``tests/conformance/test_recovery_conformance.py``:

    engine state == replay(checkpoint.snapshot, WAL records with
    seq > checkpoint.last_seq)

at *every* instant, because every journaled mutation is appended to the
WAL **before** it executes, and the checkpoint is written atomically
(:func:`repro.data.io.atomic_write_text`) from the tenant's quiesced
worker thread.  Recovery therefore never sees a half-applied mutation:
either the record made it to the log (and replay re-executes it) or it
didn't (and the client never got an answer, so its retry re-submits it).

The checkpoint also persists the **applied map** — the last response per
client idempotency key (wire ``seq``) — and replay rebuilds it from the
WAL tail, so a mutation retried across a crash is answered from the
stored response instead of executing twice (exactly-once application).

Reviewers and papers are immutable, and most of them are the same
objects from one checkpoint to the next, so the journal keeps the JSON
text of each one it wrote (:class:`CheckpointPieces`) and encodes afresh
only the new ones.  The file is assembled from those texts and is byte
for byte what ``json.dumps`` writes for the same body.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.data.io import (
    assignment_from_dict,
    assignment_to_dict,
    atomic_write_text,
    check_version,
    engine_snapshot_from_dict,
)
from repro.durability.wal import (
    FSYNC_POLICIES,
    WalRecord,
    WriteAheadLog,
    read_wal,
)
from repro.exceptions import ConfigurationError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.parallel.config import ParallelConfig
from repro.service.engine import AssignmentEngine
from repro.service.requests import (
    Request,
    Response,
    request_from_dict,
    request_to_dict,
)
from repro.service.session import EngineSession

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointPieces",
    "DurabilityConfig",
    "RecoveryStats",
    "RecoveryOutcome",
    "TenantJournal",
    "read_checkpoint",
]

CHECKPOINT_VERSION = 1
CHECKPOINT_NAME = "checkpoint.json"

TRACER = get_tracer()


class _Encoded(list):
    """The JSON texts of one list's items, in order (see :func:`_assemble`)."""


def _holds_encoded(value: dict[str, Any]) -> bool:
    return any(
        type(item) is _Encoded or (type(item) is dict and _holds_encoded(item))
        for item in value.values()
    )


def _assemble(value: Any) -> str:
    """``json.dumps`` of ``value``, with each :class:`_Encoded` list in place.

    An encoded list is written as its texts joined by ``json.dumps``' item
    separator.  Only the dicts on the way to one are walked (their keys are
    strings); every other value goes to ``json.dumps`` whole.  The result
    is the text ``json.dumps`` writes when each list holds its decoded items.
    """
    if type(value) is _Encoded:
        return "[" + ", ".join(value) + "]"
    if type(value) is dict and _holds_encoded(value):
        return "{" + ", ".join(
            json.dumps(key) + ": " + _assemble(item) for key, item in value.items()
        ) + "}"
    return json.dumps(value)


class CheckpointPieces:
    """Encodes one checkpoint's entities, reusing the texts of the last one.

    A piece is one reviewer or paper, keyed by its id.  Its text is reused
    only while the entity *is* the one it was encoded from, never when the
    two are merely equal.  ``texts`` holds only what this checkpoint wrote,
    so once it replaces ``previous`` no text outlives a withdrawn reviewer.
    """

    def __init__(self, previous: dict[str, dict[str, tuple[Any, str]]]) -> None:
        self.previous = previous
        self.texts: dict[str, dict[str, tuple[Any, str]]] = {}
        self.encoded = 0

    def entries(
        self, section: str, to_json: Callable[[Any], Any], items: Iterable[Any]
    ) -> _Encoded:
        """The ``entries`` hook of :func:`repro.data.io.problem_to_dict`."""
        previous = self.previous.get(section, {})
        texts = self.texts.setdefault(section, {})
        encoded = _Encoded()
        for item in items:
            piece = previous.get(item.id)
            if piece is None or piece[0] is not item:
                piece = (item, json.dumps(to_json(item)))
                self.encoded += 1
            texts[item.id] = piece
            encoded.append(piece[1])
        return encoded


@dataclass(frozen=True)
class DurabilityConfig:
    """How a server journals its tenants (one config for all of them)."""

    root: Path
    fsync: str = "batch"
    checkpoint_every: int = 64
    applied_limit: int = 1024

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))
        if self.fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"unknown fsync policy {self.fsync!r}; known policies: "
                f"{sorted(FSYNC_POLICIES)}"
            )
        if int(self.checkpoint_every) < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if int(self.applied_limit) < 1:
            raise ConfigurationError("applied_limit must be >= 1")


@dataclass
class RecoveryStats:
    """What one :meth:`TenantJournal.recover` run found and did."""

    tenant: str
    checkpoint_seq: int
    last_seq: int
    replayed_records: int = 0
    skipped_records: int = 0
    dropped_bytes: int = 0
    restored_applied: int = 0
    segments: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "checkpoint_seq": self.checkpoint_seq,
            "last_seq": self.last_seq,
            "replayed_records": self.replayed_records,
            "skipped_records": self.skipped_records,
            "dropped_bytes": self.dropped_bytes,
            "restored_applied": self.restored_applied,
            "segments": self.segments,
        }


@dataclass
class RecoveryOutcome:
    """A rebuilt engine plus everything the tenant needs to resume."""

    engine: AssignmentEngine
    replayed: dict[int, Response] = field(default_factory=dict)
    stats: RecoveryStats | None = None

    @property
    def next_seq(self) -> int:
        return (self.stats.last_seq if self.stats is not None else 0) + 1


class TenantJournal:
    """The durable half of one tenant (checkpoint file + WAL).

    Single-writer: all mutating calls happen on the tenant's worker
    thread or while that worker is quiesced (creation, close, recovery).
    """

    def __init__(self, config: DurabilityConfig, tenant_id: str) -> None:
        if not tenant_id or "/" in tenant_id or tenant_id in {".", ".."}:
            raise ConfigurationError(
                f"tenant id {tenant_id!r} cannot name a journal directory"
            )
        self.config = config
        self.tenant_id = tenant_id
        self.directory = config.root / tenant_id
        self.checkpoint_path = self.directory / CHECKPOINT_NAME
        self.last_seq = 0
        self.applied: dict[int, Response] = {}
        self._records_since_checkpoint = 0
        self._wal: WriteAheadLog | None = None
        # The entity texts of the last checkpoint written, by section and
        # id (see CheckpointPieces); each checkpoint replaces them.
        self.pieces: dict[str, dict[str, tuple[Any, str]]] = {}
        # Replication hook: called with (record, prev_seq) right after an
        # append, on the same worker thread — prev_seq is the journal's
        # last_seq *before* this record, i.e. the record's predecessor in
        # the tenant's WAL chain (envelope seqs may skip numbers: queries
        # and dedup hits consume a seq without appending).  Must never
        # raise into the write path; failures are the shipper's problem,
        # not the journal's.
        self.on_append: Any = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def has_checkpoint(self) -> bool:
        return self.checkpoint_path.exists()

    def initialise(self, engine: AssignmentEngine) -> None:
        """Create the journal for a brand-new tenant (checkpoint 0)."""
        if self.has_checkpoint():
            raise ConfigurationError(
                f"journal for tenant {self.tenant_id!r} already exists at "
                f"{self.directory}"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_checkpoint(engine)
        self._open_wal()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def abort(self) -> None:
        """Crash-stop: drop the file handle with no checkpoint (tests)."""
        self.close()

    # ------------------------------------------------------------------
    # The write path (tenant worker thread)
    # ------------------------------------------------------------------
    def append(self, seq: int, request: Request) -> None:
        """Journal one admitted mutation *before* it executes."""
        self.append_record(
            WalRecord(
                seq=seq,
                kind=request.kind,
                request=request_to_dict(request),
                client_seq=request.client_seq,
            )
        )

    def append_record(self, record: WalRecord) -> None:
        """Append a pre-built record (local write path and standby replay)."""
        if self._wal is None:
            raise ConfigurationError(
                f"journal for tenant {self.tenant_id!r} is not open"
            )
        prev_seq = self.last_seq
        self._wal.append(record)
        self.last_seq = record.seq
        self._records_since_checkpoint += 1
        if self.on_append is not None:
            try:
                self.on_append(record, prev_seq)
            except Exception:  # pragma: no cover - shipper must not kill writes
                pass

    def record_applied(self, client_seq: int, response: Response) -> None:
        """Remember the response for an idempotency key (bounded map)."""
        self.applied[client_seq] = response
        limit = int(self.config.applied_limit)
        evicted = 0
        while len(self.applied) > limit:
            self.applied.pop(next(iter(self.applied)))
            evicted += 1
        if evicted:
            get_registry().counter(
                "durability.applied_evicted",
                "idempotency keys evicted from the bounded applied map",
            ).inc(evicted)

    def sync_batch(self) -> None:
        """Batch-boundary fsync per the configured policy."""
        if self._wal is not None:
            self._wal.sync()

    @property
    def should_checkpoint(self) -> bool:
        return self._records_since_checkpoint >= int(self.config.checkpoint_every)

    def checkpoint(self, engine: AssignmentEngine) -> None:
        """Atomically snapshot the engine, then rotate the WAL."""
        started = time.perf_counter()
        with TRACER.span(
            "durability.checkpoint", tenant=self.tenant_id, last_seq=self.last_seq
        ):
            size, encoded = self._write_checkpoint(engine)
            if self._wal is None:
                self._wal = WriteAheadLog(self.directory, fsync=self.config.fsync)
            self._wal.rotate(self.last_seq + 1)
        self._records_since_checkpoint = 0
        registry = get_registry()
        registry.counter("durability.checkpoints", "tenant checkpoints written").inc()
        registry.histogram(
            "durability.checkpoint.seconds", "checkpoint encode, write and WAL rotation"
        ).observe(time.perf_counter() - started)
        registry.counter(
            "durability.checkpoint.bytes", "checkpoint bytes written"
        ).inc(size)
        registry.counter(
            "durability.checkpoint.encoded", "checkpoint pieces encoded afresh"
        ).inc(encoded)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def install_checkpoint(self, payload: dict[str, Any]) -> None:
        """Adopt a checkpoint shipped from another process (standby catch-up).

        Writes the payload atomically as this journal's checkpoint and
        discards any local WAL segments — they describe a history the
        shipped snapshot supersedes.  Follow with :meth:`recover` to
        build the resident engine from the installed state.
        """
        check_version(payload, "tenant checkpoint", CHECKPOINT_VERSION)
        if "store" in payload:
            # A store-backed checkpoint is a pointer to a local SQLite
            # file the standby does not have; shipping it would replicate
            # the pointer, not the data.  Store-backed tenants are
            # explicitly outside the replication contract (docs/storage.md).
            raise ConfigurationError(
                "store-backed tenants cannot be replicated by checkpoint "
                "shipping; the problem store file lives outside the journal"
            )
        self.close()
        self.directory.mkdir(parents=True, exist_ok=True)
        body = dict(payload)
        body["tenant"] = self.tenant_id
        atomic_write_text(self.checkpoint_path, json.dumps(body))
        for stale in sorted(self.directory.glob("wal-*.jsonl")):
            stale.unlink(missing_ok=True)
        self.pieces = {}
        self.last_seq = int(payload.get("last_seq", 0))
        self._records_since_checkpoint = 0

    def recover(self, parallel: ParallelConfig | None = None) -> RecoveryOutcome:
        """Rebuild the engine: load the checkpoint, replay the WAL tail.

        Torn WAL tails are expected (that is what a crash mid-append
        leaves behind): replay stops at the last complete record and the
        dropped suffix is reported in the stats, never raised.  Ends by
        writing a fresh checkpoint so the next recovery starts from here.
        """
        payload = self._load_checkpoint()
        checkpoint_seq = int(payload.get("last_seq", 0))
        with TRACER.span(
            "durability.recover", tenant=self.tenant_id, checkpoint_seq=checkpoint_seq
        ) as span:
            self.close()
            if "store" in payload:
                # Store-backed tenant: the instance lives in the store file
                # (rolled back to its last sync = this checkpoint); replaying
                # the WAL tail re-applies the lost row deltas through the
                # engine's attached-store listener.
                from repro.store.sqlite import SqliteProblemStore

                section = payload["store"]
                store = SqliteProblemStore.open(section["path"])
                engine = AssignmentEngine.from_store(
                    store,
                    assignment=(
                        assignment_from_dict(section["assignment"])
                        if section.get("assignment") is not None
                        else None
                    ),
                    metadata=section.get("metadata") or {},
                    parallel=parallel,
                )
            else:
                engine = AssignmentEngine.from_snapshot(
                    engine_snapshot_from_dict(payload["snapshot"]), parallel=parallel
                )
            session = EngineSession(engine)
            stats = RecoveryStats(
                tenant=self.tenant_id,
                checkpoint_seq=checkpoint_seq,
                last_seq=checkpoint_seq,
            )
            self.applied = {}
            for key, body in payload.get("applied", []):
                self.applied[int(key)] = Response.from_dict(body)
            stats.restored_applied = len(self.applied)
            scan = read_wal(self.directory)
            stats.dropped_bytes = scan.dropped_bytes
            stats.segments = scan.segments
            replayed: dict[int, Response] = {}
            for record in scan.records:
                if record.seq <= checkpoint_seq:
                    stats.skipped_records += 1
                    continue
                response = session.dispatch(request_from_dict(record.request))
                replayed[record.seq] = response
                if record.client_seq is not None:
                    self.record_applied(record.client_seq, response)
                stats.replayed_records += 1
                stats.last_seq = record.seq
            self.last_seq = stats.last_seq
            # Collapse the replayed tail into a fresh checkpoint so the
            # next crash recovers from here, not from the old base.
            self.checkpoint(engine)
            span.set(
                replayed=stats.replayed_records, dropped=stats.dropped_bytes
            )
        registry = get_registry()
        registry.counter("durability.recoveries", "journal recoveries run").inc()
        registry.counter(
            "durability.replayed_records", "WAL records replayed during recovery"
        ).inc(stats.replayed_records)
        registry.counter(
            "durability.dropped_bytes", "torn WAL suffix bytes dropped at recovery"
        ).inc(stats.dropped_bytes)
        return RecoveryOutcome(engine=engine, replayed=replayed, stats=stats)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        return {
            "directory": str(self.directory),
            "fsync": self.config.fsync,
            "checkpoint_every": int(self.config.checkpoint_every),
            "last_seq": self.last_seq,
            "records_since_checkpoint": self._records_since_checkpoint,
            "applied": len(self.applied),
        }

    def _open_wal(self) -> None:
        self._wal = WriteAheadLog(self.directory, fsync=self.config.fsync)
        self._wal.open_segment(self.last_seq + 1)

    def _write_checkpoint(self, engine: AssignmentEngine) -> tuple[int, int]:
        """Write ``checkpoint.json``; returns its size and the pieces encoded."""
        pieces = CheckpointPieces(self.pieces)
        body: dict[str, Any] = {
            "format_version": CHECKPOINT_VERSION,
            "tenant": self.tenant_id,
            "last_seq": self.last_seq,
            "applied": [
                [key, response.to_dict()]
                for key, response in self.applied.items()
            ],
        }
        store = engine.store
        if store is not None and store.path is not None:
            # Store-backed tenant: checkpoint = store sync plus a slim
            # pointer.  Entities, conflicts and bids are committed inside
            # the store's transaction; only the assignment and metadata —
            # state the store does not own — ride in the checkpoint file,
            # so checkpoints stay O(assignment) instead of O(instance).
            engine.sync_store()
            body["store"] = {
                "path": str(store.path),
                "assignment": (
                    assignment_to_dict(engine.assignment)
                    if engine.assignment is not None
                    else None
                ),
                "metadata": {
                    "revision": engine.revision,
                    "last_solver": engine.last_solver,
                    "last_score": engine.last_score,
                },
            }
        else:
            body["snapshot"] = engine.to_snapshot(pieces.entries)
        text = _assemble(body)
        atomic_write_text(self.checkpoint_path, text)
        self.pieces = pieces.texts
        # json.dumps escapes every non-ASCII character: one byte per char.
        return len(text), pieces.encoded

    def _load_checkpoint(self) -> dict[str, Any]:
        payload = read_checkpoint(self.directory)
        if payload is None:
            raise ConfigurationError(
                f"no checkpoint for tenant {self.tenant_id!r} under "
                f"{self.directory}; nothing to recover"
            )
        return payload


def read_checkpoint(directory: Path) -> dict[str, Any] | None:
    """Read a tenant directory's checkpoint, or ``None`` if there is none.

    The one checkpoint reader: recovery, the replication sender and
    ``wgrap wal`` inspection all use it.  Touches no state.  Bytes that do
    not decode raise :class:`ConfigurationError` naming the file; a payload
    that is not an object, or of another format version, raises
    :class:`~repro.exceptions.UnsupportedFormatError`.
    """
    path = Path(directory) / CHECKPOINT_NAME
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ConfigurationError(f"checkpoint {path} does not decode: {exc}") from None
    check_version(payload, "tenant checkpoint", CHECKPOINT_VERSION)
    return payload
