"""Per-tenant write-ahead log: JSON-lines segments with checksums.

One WAL record is one JSON line, written *before* the mutation it
describes executes.  The format is deliberately boring:

``{"cseq": ..., "crc": ..., "kind": ..., "request": {...}, "seq": ..., "v": 1}``

* ``seq`` — the tenant's execution sequence number (strictly ascending);
* ``kind`` — the request kind, for humans reading the log;
* ``cseq`` — the client-supplied idempotency key (the wire ``seq``
  envelope field), ``null`` when the client sent none;
* ``request`` — the full wire-format request dict
  (:func:`repro.service.requests.request_to_dict`), so replay goes
  through the exact same parse + dispatch path as live traffic;
* ``crc`` — CRC-32 of the record's canonical JSON encoding (sorted
  keys, no whitespace) with ``crc`` removed;
* ``v`` — record format version.

A record is *complete* iff its line ends in ``\\n``, parses as JSON,
passes the CRC, carries the expected version, and its ``seq`` ascends.
:func:`read_wal` stops at the first incomplete record and reports every
byte from there on as ``dropped`` — a crash mid-append (torn tail) is an
expected, recoverable state, never an exception.

Fsync policy (:data:`FSYNC_POLICIES`) decides when appended records are
forced to disk; segments rotate at checkpoints so the WAL never grows
past one checkpoint interval.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import ConfigurationError
from repro.fault import get_failpoints
from repro.obs.metrics import get_registry

__all__ = [
    "FSYNC_POLICIES",
    "WAL_RECORD_VERSION",
    "WalRecord",
    "WalReadResult",
    "WriteAheadLog",
    "encode_record",
    "decode_line",
    "read_wal",
    "segment_paths",
]

WAL_RECORD_VERSION = 1

#: When appended WAL records are forced to disk.  ``docs/durability.md``
#: renders this matrix and ``tests/test_docs.py`` pins the two in sync.
FSYNC_POLICIES: dict[str, str] = {
    "never": (
        "flush to the OS page cache per record, never fsync — survives "
        "process crashes, loses the tail on power loss"
    ),
    "batch": (
        "flush per record, one fsync per served batch — survives process "
        "crashes, bounds power-loss exposure to one batch (the default)"
    ),
    "always": (
        "fsync after every record — survives power loss at the last "
        "acknowledged mutation, at the cost of one fsync per mutation"
    ),
}

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".jsonl"


@dataclass(frozen=True)
class WalRecord:
    """One journaled mutation (see the module docstring for the format)."""

    seq: int
    kind: str
    request: dict[str, Any]
    client_seq: int | None = None

    def to_body(self) -> dict[str, Any]:
        return {
            "v": WAL_RECORD_VERSION,
            "seq": self.seq,
            "kind": self.kind,
            "cseq": self.client_seq,
            "request": self.request,
        }


@dataclass(frozen=True)
class WalReadResult:
    """What :func:`read_wal` found on disk."""

    records: tuple[WalRecord, ...]
    dropped_bytes: int
    segments: int


def _canonical(body: dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def encode_record(record: WalRecord) -> bytes:
    """Serialise one record to its on-disk line (including the newline)."""
    body = record.to_body()
    body["crc"] = zlib.crc32(_canonical(body).encode("utf-8"))
    return (_canonical(body) + "\n").encode("utf-8")


def decode_line(line: bytes) -> WalRecord | None:
    """Parse one on-disk line; ``None`` for anything incomplete or corrupt."""
    if not line.endswith(b"\n"):
        return None
    try:
        body = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(body, dict):
        return None
    crc = body.pop("crc", None)
    if crc != zlib.crc32(_canonical(body).encode("utf-8")):
        return None
    if body.get("v") != WAL_RECORD_VERSION:
        return None
    seq = body.get("seq")
    request = body.get("request")
    if not isinstance(seq, int) or isinstance(seq, bool) or not isinstance(request, dict):
        return None
    client_seq = body.get("cseq")
    if client_seq is not None and (not isinstance(client_seq, int) or isinstance(client_seq, bool)):
        return None
    return WalRecord(
        seq=seq,
        kind=str(body.get("kind", "")),
        request=request,
        client_seq=client_seq,
    )


def segment_paths(directory: str | Path) -> list[Path]:
    """The WAL segment files under ``directory``, oldest first."""
    return sorted(Path(directory).glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))


def read_wal(directory: str | Path) -> WalReadResult:
    """Read every complete record from the segments under ``directory``.

    Stops at the first incomplete/corrupt/out-of-order record: everything
    from that point on — including whole later segments — counts as
    ``dropped_bytes``.  Never raises on torn data; an unreadable byte
    stream is just a shorter history.
    """
    paths = segment_paths(directory)
    records: list[WalRecord] = []
    dropped = 0
    last_seq: int | None = None
    broken = False
    for path in paths:
        data = path.read_bytes()
        if broken:
            dropped += len(data)
            continue
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            chunk = data[offset:] if newline < 0 else data[offset : newline + 1]
            record = decode_line(chunk)
            if record is None or (last_seq is not None and record.seq <= last_seq):
                broken = True
                dropped += len(data) - offset
                break
            records.append(record)
            last_seq = record.seq
            offset += len(chunk)
    return WalReadResult(
        records=tuple(records), dropped_bytes=dropped, segments=len(paths)
    )


class WriteAheadLog:
    """Appends records to the current segment under one directory.

    Not thread-safe by itself: each tenant owns one instance and touches
    it only from its single worker thread (plus lifecycle calls made
    while the worker is quiesced).
    """

    def __init__(self, directory: str | Path, fsync: str = "batch") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"unknown fsync policy {fsync!r}; known policies: "
                f"{sorted(FSYNC_POLICIES)}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._file: Any | None = None
        self._dirty = False
        registry = get_registry()
        self._records = registry.counter(
            "durability.wal.records", "WAL records appended"
        )
        self._bytes = registry.counter(
            "durability.wal.bytes", "WAL bytes appended"
        )
        self._fsyncs = registry.counter(
            "durability.wal.fsyncs", "fsync calls issued by the WAL"
        )

    @staticmethod
    def segment_name(start_seq: int) -> str:
        return f"{_SEGMENT_PREFIX}{start_seq:012d}{_SEGMENT_SUFFIX}"

    def open_segment(self, start_seq: int) -> Path:
        """Open (append mode) the segment that starts at ``start_seq``."""
        self.close()
        path = self.directory / self.segment_name(start_seq)
        self._file = open(path, "ab")
        return path

    def append(self, record: WalRecord) -> None:
        """Write one record; durability depends on the fsync policy."""
        if self._file is None:
            raise ConfigurationError("write-ahead log has no open segment")
        get_failpoints().hit("wal_append")
        data = encode_record(record)
        self._file.write(data)
        self._file.flush()
        if self.fsync == "always":
            os.fsync(self._file.fileno())
            self._fsyncs.inc()
        else:
            self._dirty = True
        self._records.inc()
        self._bytes.inc(len(data))

    def sync(self) -> None:
        """Batch-boundary fsync (a no-op under ``never`` and ``always``)."""
        if self.fsync == "batch" and self._dirty and self._file is not None:
            os.fsync(self._file.fileno())
            self._fsyncs.inc()
            self._dirty = False

    def rotate(self, start_seq: int) -> Path:
        """Start a fresh segment and delete the older ones.

        Called right after a checkpoint: records up to ``start_seq - 1``
        are covered by the snapshot.  Crashing between the checkpoint
        write and this rotation is safe — replay skips records at or
        below the checkpoint's ``last_seq``.
        """
        path = self.open_segment(start_seq)
        for stale in segment_paths(self.directory):
            if stale != path:
                stale.unlink(missing_ok=True)
        return path

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            finally:
                self._file = None
                self._dirty = False
