"""The primary half of replication: ship the WAL, watch the acks.

A :class:`ReplicationSender` runs inside the primary
:class:`~repro.net.server.AssignmentServer`'s event loop.  It dials the
standby's ordinary TCP port, performs the hello/catch-up handshake, then
streams every journaled record as it is appended (the
``TenantJournal.on_append`` hook hands records over from the tenant
worker threads).  The standby's acks — one structured response per
frame, the normal wire contract — drive everything else:

* ``applied_seq`` advances the per-tenant acked watermark and the
  ``replication.lag`` gauge (shipped-but-unacked records);
* a ``gap`` status queues a **resync** for that tenant: re-read its
  checkpoint + WAL tail from disk and ship the missing suffix (a
  snapshot first if the standby is behind the checkpoint);
* an ``ok: false`` ack with ``error_type: "configuration"`` means the
  standby was promoted (or is not a standby at all) — the sender
  detaches for good instead of fighting the new primary.

Connection loss — including the ``repl_send`` failpoint, which drops
the link mid-frame — reconnects with a full handshake; the standby's
dedup makes the overlap harmless.  Heartbeats go out whenever the
stream is idle for one interval; the ``heartbeat`` failpoint silences
them to exercise standby auto-promotion.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Any

from repro.durability.journal import read_checkpoint
from repro.durability.wal import WalRecord, read_wal
from repro.exceptions import ConfigurationError
from repro.fault import FaultInjected, get_failpoints
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["ReplicationSender"]

_WAKE = ("wake", None, None, None)


class ReplicationSender:
    """Streams one durable server's WAL to one standby endpoint."""

    def __init__(
        self,
        server: Any,
        host: str,
        port: int,
        *,
        heartbeat_interval: float = 0.25,
        retry_delay: float = 0.2,
    ) -> None:
        self.server = server
        self.host = host
        self.port = int(port)
        self.heartbeat_interval = float(heartbeat_interval)
        self.retry_delay = float(retry_delay)
        self.connected = False
        self.detached = False
        self.shipped: dict[str, int] = {}
        self.acked: dict[str, int] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self._resync: set[str] = set()
        self._registry = get_registry()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._task = self._loop.create_task(self._run(), name="replication-sender")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await self._task
            self._task = None
        self.connected = False

    # ------------------------------------------------------------------
    # The shipping hooks (called from tenant worker threads)
    # ------------------------------------------------------------------
    def ship(self, tenant_id: str, record: WalRecord, prev_seq: int) -> None:
        """Hand one freshly journaled record to the stream (thread-safe).

        ``prev_seq`` is the record's predecessor in the tenant's WAL
        chain — envelope seqs may skip numbers (queries and dedup hits
        consume a seq without appending), so the standby checks chain
        adjacency, not ``seq`` arithmetic.
        """
        loop = self._loop
        if loop is None or self.detached or loop.is_closed():
            return
        body = record.to_body()
        with contextlib.suppress(RuntimeError):  # loop shut down mid-call
            loop.call_soon_threadsafe(self._enqueue, tenant_id, body, prev_seq)

    def request_resync(self, tenant_id: str) -> None:
        """Queue a from-disk catch-up for one tenant (thread-safe)."""
        loop = self._loop
        if loop is None or self.detached or loop.is_closed():
            return
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(self._note_resync, tenant_id)

    def _enqueue(self, tenant_id: str, body: dict[str, Any], prev_seq: int) -> None:
        self._queue.put_nowait(("record", tenant_id, body, prev_seq))

    def _note_resync(self, tenant_id: str) -> None:
        self._resync.add(tenant_id)
        self._queue.put_nowait(_WAKE)

    # ------------------------------------------------------------------
    # The connection loop
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while not self.detached:
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                await asyncio.sleep(self.retry_delay)
                continue
            self._registry.counter(
                "replication.reconnects", "replication connections established"
            ).inc()
            stop = asyncio.Event()
            ack_task: asyncio.Task | None = None
            try:
                standby_seqs = await self._handshake(reader, writer)
                for tenant_id in self._durable_tenants():
                    self._resync.add(tenant_id)
                ack_task = asyncio.get_running_loop().create_task(
                    self._read_acks(reader, stop)
                )
                self.connected = True
                await self._stream(writer, stop, standby_seqs)
            except (
                OSError,
                ConnectionError,
                EOFError,
                asyncio.IncompleteReadError,
                json.JSONDecodeError,
                UnicodeDecodeError,
                FaultInjected,
                # A damaged checkpoint (read_checkpoint): retry until the
                # tenant's next atomic checkpoint replaces it.
                ConfigurationError,
            ):
                pass  # reconnect with a fresh handshake
            finally:
                self.connected = False
                if ack_task is not None:
                    ack_task.cancel()
                    with contextlib.suppress(Exception, asyncio.CancelledError):
                        await ack_task
                transport = writer.transport
                if transport is not None:
                    transport.abort()
                with contextlib.suppress(Exception):
                    writer.close()
            if not self.detached:
                await asyncio.sleep(self.retry_delay)

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> dict[str, int]:
        """Hello the standby; returns its per-tenant applied seqs."""
        await self._send(
            writer,
            {
                "kind": "repl_hello",
                "primary": f"{self.server.host}:{self.server.port}",
            },
        )
        line = await reader.readline()
        if not line:
            raise ConnectionError("standby closed during handshake")
        ack = json.loads(line.decode("utf-8"))
        if not isinstance(ack, dict) or not ack.get("ok", False):
            error_type = ack.get("error_type") if isinstance(ack, dict) else None
            if error_type == "configuration":
                self.detached = True
            raise ConnectionError(f"standby refused the hello: {ack!r}")
        tenants = (ack.get("payload") or {}).get("tenants") or {}
        return {
            str(tenant_id): int(seq)
            for tenant_id, seq in tenants.items()
            if isinstance(tenant_id, str)
        }

    async def _stream(
        self,
        writer: asyncio.StreamWriter,
        stop: asyncio.Event,
        standby_seqs: dict[str, int],
    ) -> None:
        """Ship frames until the connection (or the ack stream) dies."""
        while True:
            if stop.is_set() or self.detached:
                raise ConnectionError("replication ack stream closed")
            while self._resync:
                tenant_id = sorted(self._resync)[0]
                self._resync.discard(tenant_id)
                await self._catch_up(
                    writer, tenant_id, standby_seqs.pop(tenant_id, None)
                )
            try:
                tag, tenant_id, body, prev_seq = await asyncio.wait_for(
                    self._queue.get(), timeout=self.heartbeat_interval
                )
            except asyncio.TimeoutError:
                await self._heartbeat(writer)
                continue
            if tag != "record" or tenant_id in self._resync:
                continue
            if int(body["seq"]) <= self.shipped.get(tenant_id, 0):
                continue  # the catch-up already shipped it from disk
            await self._send(
                writer,
                {
                    "kind": "repl_record",
                    "tenant": tenant_id,
                    "record": body,
                    "prev": prev_seq,
                },
            )
            self.shipped[tenant_id] = int(body["seq"])
            self._registry.counter(
                "replication.shipped", "WAL records shipped to the standby"
            ).inc()
            self._update_lag()

    async def _catch_up(
        self,
        writer: asyncio.StreamWriter,
        tenant_id: str,
        standby_seq: int | None,
    ) -> None:
        """Ship one tenant's missing suffix from disk (snapshot if behind)."""
        if tenant_id not in self.server.tenants:
            return  # evicted since the resync was queued
        journal = self.server.tenants.get(tenant_id).journal
        if journal is None:
            return
        with TRACER.span("replication.catch_up", tenant=tenant_id):
            self._registry.counter(
                "replication.resyncs", "per-tenant catch-up rounds"
            ).inc()
            checkpoint, scan = await asyncio.to_thread(
                _read_tail, journal.directory
            )
            if checkpoint is None:
                return  # nothing durable yet (initialise() races are transient)
            checkpoint_seq = int(checkpoint.get("last_seq", 0))
            if standby_seq is None or standby_seq < checkpoint_seq:
                await self._send(
                    writer,
                    {
                        "kind": "repl_snapshot",
                        "tenant": tenant_id,
                        "checkpoint": checkpoint,
                    },
                )
                self._registry.counter(
                    "replication.snapshots", "checkpoint snapshots shipped"
                ).inc()
                base = checkpoint_seq
            else:
                base = standby_seq
            top = base
            prev = base
            for record in scan.records:
                if record.seq <= base:
                    prev = record.seq
                    continue
                await self._send(
                    writer,
                    {
                        "kind": "repl_record",
                        "tenant": tenant_id,
                        "record": record.to_body(),
                        "prev": prev,
                    },
                )
                prev = record.seq
                self._registry.counter(
                    "replication.shipped", "WAL records shipped to the standby"
                ).inc()
                top = record.seq
            self.shipped[tenant_id] = max(self.shipped.get(tenant_id, 0), top)
            self._update_lag()

    async def _heartbeat(self, writer: asyncio.StreamWriter) -> None:
        try:
            get_failpoints().hit("heartbeat")
        except FaultInjected:
            return  # silenced: the standby hears nothing this tick
        await self._send(writer, {"kind": "repl_heartbeat"})
        self._registry.counter(
            "replication.heartbeats", "heartbeat frames sent"
        ).inc()

    async def _send(
        self, writer: asyncio.StreamWriter, frame: dict[str, Any]
    ) -> None:
        get_failpoints().hit("repl_send")  # FaultInjected == the link died
        writer.write(json.dumps(frame).encode("utf-8") + b"\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # Acks
    # ------------------------------------------------------------------
    async def _read_acks(
        self, reader: asyncio.StreamReader, stop: asyncio.Event
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    ack = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue
                if isinstance(ack, dict):
                    self._on_ack(ack)
                if self.detached:
                    break
        except (OSError, ConnectionError):
            pass
        finally:
            stop.set()
            self._queue.put_nowait(_WAKE)

    def _on_ack(self, ack: dict[str, Any]) -> None:
        if not ack.get("ok", False):
            if ack.get("error_type") == "configuration":
                # The standby was promoted (or never was one): stand down.
                self.detached = True
            return
        payload = ack.get("payload") or {}
        tenant_id = payload.get("tenant")
        if not isinstance(tenant_id, str):
            return
        kind = ack.get("kind")
        if kind in ("repl_record", "repl_snapshot"):
            applied_seq = int(payload.get("applied_seq", 0))
            self.acked[tenant_id] = max(self.acked.get(tenant_id, 0), applied_seq)
            if payload.get("status") == "gap":
                self._note_resync(tenant_id)
            self._update_lag()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _durable_tenants(self) -> list[str]:
        return [
            tenant_id
            for tenant_id in self.server.tenants.ids()
            if self.server.tenants.get(tenant_id).journal is not None
        ]

    def _update_lag(self) -> None:
        lag = sum(
            max(0, shipped - self.acked.get(tenant_id, 0))
            for tenant_id, shipped in self.shipped.items()
        )
        self._registry.gauge(
            "replication.lag", "shipped-but-unacked records, all tenants"
        ).set(lag)

    def status(self) -> dict[str, Any]:
        tenants: dict[str, Any] = {}
        for tenant_id in self._durable_tenants():
            journal = self.server.tenants.get(tenant_id).journal
            tenants[tenant_id] = {
                "journal_seq": journal.last_seq,
                "shipped": self.shipped.get(tenant_id, 0),
                "acked": self.acked.get(tenant_id, 0),
            }
        lag = sum(
            max(0, entry["shipped"] - entry["acked"]) for entry in tenants.values()
        )
        caught_up = (
            self.connected
            and not self._resync
            and all(
                entry["acked"] >= entry["journal_seq"]
                for entry in tenants.values()
            )
        )
        return {
            "target": f"{self.host}:{self.port}",
            "connected": self.connected,
            "detached": self.detached,
            "caught_up": caught_up,
            "lag": lag,
            "tenants": tenants,
        }


def _read_tail(directory) -> tuple[dict[str, Any] | None, Any]:
    """Read checkpoint + WAL scan off-loop (one catch-up round)."""
    return read_checkpoint(directory), read_wal(directory)
