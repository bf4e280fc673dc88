"""The standby half of replication: journal, replay, promote.

A :class:`StandbyCoordinator` lives inside a standby
:class:`~repro.net.server.AssignmentServer` and serves the replication
frames the primary ships.  Each tenant is a :class:`StandbyReplica`: its
own :class:`~repro.durability.TenantJournal` (under the standby's WAL
root) plus a resident engine continuously rebuilt by replay.  Every
shipped record is journaled *before* it executes — the standby is
exactly as crash-safe as the primary, and a standby restart resumes
from its own checkpoint + WAL tail.

Replay is idempotent and prefix-consistent by construction (pinned by
the Hypothesis property in ``tests/test_replication.py``).  Envelope
seqs may legitimately skip numbers — queries and idempotency-dedup hits
consume a seq without appending — so each shipped frame names ``prev``,
the record's predecessor in the tenant's WAL chain, and the rule is
chain adjacency, not seq arithmetic:

* ``seq <= applied_seq`` — duplicate, skipped without side effects;
* ``prev != applied_seq`` — gap, refused without side effects (the
  ack makes the primary re-run catch-up for the tenant);
* ``prev == applied_seq`` — journal, dispatch, remember the response
  under the record's idempotency key.

Promotion drains the apply executor (everything received is applied),
then registers each replica as a live tenant with ``first_seq`` one past
its applied seq — from that instant the server admits ordinary engine
traffic and the replicas' journals keep journaling as usual.
"""

from __future__ import annotations

import asyncio
import contextlib
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.durability.journal import DurabilityConfig, TenantJournal
from repro.durability.wal import WalRecord
from repro.exceptions import ConfigurationError, RequestError
from repro.fault import FaultInjected, get_failpoints
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.service.requests import request_from_dict
from repro.service.session import EngineSession

TRACER = get_tracer()

__all__ = ["StandbyCoordinator", "StandbyReplica", "record_from_body"]


def record_from_body(body: dict[str, Any]) -> WalRecord:
    """Rebuild a :class:`WalRecord` from a shipped ``record.to_body()``."""
    if not isinstance(body, dict):
        raise RequestError("a replication 'record' must be a JSON object")
    try:
        seq = int(body["seq"])
        kind = str(body["kind"])
        request = body["request"]
    except (KeyError, TypeError, ValueError) as exc:
        raise RequestError(f"malformed replication record: {exc!r}") from None
    if not isinstance(request, dict):
        raise RequestError("a replication record's 'request' must be an object")
    cseq = body.get("cseq")
    return WalRecord(
        seq=seq,
        kind=kind,
        request=request,
        client_seq=int(cseq) if cseq is not None else None,
    )


class StandbyReplica:
    """One replicated tenant: journal + engine kept warm by replay.

    All mutating calls run on the coordinator's single apply thread, so
    the journal keeps its single-writer contract.
    """

    def __init__(self, config: DurabilityConfig, tenant_id: str) -> None:
        self.tenant_id = tenant_id
        self.journal = TenantJournal(config, tenant_id)
        self.engine = None
        self.session = None
        self.applied_seq = 0

    @property
    def resident(self) -> bool:
        """True once a snapshot (or local recovery) built the engine."""
        return self.session is not None

    def recover_local(self) -> None:
        """Resume from this standby's own durable state (restart path)."""
        outcome = self.journal.recover()
        self.engine = outcome.engine
        self.session = EngineSession(outcome.engine)
        self.applied_seq = outcome.stats.last_seq

    def install_snapshot(self, payload: dict[str, Any]) -> int:
        """Adopt a shipped checkpoint as the new replay base."""
        self.journal.install_checkpoint(payload)
        self.recover_local()
        return self.applied_seq

    def apply_record(
        self, record: WalRecord, prev_seq: int | None = None
    ) -> tuple[str, int]:
        """Journal + replay one record; returns ``(status, applied_seq)``.

        ``prev_seq`` is the record's predecessor in the primary's WAL
        chain; the record applies only onto exactly that state.  Without
        it (a sender that predates the field) the rule degrades to
        strict seq contiguity.
        """
        registry = get_registry()
        try:
            get_failpoints().hit("repl_apply")
        except FaultInjected:
            # Answer as a gap: no state changed, the primary re-ships.
            registry.counter(
                "replication.gaps", "out-of-order frames refused by the standby"
            ).inc()
            return "gap", self.applied_seq
        if self.resident and record.seq <= self.applied_seq:
            registry.counter(
                "replication.duplicates",
                "shipped records skipped as already-applied",
            ).inc()
            return "duplicate", self.applied_seq
        adjacent = (
            prev_seq == self.applied_seq
            if prev_seq is not None
            else record.seq == self.applied_seq + 1
        )
        if not self.resident or not adjacent:
            registry.counter(
                "replication.gaps", "out-of-order frames refused by the standby"
            ).inc()
            return "gap", self.applied_seq
        with TRACER.span(
            "replication.apply", tenant=self.tenant_id, seq=record.seq
        ):
            self.journal.append_record(record)
            response = self.session.dispatch(request_from_dict(record.request))
            if record.client_seq is not None:
                self.journal.record_applied(record.client_seq, response)
            self.applied_seq = record.seq
            self.journal.sync_batch()
            if self.journal.should_checkpoint:
                self.journal.checkpoint(self.engine)
        registry.counter(
            "replication.applied", "shipped records applied on the standby"
        ).inc()
        return "applied", self.applied_seq


class StandbyCoordinator:
    """Serves replication frames and owns the standby's promotion state."""

    def __init__(
        self,
        config: DurabilityConfig,
        *,
        heartbeat_timeout: float = 2.0,
    ) -> None:
        self.config = config
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.replicas: dict[str, StandbyReplica] = {}
        self.promoted = False
        self.primary: str | None = None
        self.last_frame: float | None = None
        self.promoted_tenants: list[str] = []
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="standby-apply"
        )
        self._monitor: asyncio.Task | None = None
        self._promote_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def recover_existing(self) -> list[str]:
        """Resume every tenant with durable state under the standby root.

        Synchronous, called before the server starts (the restart path):
        a warm standby that crashed comes back with its replicas already
        replayed to their own last durable seq — the primary's hello/
        catch-up then ships only the missing suffix.
        """
        root = self.config.root
        if not root.exists():
            return []
        recovered: list[str] = []
        for directory in sorted(root.iterdir()):
            if not directory.is_dir():
                continue
            tenant_id = directory.name
            if tenant_id in self.replicas:
                continue
            replica = StandbyReplica(self.config, tenant_id)
            if not replica.journal.has_checkpoint():
                continue
            replica.recover_local()
            self.replicas[tenant_id] = replica
            recovered.append(tenant_id)
        return recovered

    async def close(self) -> None:
        """Graceful stop: checkpoint unpromoted replicas, release the thread."""
        self.stop_monitor()
        if not self.promoted:
            loop = asyncio.get_running_loop()

            def _final() -> None:
                for replica in self.replicas.values():
                    try:
                        if replica.resident:
                            replica.journal.checkpoint(replica.engine)
                    except Exception:  # noqa: BLE001 — best-effort, WAL suffices
                        pass
                    finally:
                        replica.journal.close()

            await loop.run_in_executor(self._executor, _final)
        self._executor.shutdown(wait=True)

    async def abort(self) -> None:
        """Crash-stop: drop everything, no checkpoints (recovery tests)."""
        self.stop_monitor()
        self._executor.shutdown(wait=False, cancel_futures=True)
        if not self.promoted:
            for replica in self.replicas.values():
                replica.journal.abort()

    # ------------------------------------------------------------------
    # Frame handling (event loop)
    # ------------------------------------------------------------------
    async def handle(self, kind: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Serve one replication frame; raises for structured refusal."""
        if self.promoted:
            raise ConfigurationError(
                "this standby has been promoted; replication frames are refused"
            )
        self.last_frame = asyncio.get_running_loop().time()
        if kind == "repl_hello":
            primary = payload.get("primary")
            self.primary = str(primary) if primary else self.primary
            return {
                "role": "standby",
                "tenants": {
                    tenant_id: replica.applied_seq
                    for tenant_id, replica in sorted(self.replicas.items())
                },
            }
        if kind == "repl_heartbeat":
            return {"role": "standby"}
        tenant_id = payload.get("tenant")
        if not isinstance(tenant_id, str) or not tenant_id:
            raise RequestError(f"a {kind} frame needs a string 'tenant' id")
        replica = self.replicas.get(tenant_id)
        if replica is None:
            replica = StandbyReplica(self.config, tenant_id)
            self.replicas[tenant_id] = replica
        loop = asyncio.get_running_loop()
        if kind == "repl_snapshot":
            checkpoint = payload.get("checkpoint")
            if not isinstance(checkpoint, dict):
                raise RequestError(
                    "a repl_snapshot frame needs a 'checkpoint' object"
                )
            applied_seq = await loop.run_in_executor(
                self._executor, replica.install_snapshot, checkpoint
            )
            return {
                "tenant": tenant_id,
                "status": "snapshot",
                "applied_seq": applied_seq,
            }
        # repl_record
        record = record_from_body(payload.get("record"))
        prev = payload.get("prev")
        prev_seq = int(prev) if isinstance(prev, (int, float)) else None
        status, applied_seq = await loop.run_in_executor(
            self._executor, replica.apply_record, record, prev_seq
        )
        return {"tenant": tenant_id, "status": status, "applied_seq": applied_seq}

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------
    async def promote(self, server: Any) -> dict[str, Any]:
        """Finish replaying the received tail, then admit writes.

        Registers every resident replica as a live tenant of ``server``
        with ``first_seq`` one past its applied seq; the replica's
        journal carries over, so the promoted server keeps journaling
        (and can itself gain a standby via ``start_replication``).
        Idempotent: a second promote reports ``already_promoted``.
        """
        async with self._promote_lock:
            if self.promoted:
                return {
                    "promoted": True,
                    "already_promoted": True,
                    "tenants": list(self.promoted_tenants),
                }
            loop = asyncio.get_running_loop()

            def _drain_tail() -> None:
                # Runs after every queued apply on the single executor:
                # the received tail is fully replayed and synced.
                with TRACER.span(
                    "replication.promote", tenants=len(self.replicas)
                ):
                    for replica in self.replicas.values():
                        if replica.resident:
                            replica.journal.sync_batch()

            await loop.run_in_executor(self._executor, _drain_tail)
            self.promoted = True
            self.stop_monitor()
            registered: list[str] = []
            for tenant_id in sorted(self.replicas):
                replica = self.replicas[tenant_id]
                if not replica.resident:
                    continue  # never received a snapshot: nothing to serve
                tenant = server.tenants.register(
                    tenant_id,
                    replica.engine,
                    journal=replica.journal,
                    first_seq=replica.applied_seq + 1,
                )
                server._activate(tenant)
                registered.append(tenant_id)
            self.promoted_tenants = registered
            get_registry().counter(
                "replication.promotions", "standby promotions completed"
            ).inc()
            return {"promoted": True, "tenants": registered}

    # ------------------------------------------------------------------
    # Health monitoring
    # ------------------------------------------------------------------
    def start_monitor(self, server: Any, auto_promote_after: float | None) -> None:
        """Auto-promote when the primary falls silent for this long."""
        if auto_promote_after is None or self._monitor is not None:
            return
        self._monitor = asyncio.get_running_loop().create_task(
            self._monitor_loop(server, float(auto_promote_after)),
            name="standby-monitor",
        )

    def stop_monitor(self) -> None:
        if self._monitor is not None:
            self._monitor.cancel()
            self._monitor = None

    async def _monitor_loop(self, server: Any, after: float) -> None:
        loop = asyncio.get_running_loop()
        interval = max(0.01, min(0.1, after / 5))
        with contextlib.suppress(asyncio.CancelledError):
            while not self.promoted:
                await asyncio.sleep(interval)
                if self.last_frame is None:
                    continue  # never heard a primary: don't promote blind
                if loop.time() - self.last_frame >= after:
                    await self.promote(server)
                    return

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self, loop_time: float | None = None) -> dict[str, Any]:
        age = None
        if self.last_frame is not None and loop_time is not None:
            age = max(0.0, loop_time - self.last_frame)
        return {
            "promoted": self.promoted,
            "primary": self.primary,
            "heartbeat_age": age,
            "heartbeat_timeout": self.heartbeat_timeout,
            "tenants": {
                tenant_id: {
                    "applied_seq": replica.applied_seq,
                    "resident": replica.resident,
                }
                for tenant_id, replica in sorted(self.replicas.items())
            },
        }
