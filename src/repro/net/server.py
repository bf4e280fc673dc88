"""The asyncio TCP JSON-lines server: many clients, many tenants, one process.

Wire protocol
-------------
One JSON object per line in, one JSON object per line out, in request
order per connection (responses to pipelined requests never reorder).
The request vocabulary is exactly :mod:`repro.service.requests`, plus:

* an optional ``"tenant"`` field on any engine request routes it to a
  resident engine by conference id (omitted: the default tenant);
* the tenant-management kinds in :data:`MANAGEMENT_KINDS`, served by the
  server itself rather than an engine;
* every engine response additionally carries ``"tenant"`` (where it ran)
  and ``"seq"`` (its position in that tenant's total execution order —
  the handle the conformance harness uses to replay a concurrent run
  serially).

Robustness contract, pinned by ``tests/test_net_fuzz.py``: every
non-blank input line gets exactly one structured response.  Malformed
frames — invalid UTF-8, broken JSON, non-object payloads, unknown kinds,
oversized lines — are answered with ``ok: false`` and a structured
``error_type``; they never kill the accept loop and never leak a
traceback.  Requests beyond the admission bounds are answered
immediately with ``error_type: "overloaded"``.

A ``{"kind": "shutdown"}`` line is served by the server, not a tenant:
admission flips to draining (late requests are refused as overloaded),
the listener closes, every tenant drains its admitted work, and the
shutdown response is the last line its connection sees.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.durability.journal import DurabilityConfig, TenantJournal
from repro.exceptions import ConfigurationError, RequestError
from repro.fault import FaultInjected, get_failpoints
from repro.obs.metrics import get_registry
from repro.replication import REPLICATION_KINDS, ReplicationSender, StandbyCoordinator
from repro.service.engine import AssignmentEngine
from repro.service.requests import Request, Response, decode_request, request_from_dict
from repro.service.requests import wire_fields
from repro.service.session import classify_error
from repro.net.admission import AdmissionController
from repro.net.tenants import Pending, Tenant, TenantManager

__all__ = ["MANAGEMENT_KINDS", "CreateTenant", "EvictTenant", "AssignmentServer"]

#: Request kinds served by the server itself (no engine involved), with
#: their contracts.  ``docs/service.md`` renders this table verbatim and
#: ``tests/test_docs.py`` pins the two in sync.
MANAGEMENT_KINDS: dict[str, str] = {
    "create_tenant": (
        "register a resident engine under `tenant`; exactly one source of "
        "`problem` (inline object), `problem_path`, `snapshot_path` or "
        "`store_path` (SQLite problem store) — or no source on a durable "
        "server to recover the tenant's journal; optional `warm`, `default`"
    ),
    "evict_tenant": (
        "drain `tenant`'s admitted work, optionally persist to "
        "`snapshot_path`, then remove the engine"
    ),
    "list_tenants": "describe every resident tenant (no fields)",
    "promote": (
        "promote a warm standby: finish replaying the received tail, "
        "register the replicated engines as live tenants, start admitting "
        "writes (idempotent; refused on a non-standby)"
    ),
    "replication_status": (
        "report this server's replication role plus, as present, the "
        "primary's shipped/acked watermarks and lag and the standby's "
        "applied seqs and heartbeat age (no fields)"
    ),
    "shutdown": (
        "drain the whole server: refuse new work as `overloaded`, finish "
        "admitted requests, answer, close"
    ),
}


@dataclass(frozen=True)
class _TenantRequest(Request):
    tenant: str = ""

    def __post_init__(self) -> None:
        if not self.tenant:
            raise RequestError(f"a {self.kind} request needs a 'tenant' id")


@dataclass(frozen=True)
class CreateTenant(_TenantRequest):
    """The ``create_tenant`` request, parsed by the engine requests' walk."""

    kind: ClassVar[str] = "create_tenant"

    problem: Mapping[str, Any] | None = None
    problem_path: str | None = None
    snapshot_path: str | None = None
    store_path: str | None = None
    warm: bool = False
    default: bool = False


@dataclass(frozen=True)
class EvictTenant(_TenantRequest):
    """The ``evict_tenant`` request, parsed by the engine requests' walk."""

    kind: ClassVar[str] = "evict_tenant"

    snapshot_path: str | None = None


#: The management kinds with fields; the others take the envelope only.
_MANAGEMENT_TYPES: dict[str, type[Request]] = {
    "create_tenant": CreateTenant,
    "evict_tenant": EvictTenant,
}
for _management_type in (Request, CreateTenant, EvictTenant):
    wire_fields(_management_type)  # resolve every table at import, not per request

# Out-queue item tags: per-connection response order is the queue order.
_LINE = "line"  # (tag, response_dict) — answer known immediately
_PENDING = "pending"  # (tag, tenant_id, Pending) — await the tenant worker
_TASK = "task"  # (tag, asyncio.Task[dict], is_shutdown) — management op


class AssignmentServer:
    """A TCP JSON-lines front end over a :class:`TenantManager`.

    Construct (optionally pre-registering tenants via :meth:`add_tenant`),
    then either ``await run()`` — serve until a ``shutdown`` request —
    or ``await start()`` / ``await stop()`` for explicit lifecycle
    control in tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tenants: TenantManager | None = None,
        admission: AdmissionController | None = None,
        max_line_bytes: int = 1 << 20,
        max_batch: int = 128,
        backlog: int = 2048,
        durability: DurabilityConfig | None = None,
        replicate_to: tuple[str, int] | None = None,
        standby: bool = False,
        auto_promote_after: float | None = None,
        heartbeat_interval: float = 0.25,
    ) -> None:
        self.host = host
        self.port = port
        self.tenants = tenants if tenants is not None else TenantManager(max_batch=max_batch)
        self.admission = admission if admission is not None else AdmissionController()
        self.durability = durability
        self._max_line_bytes = max_line_bytes
        self._backlog = backlog
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._shutdown = asyncio.Event()
        self._drain_task: asyncio.Task | None = None
        self._registry = get_registry()
        self._replicate_to = replicate_to
        self._heartbeat_interval = float(heartbeat_interval)
        self._auto_promote_after = auto_promote_after
        self.replication: ReplicationSender | None = None
        if standby:
            if durability is None:
                raise ConfigurationError(
                    "a standby server needs a durability config — its WAL "
                    "root is where the replicated state lands"
                )
            self.standby: StandbyCoordinator | None = StandbyCoordinator(
                durability
            )
        else:
            self.standby = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def add_tenant(
        self, tenant_id: str, engine: AssignmentEngine, default: bool = False
    ) -> Tenant:
        """Pre-register a resident engine (before or after :meth:`start`).

        On a durable server the tenant gets a fresh journal (checkpoint 0
        is written immediately, so recovery always has a base); existing
        durable state under the same id must be recovered — via
        :meth:`recover_tenants` or a source-less ``create_tenant`` — or
        removed first, never silently shadowed.
        """
        journal = self._journal_for_new_tenant(tenant_id, engine)
        tenant = self.tenants.register(
            tenant_id, engine, default=default, journal=journal
        )
        self._activate(tenant)
        self._wire_shipping(tenant)
        return tenant

    def _wire_shipping(self, tenant: Tenant) -> None:
        """Point a durable tenant's journal at the replication stream."""
        sender = self.replication
        if sender is None or tenant.journal is None:
            return
        tenant_id = tenant.tenant_id
        tenant.journal.on_append = (
            lambda record, prev_seq: sender.ship(tenant_id, record, prev_seq)
        )
        # A fresh wire-up always resyncs: the standby may have never heard
        # of this tenant (new registration) or be behind it (reconnect).
        sender.request_resync(tenant_id)

    async def start_replication(self, host: str, port: int) -> ReplicationSender:
        """Attach a warm standby at ``host:port`` and start shipping.

        Callable at boot (``--replicate-to``) or later — including on a
        freshly promoted standby, which is how a failover chain regains
        redundancy.
        """
        if self.standby is not None and not self.standby.promoted:
            raise ConfigurationError(
                "an unpromoted standby cannot replicate onward; promote it first"
            )
        if self.replication is not None:
            raise ConfigurationError("replication is already configured")
        if self.durability is None:
            raise ConfigurationError(
                "replication needs a durable server (configure a WAL root)"
            )
        self.replication = ReplicationSender(
            self,
            str(host),
            int(port),
            heartbeat_interval=self._heartbeat_interval,
        )
        self.replication.start()
        for tenant_id in self.tenants.ids():
            self._wire_shipping(self.tenants.get(tenant_id))
        return self.replication

    def _activate(self, tenant: Tenant) -> None:
        """Start a freshly registered tenant's worker if we are serving."""
        if self._server is not None and self._loop is not None:
            try:
                running = asyncio.get_running_loop()
            except RuntimeError:
                running = None
            if running is self._loop:
                tenant.start()
            else:  # registered from outside the loop (test harness thread)
                self._loop.call_soon_threadsafe(tenant.start)

    def _journal_for_new_tenant(
        self, tenant_id: str, engine: AssignmentEngine
    ) -> TenantJournal | None:
        if self.durability is None:
            return None
        journal = TenantJournal(self.durability, tenant_id)
        if journal.has_checkpoint():
            raise ConfigurationError(
                f"tenant {tenant_id!r} has durable state under "
                f"{journal.directory}; recover it (server.recover_tenants() "
                "or a source-less create_tenant) or remove the directory first"
            )
        journal.initialise(engine)
        return journal

    def recover_tenants(self) -> list[str]:
        """Re-register every tenant with durable state under the WAL root.

        Synchronous and callable before :meth:`start` (the CLI boot path):
        each journal directory with a checkpoint is recovered — load the
        checkpoint, replay the WAL tail — and the rebuilt engine registered
        under the directory's tenant id.  Already-resident ids are skipped.
        Returns the recovered tenant ids.
        """
        if self.durability is None:
            return []
        root = self.durability.root
        if not root.exists():
            return []
        recovered: list[str] = []
        for directory in sorted(root.iterdir()):
            if not directory.is_dir():
                continue
            tenant_id = directory.name
            if tenant_id in self.tenants:
                continue
            journal = TenantJournal(self.durability, tenant_id)
            if not journal.has_checkpoint():
                continue
            outcome = journal.recover()
            tenant = self.tenants.register(
                tenant_id,
                outcome.engine,
                journal=journal,
                first_seq=outcome.next_seq,
            )
            self._activate(tenant)
            self._wire_shipping(tenant)
            recovered.append(tenant_id)
        return recovered

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port — the collision-safe default
        for tests and for several servers on one machine.
        """
        if self._server is not None:
            raise ConfigurationError("server is already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_client,
            self.host,
            self.port,
            limit=self._max_line_bytes,
            backlog=self._backlog,
        )
        for tenant_id in self.tenants.ids():
            self.tenants.get(tenant_id).start()
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.standby is not None:
            self.standby.start_monitor(self, self._auto_promote_after)
        if self._replicate_to is not None and self.replication is None:
            await self.start_replication(*self._replicate_to)
        return self.host, self.port

    async def wait_shutdown(self) -> None:
        """Block until a ``shutdown`` request has been served."""
        await self._shutdown.wait()

    async def drain(self) -> dict[str, Any]:
        """Gracefully drain the server and release :meth:`wait_shutdown`.

        The SIGTERM/SIGINT path: identical to serving a ``shutdown``
        request — admission flips to draining, the listener closes,
        admitted work finishes (durable tenants write a final checkpoint)
        — except there is no connection to answer on.  Idempotent:
        concurrent calls share one drain.
        """
        if self._drain_task is None:

            async def _do() -> dict[str, Any]:
                body = await self._drain_server()
                self._shutdown.set()
                return body

            self._drain_task = asyncio.get_running_loop().create_task(_do())
        return await asyncio.shield(self._drain_task)

    async def abort(self) -> None:
        """Crash-stop: drop listener, connections and workers — no drain,
        no final checkpoints, no answers (the recovery tests' kill switch)."""
        if self.replication is not None:
            await self.replication.stop()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        await self.tenants.abort_all()
        if self.standby is not None:
            await self.standby.abort()
        self._registry.gauge(
            "service.net.open_connections", "currently connected clients"
        ).set(0)

    async def run(self) -> None:
        """Serve until a ``shutdown`` request, then close everything."""
        await self.start()
        try:
            await self.wait_shutdown()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Close the listener, every connection, and every tenant."""
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        await self.tenants.close_all()
        if self.replication is not None:
            await self.replication.stop()
        if self.standby is not None:
            await self.standby.close()
        self._registry.gauge(
            "service.net.open_connections", "currently connected clients"
        ).set(0)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._registry.counter(
            "service.net.connections", "client connections accepted"
        ).inc()
        open_gauge = self._registry.gauge(
            "service.net.open_connections", "currently connected clients"
        )
        open_gauge.inc(1)
        out: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.get_running_loop().create_task(
            self._writer_loop(writer, out)
        )
        cancelled = False
        try:
            await self._reader_loop(reader, out)
        except asyncio.CancelledError:
            # Swallowed on purpose: this is the task's outermost frame, the
            # only canceller is stop(), and 3.11's streams callback logs a
            # spurious error for handler tasks that finish cancelled.
            cancelled = True
        finally:
            out.put_nowait(None)
            if cancelled:
                writer_task.cancel()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer_task
            open_gauge.inc(-1)
            if task is not None:
                self._conn_tasks.discard(task)

    async def _reader_loop(
        self, reader: asyncio.StreamReader, out: asyncio.Queue
    ) -> None:
        while True:
            try:
                raw = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as eof:
                if eof.partial:
                    self._handle_line(eof.partial, out)
                return
            except asyncio.LimitOverrunError:
                # The line exceeds the stream limit: one structured answer,
                # then discard bytes until its newline so the next frame
                # parses cleanly.
                self._registry.counter(
                    "service.net.protocol_errors", "unparseable input frames"
                ).inc()
                out.put_nowait(
                    (
                        _LINE,
                        Response.failure(
                            kind="parse",
                            error=(
                                "request line exceeds the "
                                f"{self._max_line_bytes}-byte limit"
                            ),
                        ).to_dict(),
                    )
                )
                if not await self._discard_line(reader):
                    return
            except (ConnectionResetError, OSError):
                return
            else:
                try:
                    self._handle_line(raw, out)
                except Exception as exc:  # noqa: BLE001 — fuzz contract: the
                    # reader loop survives anything a frame can throw at it
                    self._registry.counter(
                        "service.net.protocol_errors", "unparseable input frames"
                    ).inc()
                    out.put_nowait(
                        (
                            _LINE,
                            Response.failure(
                                kind="parse",
                                error=f"{type(exc).__name__}: {exc}",
                                error_type="internal",
                            ).to_dict(),
                        )
                    )

    async def _discard_line(self, reader: asyncio.StreamReader) -> bool:
        """Drop input until (and including) the next newline; False on EOF."""
        while True:
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.LimitOverrunError as overrun:
                await reader.read(max(1, overrun.consumed))
            except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
                return False

    # ------------------------------------------------------------------
    # Per-line routing
    # ------------------------------------------------------------------
    def _handle_line(self, raw: bytes, out: asyncio.Queue) -> None:
        """Parse, route and admit one frame; always enqueues ≤1 response.

        Blank lines are skipped (matching the stdio loop); every other
        frame gets exactly one response, in arrival order.
        """
        if not raw.strip():
            return
        self._registry.counter(
            "service.net.requests", "non-blank request frames received"
        ).inc()

        def refuse(kind: str, error: str, error_type: str, request_id: Any = None) -> None:
            if error_type == "overloaded":
                self._registry.counter(
                    "service.net.overloaded", "requests refused by admission control"
                ).inc()
            elif error_type != "standby":  # standby refusals are well-formed
                self._registry.counter(
                    "service.net.protocol_errors", "unparseable input frames"
                ).inc()
            out.put_nowait(
                (
                    _LINE,
                    Response.failure(
                        kind=kind,
                        error=error,
                        error_type=error_type,
                        request_id=request_id,
                    ).to_dict(),
                )
            )

        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            refuse("parse", f"invalid UTF-8: {exc}", "request")
            return
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            refuse("parse", f"invalid JSON: {exc}", "request")
            return
        if not isinstance(payload, dict):
            refuse("parse", "a request must be a JSON object", "request")
            return

        request_id = payload.get("id")
        kind = payload.get("kind")
        if isinstance(kind, str) and kind in MANAGEMENT_KINDS:
            try:
                management = decode_request(_MANAGEMENT_TYPES.get(kind, Request), payload)
            except RequestError as exc:
                refuse(kind, str(exc), "request", request_id)
                return
            task = asyncio.get_running_loop().create_task(
                self._manage(kind, management)
            )
            out.put_nowait((_TASK, task, kind == "shutdown"))
            return
        if isinstance(kind, str) and kind in REPLICATION_KINDS:
            task = asyncio.get_running_loop().create_task(
                self._replicate(kind, payload)
            )
            out.put_nowait((_TASK, task, False))
            return

        try:
            request = request_from_dict(payload)
        except RequestError as exc:
            refuse("parse", str(exc), "request", request_id)
            return
        if self.standby is not None and not self.standby.promoted:
            refuse(
                request.kind,
                "this server is a warm standby (not promoted); "
                "fail over to the primary",
                "standby",
                request_id,
            )
            return
        if self.admission.draining:
            refuse(
                request.kind,
                "server is draining; no new requests are admitted",
                "overloaded",
                request_id,
            )
            return
        try:
            tenant = self.tenants.resolve(payload.get("tenant"))
        except (RequestError, KeyError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            refuse(request.kind, str(message), classify_error(exc), request_id)
            return
        if tenant.closed:
            refuse(
                request.kind,
                f"tenant {tenant.tenant_id!r} is draining; retry later",
                "overloaded",
                request_id,
            )
            return
        reason = self.admission.try_admit(tenant.tenant_id)
        if reason is not None:
            refuse(request.kind, reason, "overloaded", request_id)
            return
        pending = tenant.submit(request)
        pending.future.add_done_callback(
            lambda _f, tenant_id=tenant.tenant_id, handle=pending: (
                self._on_request_done(tenant_id, handle)
            )
        )
        out.put_nowait((_PENDING, tenant.tenant_id, pending))

    def _on_request_done(self, tenant_id: str, pending: Pending) -> None:
        self.admission.release(tenant_id)
        elapsed = asyncio.get_running_loop().time() - pending.enqueued
        self._registry.histogram(
            "service.net.request.seconds", "queue-to-answer request latency"
        ).observe(elapsed)

    async def _writer_loop(
        self, writer: asyncio.StreamWriter, out: asyncio.Queue
    ) -> None:
        """Answer in queue order; a ``None`` sentinel flushes and exits."""
        try:
            while True:
                item = await out.get()
                if item is None:
                    break
                is_shutdown = False
                if item[0] == _LINE:
                    data = item[1]
                elif item[0] == _PENDING:
                    _, tenant_id, pending = item
                    await pending.future
                    data = pending.response.to_dict()
                    data["tenant"] = tenant_id
                    data["seq"] = pending.seq
                else:
                    _, task, is_shutdown = item
                    data = await task
                try:
                    get_failpoints().hit("socket_write")
                except FaultInjected:
                    # Simulate the connection dying with the response in
                    # flight: the work is done (and journaled), the client
                    # never hears — its retry must hit the idempotency map.
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    break
                writer.write(json.dumps(data).encode("utf-8") + b"\n")
                await writer.drain()
                if is_shutdown:
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # the client went away; admitted work still completes
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------
    async def _manage(self, kind: str, request: Request) -> dict[str, Any]:
        """Serve one parsed management request; failures become structured responses."""
        request_id = request.request_id
        try:
            if (
                kind in ("create_tenant", "evict_tenant")
                and self.standby is not None
                and not self.standby.promoted
            ):
                return Response.failure(
                    kind=kind,
                    error=(
                        "this server is a warm standby (not promoted); "
                        "tenant management is refused"
                    ),
                    error_type="standby",
                    request_id=request_id,
                ).to_dict()
            if isinstance(request, CreateTenant):
                body = await self._create_tenant(request)
            elif isinstance(request, EvictTenant):
                body = await self._evict_tenant(request)
            elif kind == "list_tenants":
                body = self._list_tenants()
            elif kind == "promote":
                body = await self._promote()
            elif kind == "replication_status":
                body = self._replication_status()
            else:  # shutdown
                body = await self._drain_server()
            return Response(
                kind=kind, ok=True, payload=body, request_id=request_id
            ).to_dict()
        except Exception as exc:  # noqa: BLE001 — management must not kill the loop
            message = exc.args[0] if exc.args else str(exc)
            error_type = classify_error(exc)
            if error_type == "internal":
                message = f"{type(exc).__name__}: {exc}"
            return Response.failure(
                kind=kind,
                error=str(message),
                error_type=error_type,
                request_id=request_id,
            ).to_dict()

    async def _create_tenant(self, request: CreateTenant) -> dict[str, Any]:
        tenant_id = request.tenant
        if self.admission.draining:
            raise RequestError("server is draining; no new tenants are admitted")
        sources = [
            name
            for name in ("problem", "problem_path", "snapshot_path", "store_path")
            if getattr(request, name) is not None
        ]
        if tenant_id in self.tenants:
            raise ConfigurationError(
                f"tenant {tenant_id!r} already exists; evict it first"
            )
        if len(sources) == 0 and self.durability is not None:
            # A source-less create on a durable server resumes the
            # tenant's journaled state (the wire-level recovery path).
            journal = TenantJournal(self.durability, tenant_id)
            if journal.has_checkpoint():
                outcome = await asyncio.to_thread(journal.recover)
                tenant = self.tenants.register(
                    tenant_id,
                    outcome.engine,
                    default=request.default,
                    journal=journal,
                    first_seq=outcome.next_seq,
                )
                tenant.start()
                self._wire_shipping(tenant)
                return {
                    "tenant": tenant_id,
                    "recovered": outcome.stats.to_dict(),
                    **tenant.describe(),
                }
        if len(sources) != 1:
            raise RequestError(
                "a create_tenant request needs exactly one of "
                "'problem', 'problem_path', 'snapshot_path' or 'store_path'"
                + (
                    " (or existing durable state to recover)"
                    if self.durability is not None
                    else ""
                )
            )
        engine = await asyncio.to_thread(self._build_engine, request)
        journal = await asyncio.to_thread(
            self._journal_for_new_tenant, tenant_id, engine
        )
        tenant = self.tenants.register(
            tenant_id,
            engine,
            default=request.default,
            journal=journal,
        )
        tenant.start()
        self._wire_shipping(tenant)
        if request.warm:
            await tenant.run_in_worker(engine.warm)
        return {"tenant": tenant_id, **tenant.describe()}

    @staticmethod
    def _build_engine(request: CreateTenant) -> AssignmentEngine:
        if request.snapshot_path is not None:
            return AssignmentEngine.load(request.snapshot_path)
        if request.store_path is not None:
            from repro.store.sqlite import SqliteProblemStore

            return AssignmentEngine.from_store(
                SqliteProblemStore.open(request.store_path)
            )
        if request.problem_path is not None:
            from repro.data.io import load_problem

            return AssignmentEngine(load_problem(request.problem_path))
        from repro.data.io import problem_from_dict

        return AssignmentEngine(problem_from_dict(dict(request.problem)))

    async def _evict_tenant(self, request: EvictTenant) -> dict[str, Any]:
        tenant_id = request.tenant
        tenant = await self.tenants.evict(tenant_id)
        self.admission.forget(tenant_id)
        body: dict[str, Any] = {"tenant": tenant_id, "evicted": True}
        if request.snapshot_path is not None:
            # The tenant is drained and its worker stopped: the engine is
            # quiescent, so snapshotting off-loop is safe.
            path = await asyncio.to_thread(
                tenant.engine.save_snapshot, request.snapshot_path
            )
            body["snapshot_path"] = str(path)
        return body

    def _list_tenants(self) -> dict[str, Any]:
        return {
            "tenants": self.tenants.describe(),
            "default": self.tenants.default_tenant,
            "pending": self.admission.total_pending,
            "draining": self.admission.draining,
        }

    async def _replicate(self, kind: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Serve one replication frame (standby side); refusals structure."""
        request_id = payload.get("id")
        try:
            if self.standby is None:
                raise ConfigurationError(
                    "this server is not a standby; replication frames are refused"
                )
            body = await self.standby.handle(kind, payload)
            return Response(
                kind=kind, ok=True, payload=body, request_id=request_id
            ).to_dict()
        except Exception as exc:  # noqa: BLE001 — frames must not kill the loop
            message = exc.args[0] if exc.args else str(exc)
            error_type = classify_error(exc)
            if error_type == "internal":
                message = f"{type(exc).__name__}: {exc}"
            return Response.failure(
                kind=kind,
                error=str(message),
                error_type=error_type,
                request_id=request_id,
            ).to_dict()

    async def _promote(self) -> dict[str, Any]:
        if self.standby is None:
            raise ConfigurationError(
                "this server is not a standby; there is nothing to promote"
            )
        body = await self.standby.promote(self)
        # The new primary ships onward if replication was configured later.
        for tenant_id in self.tenants.ids():
            self._wire_shipping(self.tenants.get(tenant_id))
        return body

    def _replication_status(self) -> dict[str, Any]:
        if self.standby is not None and not self.standby.promoted:
            role = "standby"
        elif self.replication is not None or self.standby is not None:
            role = "primary"
        else:
            role = "standalone"
        body: dict[str, Any] = {"role": role}
        if self.standby is not None:
            body["standby"] = self.standby.status(
                asyncio.get_running_loop().time()
            )
        if self.replication is not None:
            body["replication"] = self.replication.status()
        return body

    async def _drain_server(self) -> dict[str, Any]:
        self.admission.drain()
        if self._server is not None:
            self._server.close()
        closed = len(self.tenants)
        await self.tenants.close_all()
        return {"shutdown": True, "tenants_closed": closed}
