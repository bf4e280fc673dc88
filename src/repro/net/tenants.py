"""Multi-tenancy: many resident engines, one per conference id.

A tenant is one conference: an :class:`~repro.service.engine.AssignmentEngine`
plus the :class:`~repro.service.session.EngineSession` that dispatches to
it, a FIFO request queue, and a **single-thread executor**.  The shape
answers the two constraints of serving CPU-bound solver work from an
asyncio loop:

* solver work must not block the event loop — every batch runs in the
  tenant's worker thread via ``run_in_executor``, so accepts, parses and
  admission decisions stay responsive under long solves;
* the engine is single-writer by design — one worker thread per tenant
  serialises all access, so no engine-level locking is needed and
  request effects apply in a well-defined total order (the ``seq``
  number echoed on every response).

Whenever the worker wakes it takes *everything* queued at that moment —
requests from any number of connections — into one executor hop, and
serves them one at a time, in queue order, through
:meth:`EngineSession.dispatch`, the same path as the stdio loop.  A
response therefore never depends on where a batch boundary fell, which
is what makes the concurrent server bitwise-conformant with a serial
replay.  The batch is the unit of one WAL fsync, one ``net.batch`` span
and the ``service.net.batches`` / ``batched_requests`` counters.

A tenant given a :class:`~repro.durability.TenantJournal` is **durable**:
each mutation in a batch is appended to the write-ahead log *before* it
executes, retried mutations (same client ``seq``) are answered from the
idempotency map without re-executing, and a crash anywhere in the worker
triggers a supervised restart — rebuild the engine from checkpoint + WAL
replay (``service.net.worker_restarts``), answer the in-flight batch from
already-computed responses, replayed responses and fresh dispatches, and
keep serving.  Every batch attaches each response to its :class:`Pending`
*as it is computed*, so a mid-batch crash loses nothing that was already
answered; a tenant without a journal answers the rest of a crashed batch
with ``internal`` errors.
"""

from __future__ import annotations

import asyncio
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.durability.journal import TenantJournal
from repro.exceptions import RequestError
from repro.fault import get_failpoints
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.service.engine import AssignmentEngine
from repro.service.requests import MUTATION_KINDS, Request, Response
from repro.service.session import EngineSession

TRACER = get_tracer()

__all__ = ["Pending", "Tenant", "TenantManager"]


@dataclass
class Pending:
    """One admitted request waiting for (or holding) its response."""

    request: Request
    future: asyncio.Future
    seq: int
    enqueued: float = 0.0
    response: Response | None = None


class Tenant:
    """One resident conference: engine + session + queue + worker thread."""

    def __init__(
        self,
        tenant_id: str,
        engine: AssignmentEngine,
        max_batch: int = 128,
        journal: TenantJournal | None = None,
        first_seq: int = 1,
    ) -> None:
        self.tenant_id = tenant_id
        self.engine = engine
        self.session = EngineSession(engine)
        self.journal = journal
        self.worker_restarts = 0
        self._max_batch = max(1, max_batch)
        self._queue: asyncio.Queue[Pending] = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"tenant-{tenant_id}"
        )
        self._worker: asyncio.Task | None = None
        self._seq = itertools.count(max(1, first_seq))
        self._inflight = 0
        self._idle: asyncio.Event = asyncio.Event()
        self._idle.set()
        self.closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker task (requires a running event loop)."""
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name=f"tenant-worker-{self.tenant_id}"
            )

    async def close(self) -> None:
        """Drain queued work, stop the worker, release the thread.

        New submissions must already have been cut off (``closed`` is set
        here first; the server's admission path checks it).  Queued and
        in-flight requests are answered normally before the worker dies —
        eviction never drops admitted work.
        """
        self.closed = True
        await self._idle.wait()
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        if self.journal is not None:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self._final_checkpoint
            )
        elif self.engine.store is not None:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self._close_store
            )
        self._executor.shutdown(wait=True)

    def _final_checkpoint(self) -> None:
        """Checkpoint on graceful close so restart needs no WAL replay.

        Best-effort: a failed final checkpoint (e.g. an injected
        ``snapshot_write`` fault) must not sink the drain — the WAL
        already holds everything, recovery just replays a longer tail.
        """
        try:
            self.journal.checkpoint(self.engine)
        except Exception:  # noqa: BLE001
            pass
        finally:
            self.journal.close()
            self._close_store()

    def _close_store(self) -> None:
        """Commit and release the tenant's problem store, if any."""
        store = self.engine.store
        if store is None:
            return
        try:
            store.close()
        except Exception:  # noqa: BLE001
            pass

    async def abort(self) -> None:
        """Crash-stop the tenant: no drain, no checkpoint, no answers.

        The crash-recovery tests use this to simulate a process dying
        mid-stream; the journal's WAL file is simply dropped (appends are
        flushed per record, so a same-machine reader sees them all).
        """
        self.closed = True
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.journal is not None:
            self.journal.abort()
        store = self.engine.store
        if store is not None:
            # Crash semantics: discard uncommitted deltas, never commit.
            store.abort()

    # ------------------------------------------------------------------
    # Request flow
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Admitted-but-unanswered requests (queue + in execution)."""
        return self._inflight

    def submit(self, request: Request) -> Pending:
        """Enqueue one request; returns its :class:`Pending` handle.

        Must be called from the event loop thread, after admission.  The
        handle's future resolves (in the loop) to the handle itself once
        the response is attached.
        """
        if self.closed:
            raise RequestError(f"tenant {self.tenant_id!r} is shutting down")
        loop = asyncio.get_running_loop()
        pending = Pending(
            request=request,
            future=loop.create_future(),
            seq=next(self._seq),
            enqueued=loop.time(),
        )
        self._inflight += 1
        self._idle.clear()
        pending.future.add_done_callback(self._on_answered)
        self._queue.put_nowait(pending)
        return pending

    async def run_in_worker(self, fn, *args):
        """Run ``fn`` on this tenant's worker thread (serialised with batches)."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    def _on_answered(self, _future: asyncio.Future) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self._max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                responses = await loop.run_in_executor(
                    self._executor, self._serve_batch_durable, batch
                )
            except Exception as exc:  # noqa: BLE001 — the worker crashed
                if self.journal is not None:
                    responses = await self._restart_worker(batch, exc)
                else:
                    responses = self._answer_unanswered(batch, exc)
            for pending, response in zip(batch, responses):
                pending.response = response
                if not pending.future.done():
                    pending.future.set_result(pending)

    # ------------------------------------------------------------------
    # Serving (worker thread).  Both methods serve every tenant, with or
    # without a journal; ``perfbench/pb_spans.py`` wraps them by these
    # names, so a rename must land with a benchmark change.
    # ------------------------------------------------------------------
    def _serve_batch_durable(self, batch: list[Pending]) -> list[Response]:
        """Serve one drained batch in the tenant's worker thread.

        Serial per request (:meth:`_serve_one_durable`), attaching each
        response to its :class:`Pending` as it is computed: a crash
        between requests then reuses every response already computed
        instead of recomputing (and re-applying) the prefix.  A durable
        tenant fsyncs the batch's WAL appends once at the end and
        checkpoints when one is due.
        """
        registry = get_registry()
        get_failpoints().hit("tenant_worker")
        with TRACER.span("net.batch", tenant=self.tenant_id, size=len(batch)):
            for pending in batch:
                pending.response = self._serve_one_durable(pending)
            if self.journal is not None:
                self.journal.sync_batch()
                if self.journal.should_checkpoint:
                    self.journal.checkpoint(self.engine)
        registry.counter(
            "service.net.batches", "tenant-worker batch drains"
        ).inc()
        registry.counter(
            "service.net.batched_requests", "requests served through batch drains"
        ).inc(len(batch))
        return [pending.response for pending in batch]

    def _serve_one_durable(self, pending: Pending) -> Response:
        """Dedupe check → WAL append → dispatch → idempotency-map update.

        Only dispatch runs without a journal; with one, the other steps
        apply to mutations.
        """
        request = pending.request
        journaled = self.journal is not None and request.kind in MUTATION_KINDS
        if journaled and request.client_seq is not None:
            stored = self.journal.applied.get(request.client_seq)
            if stored is not None:
                # A retry of an already-applied mutation: answer from the
                # stored response — exactly-once, no WAL append.
                get_registry().counter(
                    "durability.deduped",
                    "mutations answered from the idempotency map",
                ).inc()
                return stored
        if journaled:
            self.journal.append(pending.seq, request)
        response = self.session.dispatch(request)
        if journaled and request.client_seq is not None:
            self.journal.record_applied(request.client_seq, response)
        return response

    async def _restart_worker(self, batch: list[Pending], exc: BaseException) -> list[Response]:
        """Supervised restart after a worker crash (durable tenants only).

        Rebuild engine + session from checkpoint + WAL replay, then answer
        the in-flight batch: responses computed before the crash are kept,
        the request that was journaled-but-unanswered is answered from its
        replayed response, and the unserved suffix is dispatched fresh.  A
        second crash while finishing the batch downgrades to internal-error
        answers instead of restarting forever.
        """
        self.worker_restarts += 1
        get_registry().counter(
            "service.net.worker_restarts",
            "supervised tenant-worker restarts after a crash",
        ).inc()
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                self._executor, self._rebuild_from_journal
            )
            return await loop.run_in_executor(
                self._executor, self._answer_after_restart, batch, outcome
            )
        except Exception as again:  # noqa: BLE001 — no restart loops
            return self._answer_unanswered(batch, again)

    @staticmethod
    def _answer_unanswered(batch: list[Pending], exc: BaseException) -> list[Response]:
        """Keep the responses already attached; the rest become ``internal``."""
        return [
            pending.response
            if pending.response is not None
            else Response.failure(
                kind=pending.request.kind,
                error=f"{type(exc).__name__}: {exc}",
                request_id=pending.request.request_id,
                error_type="internal",
            )
            for pending in batch
        ]

    def _rebuild_from_journal(self):
        outcome = self.journal.recover(parallel=self.engine.parallel)
        self.engine = outcome.engine
        self.session = EngineSession(outcome.engine)
        return outcome

    def _answer_after_restart(self, batch: list[Pending], outcome) -> list[Response]:
        responses: list[Response] = []
        for pending in batch:
            if pending.response is not None:
                responses.append(pending.response)
            elif pending.seq in outcome.replayed:
                responses.append(outcome.replayed[pending.seq])
            else:
                responses.append(self._serve_one_durable(pending))
        self.journal.sync_batch()
        return responses

    def describe(self) -> dict[str, Any]:
        """JSON-serialisable summary for ``list_tenants``."""
        problem = self.engine.problem
        return {
            "pending": self.pending,
            "revision": self.engine.revision,
            "num_papers": problem.num_papers,
            "num_reviewers": problem.num_reviewers,
            "has_assignment": self.engine.assignment is not None,
            "closed": self.closed,
            "durable": self.journal is not None,
            "store_backed": self.engine.store is not None,
            "store_path": (
                str(self.engine.store_path)
                if self.engine.store_path is not None
                else None
            ),
            "worker_restarts": self.worker_restarts,
            **(
                {"durability": self.journal.describe()}
                if self.journal is not None
                else {}
            ),
        }


class TenantManager:
    """The resident tenant map, keyed by conference id."""

    def __init__(self, max_batch: int = 128) -> None:
        self._tenants: dict[str, Tenant] = {}
        self._max_batch = max_batch
        self.default_tenant: str | None = None

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def ids(self) -> list[str]:
        return sorted(self._tenants)

    def register(
        self,
        tenant_id: str,
        engine: AssignmentEngine,
        default: bool = False,
        journal: TenantJournal | None = None,
        first_seq: int = 1,
    ) -> Tenant:
        """Add a resident engine under ``tenant_id``.

        A ``journal`` makes the tenant durable (write-ahead logged);
        ``first_seq`` seeds the execution sequence past what a recovered
        journal already contains.

        Raises
        ------
        ConfigurationError
            If the id is already taken (evict first).
        """
        from repro.exceptions import ConfigurationError

        if not tenant_id:
            raise RequestError("a tenant id must be a non-empty string")
        if tenant_id in self._tenants:
            raise ConfigurationError(
                f"tenant {tenant_id!r} already exists; evict it first"
            )
        tenant = Tenant(
            tenant_id,
            engine,
            max_batch=self._max_batch,
            journal=journal,
            first_seq=first_seq,
        )
        self._tenants[tenant_id] = tenant
        if default or self.default_tenant is None:
            self.default_tenant = tenant_id
        get_registry().gauge(
            "service.net.tenants", "resident tenant engines"
        ).set(len(self._tenants))
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise KeyError(f"unknown tenant id: {tenant_id!r}") from None

    def resolve(self, tenant_id: str | None) -> Tenant:
        """The tenant a request names — or the unambiguous default.

        ``None`` falls back to the configured default tenant, or to the
        only resident tenant when exactly one exists.
        """
        if tenant_id is not None:
            return self.get(tenant_id)
        if self.default_tenant is not None and self.default_tenant in self._tenants:
            return self._tenants[self.default_tenant]
        if len(self._tenants) == 1:
            return next(iter(self._tenants.values()))
        raise RequestError(
            "a request needs a 'tenant' field (no default tenant is configured); "
            f"resident tenants: {self.ids()}"
        )

    async def evict(self, tenant_id: str) -> Tenant:
        """Drain and remove one tenant; returns the closed tenant."""
        tenant = self.get(tenant_id)
        await tenant.close()
        del self._tenants[tenant_id]
        if self.default_tenant == tenant_id:
            self.default_tenant = next(iter(sorted(self._tenants)), None)
        get_registry().gauge(
            "service.net.tenants", "resident tenant engines"
        ).set(len(self._tenants))
        return tenant

    async def close_all(self) -> None:
        """Drain and close every tenant (server shutdown)."""
        for tenant_id in self.ids():
            tenant = self._tenants.pop(tenant_id)
            await tenant.close()
        get_registry().gauge(
            "service.net.tenants", "resident tenant engines"
        ).set(0)

    async def abort_all(self) -> None:
        """Crash-stop every tenant (the recovery tests' kill switch)."""
        for tenant_id in self.ids():
            tenant = self._tenants.pop(tenant_id)
            await tenant.abort()
        get_registry().gauge(
            "service.net.tenants", "resident tenant engines"
        ).set(0)

    def describe(self) -> dict[str, Any]:
        return {tenant_id: tenant.describe() for tenant_id, tenant in sorted(self._tenants.items())}
