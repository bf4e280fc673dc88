"""Request-serving front end over an :class:`AssignmentEngine`.

Two layers live here:

* :class:`EngineSession` — typed dispatch of one request with error
  isolation.  Every front end (the stdio loop, ``wgrap session``, TCP
  tenants with or without a write-ahead log, WAL recovery and the warm
  standby) serves each request through :meth:`EngineSession.dispatch`.
  The session keeps no state of its own: its counters are read back
  from the engine's metrics registry.
* :func:`serve_stream` — the JSON-lines loop behind ``wgrap serve`` and
  ``wgrap session``: one request object per input line, one response
  object per output line.  Malformed lines produce ``ok: false``
  responses instead of killing the server; a ``{"kind": "shutdown"}``
  request ends the loop.

Every dispatched request is timed into the engine's metrics registry
(``service.request.<kind>.seconds`` histograms, ``service.requests`` /
``service.failures`` / ``service.errors.<error_type>`` counters) and runs
under a ``request.<kind>`` span, so a ``metrics`` request reports p50/p99
latency per request kind and a ``trace`` request can replay any recent
request's span tree by the ``trace`` id echoed on its response.  A serving
loop given a slow-request threshold additionally emits one structured
JSON line per offending request on a diagnostics stream — never on the
wire-protocol output.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable
from typing import Any, TextIO

from repro.exceptions import (
    ConfigurationError,
    InfeasibleAssignmentError,
    InfeasibleProblemError,
    ReproError,
    RequestError,
    SolverError,
    UnknownScoringFunctionError,
    UnknownSolverError,
)
from repro.fault import get_failpoints
from repro.obs.trace import get_tracer
from repro.service.engine import AssignmentEngine
from repro.service.requests import (
    AddPaper,
    Evaluate,
    Fault,
    JournalQuery,
    Metrics,
    PortfolioSolve,
    Request,
    Response,
    Shutdown,
    Snapshot,
    SolveRequest,
    Stats,
    Trace,
    UpdateBids,
    WithdrawReviewer,
    request_from_dict,
)

TRACER = get_tracer()

__all__ = ["ERROR_TYPES", "EngineSession", "classify_error", "serve_stream"]

#: The closed vocabulary of structured ``error_type`` codes, with what each
#: means to a client.  :func:`classify_error` maps exceptions onto the first
#: seven; ``overloaded`` is produced by the network layer's admission
#: control (:mod:`repro.net.admission`) before a request reaches a session,
#: and ``standby`` by an unpromoted warm standby refusing engine traffic
#: (:mod:`repro.replication`).  ``docs/service.md`` renders this table and
#: ``tests/test_docs.py`` pins the two in sync.
ERROR_TYPES: dict[str, str] = {
    "request": "malformed input: bad JSON, unknown kind, missing or ill-typed fields",
    "unknown_solver": "a solver name not present in the registry",
    "unknown_id": "a paper, reviewer or tenant id the server does not know",
    "infeasible": "the instance (or requested mutation) admits no feasible assignment",
    "configuration": "inconsistent options (bad top_k, bad pool_size, duplicate tenant, ...)",
    "solver": "a solver failed to produce a result",
    "internal": "an unexpected failure; the exception class is named, no traceback leaks",
    "overloaded": "refused by admission control (backlog full or server draining); retry later",
    "standby": "this endpoint is an unpromoted warm standby; fail over to the primary (or retry after promotion)",
}


def classify_error(exc: BaseException) -> str:
    """Map an exception to the structured ``error_type`` of the wire protocol.

    Ordered most-specific first (``UnknownSolverError`` subclasses both
    :class:`~repro.exceptions.ConfigurationError` and :class:`KeyError`).
    The serving loop attaches the result to every failed response so
    clients can branch on a stable code instead of parsing messages.
    """
    if isinstance(exc, UnknownSolverError):
        return "unknown_solver"
    if isinstance(exc, UnknownScoringFunctionError):
        return "configuration"  # a scoring name, not a solver name
    if isinstance(exc, (InfeasibleProblemError, InfeasibleAssignmentError)):
        return "infeasible"
    if isinstance(exc, RequestError):
        return "request"
    if isinstance(exc, SolverError):
        return "solver"
    if isinstance(exc, ConfigurationError):
        return "configuration"
    if isinstance(exc, KeyError):
        return "unknown_id"
    if isinstance(exc, (ReproError, ValueError)):
        return "request"
    return "internal"


class EngineSession:
    """Typed, error-isolated dispatch of requests to one engine.

    The session holds nothing but the engine: ordering belongs to the
    caller (a serving loop or a tenant's worker thread), state and caches
    to the engine, and the dispatch counters to the engine's metrics
    registry.  Any number of sessions over one engine therefore agree on
    :meth:`stats`.
    """

    def __init__(self, engine: AssignmentEngine) -> None:
        self._engine = engine

    @property
    def engine(self) -> AssignmentEngine:
        """The engine this session serves."""
        return self._engine

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        """Serve one request immediately, converting failures to responses.

        *Every* exception becomes a structured ``ok: false`` response —
        domain errors with their specific ``error_type``, unexpected ones
        as ``"internal"`` with the exception class named in the message.
        The serving loop therefore never leaks a traceback to the client
        and never dies on a single bad request.

        Every dispatch is timed into ``service.request.<kind>.seconds``
        on the engine's metrics registry, and — when tracing is enabled —
        recorded as a ``request.<kind>`` span tree whose id the response
        carries as ``trace``.
        """
        registry = self._engine.metrics_registry
        registry.counter("service.requests", "requests dispatched").inc()
        trace_id = TRACER.new_trace_id() if TRACER.enabled else None
        started = time.perf_counter()
        error: str | None = None
        error_type: str | None = None
        payload: dict[str, Any] = {}
        try:
            with TRACER.span(f"request.{request.kind}", trace_id=trace_id):
                payload = self._handle(request)
        except (ReproError, KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            error, error_type = str(message), classify_error(exc)
        except Exception as exc:  # noqa: BLE001 — the loop must survive anything
            error, error_type = f"{type(exc).__name__}: {exc}", "internal"
        elapsed = time.perf_counter() - started
        registry.histogram(
            f"service.request.{request.kind}.seconds",
            "per-kind request latency",
        ).observe(elapsed)
        if error is not None:
            registry.counter("service.failures", "requests that failed").inc()
            registry.counter(
                f"service.errors.{error_type}", "failures by error type"
            ).inc()
            return Response.failure(
                kind=request.kind,
                error=error,
                request_id=request.request_id,
                error_type=error_type or "internal",
                trace_id=trace_id,
                elapsed_seconds=elapsed,
            )
        return Response(
            kind=request.kind,
            ok=True,
            payload=payload,
            request_id=request.request_id,
            trace_id=trace_id,
            elapsed_seconds=elapsed,
        )

    def _handle(self, request: Request) -> dict[str, Any]:
        engine = self._engine
        if isinstance(request, SolveRequest):
            result = engine.solve(solver=request.solver, **dict(request.options))
            return {
                "solver": result.solver_name,
                "score": result.score,
                "elapsed_seconds": result.elapsed_seconds,
                "assignment": result.assignment.to_dict(),
            }
        if isinstance(request, PortfolioSolve):
            outcome = engine.solve_portfolio(
                solvers=request.solvers or None,
                deadline=request.deadline,
                **dict(request.options),
            )
            payload = outcome.to_payload()
            payload["assignment"] = outcome.best.assignment.to_dict()
            return payload
        if isinstance(request, JournalQuery):
            answer = engine.journal_query(
                paper=request.paper if request.paper is not None else request.paper_id,
                group_size=request.group_size,
                top_k=request.top_k,
                solver=request.solver,
                pool_size=request.pool_size,
            )
            return answer.to_payload()
        if isinstance(request, AddPaper):
            delta = engine.add_paper(
                request.paper,
                reviewer_workload=request.reviewer_workload,
                pool_size=request.pool_size,
            )
            return delta.to_payload()
        if isinstance(request, WithdrawReviewer):
            delta = engine.withdraw_reviewer(request.reviewer_id)
            return delta.to_payload()
        if isinstance(request, UpdateBids):
            recorded = engine.update_bids(request.bids)
            return {"recorded": recorded, "total_bids": len(engine.bids)}
        if isinstance(request, Evaluate):
            return engine.evaluate(
                include_ratio=request.include_ratio,
                include_per_paper=request.include_per_paper,
            )
        if isinstance(request, Snapshot):
            path = engine.save_snapshot(request.path)
            return {"path": str(path)}
        if isinstance(request, Stats):
            return self.stats()
        if isinstance(request, Metrics):
            if request.format == "prometheus":
                return {"exposition": engine.metrics_prometheus()}
            return {"metrics": engine.metrics_snapshot()}
        if isinstance(request, Trace):
            return self._handle_trace(request)
        if isinstance(request, Fault):
            return self._handle_fault(request)
        if isinstance(request, Shutdown):
            return {"shutdown": True}
        raise RequestError(f"unhandled request kind {request.kind!r}")

    @staticmethod
    def _handle_fault(request: Fault) -> dict[str, Any]:
        registry = get_failpoints()
        if request.reset:
            registry.reset(request.site)
        elif request.site is not None:
            registry.configure(
                request.site,
                request.mode or "off",
                n=request.n,
                probability=request.probability,
                seed=request.seed,
            )
        return {"sites": registry.describe()}

    def _handle_trace(self, request: Trace) -> dict[str, Any]:
        if request.enable is not None:
            TRACER.enabled = bool(request.enable)
            return {"enabled": TRACER.enabled}
        if request.trace_id is not None:
            span = TRACER.get_trace(request.trace_id)
            if span is None:
                raise ConfigurationError(
                    f"trace {request.trace_id!r} not recorded "
                    "(tracing disabled, or the trace aged out of the buffer?)"
                )
            trace_id = request.trace_id
        else:
            last = TRACER.last_trace()
            if last is None:
                raise ConfigurationError(
                    "no trace recorded yet (enable tracing with "
                    '{"kind": "trace", "enable": true} first)'
                )
            trace_id, span = last
        return {
            "trace_id": trace_id,
            "root": span.to_dict(),
            "rendered": span.format_tree(),
        }

    def stats(self) -> dict[str, Any]:
        """Dispatch counters merged with the engine's stats.

        The ``session`` block reads the engine's metrics registry:
        ``dispatched`` is ``service.requests``, ``failed`` is
        ``service.failures`` and ``error_types`` holds the
        ``service.errors.<error_type>`` counts.
        """
        registry = self._engine.metrics_registry
        prefix = "service.errors."

        def count(name: str) -> int:
            metric = registry.get(name)
            return metric.value if metric is not None else 0

        session = {
            "dispatched": count("service.requests"),
            "failed": count("service.failures"),
            "error_types": {
                name[len(prefix):]: metric.value
                for name, metric in registry.items()
                if name.startswith(prefix)
            },
        }
        return {"session": session, "engine": self._engine.stats()}


class _DrainRequested(Exception):
    """Raised out of a blocking read when SIGTERM/SIGINT asks for a drain."""


def serve_stream(
    engine: AssignmentEngine,
    lines: Iterable[str],
    output: TextIO,
    slow_threshold: float | None = None,
    diagnostics: TextIO | None = None,
    handle_signals: bool = False,
) -> int:
    """Run the JSON-lines request/response loop.

    Reads one JSON request per line from ``lines``, writes one JSON
    response per line to ``output``, and returns the number of requests
    served.  The loop survives malformed input and failed requests; it
    ends on a ``shutdown`` request or when the input is exhausted.

    With ``slow_threshold`` set (seconds), every request at or above the
    threshold emits one structured JSON line on ``diagnostics`` — a
    ``slow_request`` event carrying the request kind, id, wall time,
    trace id and (when tracing is enabled) the recorded span tree.  The
    diagnostics stream is separate from ``output`` so the wire protocol
    stays one-response-per-request; it defaults to ``sys.stderr``.

    With ``handle_signals`` set (the ``wgrap serve`` stdio path, main
    thread only), SIGTERM and SIGINT drain instead of kill: a signal
    arriving *while a request is being served* lets that request finish
    and its response reach the wire before the loop ends; a signal
    arriving while blocked on input interrupts the read directly.  Python
    retries the blocking ``readline`` after a handler returns (PEP 475),
    so the idle case must raise out of the handler — the ``busy`` flag
    decides which case we are in.  Handlers are restored on exit.
    """
    import sys

    session = EngineSession(engine)
    served = 0
    if diagnostics is None:
        diagnostics = sys.stderr

    busy = False
    drain_requested = False
    restore: list[tuple[int, Any]] = []
    if handle_signals:
        import signal

        def _on_signal(signum: int, frame: Any) -> None:
            nonlocal drain_requested
            drain_requested = True
            if not busy:
                raise _DrainRequested()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                restore.append((signum, signal.signal(signum, _on_signal)))
            except ValueError:
                # Not the main thread (tests drive this from workers):
                # serve without signal handling rather than refusing.
                break

    def emit(response: Response) -> None:
        output.write(json.dumps(response.to_dict()) + "\n")
        output.flush()

    def diagnose(request: Request, response: Response) -> None:
        if slow_threshold is None or response.elapsed_seconds is None:
            return
        if response.elapsed_seconds < slow_threshold:
            return
        span = (
            TRACER.get_trace(response.trace_id)
            if response.trace_id is not None
            else None
        )
        event = {
            "event": "slow_request",
            "kind": request.kind,
            "id": request.request_id,
            "seconds": response.elapsed_seconds,
            "trace": response.trace_id,
            "spans": span.to_dict() if span is not None else None,
        }
        try:
            diagnostics.write(json.dumps(event) + "\n")
            diagnostics.flush()
        except (OSError, ValueError):
            pass  # a broken diagnostics stream must not sink the serve loop

    try:
        iterator = iter(lines)
        while True:
            if drain_requested:
                break
            try:
                line = next(iterator)
            except StopIteration:
                break
            except _DrainRequested:
                break
            busy = True
            try:
                line = line.strip()
                if not line:
                    continue
                served += 1
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    emit(Response.failure(kind="parse", error=f"invalid JSON: {exc}"))
                    continue
                try:
                    request = request_from_dict(payload)
                except RequestError as exc:
                    request_id = payload.get("id") if isinstance(payload, dict) else None
                    emit(
                        Response.failure(
                            kind="parse", error=str(exc), request_id=request_id
                        )
                    )
                    continue
                response = session.dispatch(request)
                emit(response)
                diagnose(request, response)
                if isinstance(request, Shutdown):
                    break
            finally:
                busy = False
    except _DrainRequested:
        pass
    finally:
        if restore:
            import signal

            for signum, previous in restore:
                signal.signal(signum, previous)
    return served
