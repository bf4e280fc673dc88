"""Typed requests and responses for the assignment-engine front end.

Every operation the engine serves has a small frozen dataclass here, plus
dict codecs so the same request can arrive as a Python object (library
users, :class:`~repro.service.session.EngineSession`) or as one JSON line
(the ``wgrap serve`` loop).  Parsing is strict: an unknown kind, a missing
field or a malformed paper payload raises :class:`RequestError`, which the
serving loop turns into an ``ok: false`` response instead of dying.

The codecs round-trip, and defaults are made explicit on the way in:

>>> from repro.service.requests import request_from_dict, request_to_dict
>>> request = request_from_dict({"kind": "journal", "paper_id": "p7", "top_k": 2, "id": 1})
>>> (request.solver, request.top_k)         # BBA is the journal default
('BBA', 2)
>>> request_to_dict(request) == {"kind": "journal", "id": 1,
...                              "paper_id": "p7", "top_k": 2, "solver": "BBA"}
True
>>> request_from_dict({"kind": "nope"})
Traceback (most recent call last):
    ...
repro.exceptions.RequestError: unknown request kind 'nope'; known kinds: \
['add_paper', 'evaluate', 'fault', 'journal', 'metrics', 'portfolio', \
'shutdown', 'snapshot', 'solve', 'stats', 'trace', 'update_bids', \
'withdraw_reviewer']

Mutation requests (:data:`MUTATION_KINDS`) may carry a client-chosen
``seq`` envelope field — the idempotency key durable tenants use to
apply retried mutations exactly once:

>>> request = request_from_dict({"kind": "withdraw_reviewer", "reviewer_id": "r1", "seq": 9})
>>> request.client_seq
9
>>> request_to_dict(request)["seq"]
9
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.core.entities import Paper
from repro.core.vectors import TopicVector
from repro.exceptions import RequestError

__all__ = [
    "Request",
    "SolveRequest",
    "PortfolioSolve",
    "JournalQuery",
    "AddPaper",
    "WithdrawReviewer",
    "UpdateBids",
    "Evaluate",
    "Snapshot",
    "Stats",
    "Metrics",
    "Trace",
    "Shutdown",
    "Fault",
    "Response",
    "MUTATION_KINDS",
    "request_from_dict",
    "request_to_dict",
    "paper_from_payload",
    "paper_to_payload",
]


@dataclass(frozen=True)
class Request:
    """Base class of every front-end request.

    The optional ``request_id`` is echoed back on the response so clients
    pipelining several JSON lines can correlate answers with questions.

    The optional ``client_seq`` (wire field ``seq``) is a client-chosen
    idempotency key: a durable tenant remembers the response per key, so
    a mutation retried after a lost connection is answered from the
    stored response instead of executing twice.  Keys should be unique
    per tenant per client stream; queries may omit it.
    """

    kind: ClassVar[str] = "abstract"

    request_id: str | int | None = None
    client_seq: int | None = None


@dataclass(frozen=True)
class SolveRequest(Request):
    """Run a conference-assignment solver and install its assignment."""

    kind: ClassVar[str] = "solve"

    solver: str = "SDGA-SRA"
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class PortfolioSolve(Request):
    """Race several CRA solvers; install the best-scoring assignment.

    ``solvers`` is the line-up (registry names; empty means the default
    portfolio) and ``deadline`` an optional wall-clock budget in seconds.
    """

    kind: ClassVar[str] = "portfolio"

    solvers: tuple[str, ...] = ()
    deadline: float | None = None
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class JournalQuery(Request):
    """Find the best reviewer group for one paper (the online JRA query).

    Either ``paper_id`` names a paper of the loaded problem, or ``paper``
    carries an inline submission that is scored against the pool without
    being added to the problem ("a paper arrives, find its group now").
    """

    kind: ClassVar[str] = "journal"

    paper_id: str | None = None
    paper: Paper | None = None
    group_size: int | None = None
    top_k: int = 1
    solver: str = "BBA"
    pool_size: int | None = None

    def __post_init__(self) -> None:
        if (self.paper_id is None) == (self.paper is None):
            raise RequestError(
                "a journal query needs exactly one of 'paper_id' or 'paper'"
            )


@dataclass(frozen=True)
class AddPaper(Request):
    """Append a late submission to the problem and staff it."""

    kind: ClassVar[str] = "add_paper"

    paper: Paper | None = None
    reviewer_workload: int | None = None
    #: staffing shortlist width (top reviewers by score on the new paper)
    pool_size: int | None = None

    def __post_init__(self) -> None:
        if self.paper is None:
            raise RequestError("an add_paper request needs a 'paper'")


@dataclass(frozen=True)
class WithdrawReviewer(Request):
    """Remove a reviewer from the pool and re-staff their papers."""

    kind: ClassVar[str] = "withdraw_reviewer"

    reviewer_id: str = ""

    def __post_init__(self) -> None:
        if not self.reviewer_id:
            raise RequestError("a withdraw_reviewer request needs a 'reviewer_id'")


@dataclass(frozen=True)
class UpdateBids(Request):
    """Merge reviewer bids (``(reviewer_id, paper_id, value)`` triples)."""

    kind: ClassVar[str] = "update_bids"

    bids: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.bids:
            raise RequestError("an update_bids request needs at least one bid")


@dataclass(frozen=True)
class Evaluate(Request):
    """Score the engine's current assignment."""

    kind: ClassVar[str] = "evaluate"

    include_ratio: bool = True
    include_per_paper: bool = False


@dataclass(frozen=True)
class Snapshot(Request):
    """Persist the engine state to a JSON snapshot file."""

    kind: ClassVar[str] = "snapshot"

    path: str = ""

    def __post_init__(self) -> None:
        if not self.path:
            raise RequestError("a snapshot request needs a 'path'")


@dataclass(frozen=True)
class Stats(Request):
    """Report engine, cache and session counters."""

    kind: ClassVar[str] = "stats"


@dataclass(frozen=True)
class Metrics(Request):
    """Export the metrics registry (latency histograms per request kind).

    ``format`` is ``"json"`` (structured snapshot with p50/p95/p99 per
    histogram) or ``"prometheus"`` (text exposition format in the
    ``exposition`` payload field).
    """

    kind: ClassVar[str] = "metrics"

    format: str = "json"

    def __post_init__(self) -> None:
        if self.format not in {"json", "prometheus"}:
            raise RequestError(
                f"unknown metrics format {self.format!r}; "
                "expected 'json' or 'prometheus'"
            )


@dataclass(frozen=True)
class Trace(Request):
    """Fetch a recorded span tree, or toggle trace recording.

    With ``enable`` set, recording is switched on/off and the current
    state is reported.  Otherwise the span tree of ``trace_id`` (or of
    the most recent finished trace, when omitted) is returned — every
    response carries its ``trace`` id, so a client can replay any
    recent request's breakdown.
    """

    kind: ClassVar[str] = "trace"

    trace_id: str | None = None
    enable: bool | None = None


@dataclass(frozen=True)
class Shutdown(Request):
    """End a serving loop cleanly."""

    kind: ClassVar[str] = "shutdown"


@dataclass(frozen=True)
class Fault(Request):
    """Inspect or arm the fault-injection registry (:mod:`repro.fault`).

    With no fields set, reports every failpoint site and its state.  With
    ``site`` and ``mode`` set, arms that site (``n``/``probability``/
    ``seed`` per mode); ``reset`` disarms ``site``, or every site when
    ``site`` is omitted.  Chaos tests drive this over the wire instead of
    restarting the server with a new ``REPRO_FAULT``.
    """

    kind: ClassVar[str] = "fault"

    site: str | None = None
    mode: str | None = None
    n: int | None = None
    probability: float | None = None
    seed: int | None = None
    reset: bool = False

    def __post_init__(self) -> None:
        if self.site is not None and self.mode is None and not self.reset:
            raise RequestError(
                "a fault request with a 'site' needs a 'mode' (or 'reset': true)"
            )


#: Request kinds that mutate engine state — exactly these are journaled
#: to the write-ahead log and deduplicated by idempotency key; everything
#: else is a read (or process-local control) and replays for free.
#: ``docs/durability.md`` renders this set and ``tests/test_docs.py``
#: pins the two in sync.
MUTATION_KINDS: frozenset[str] = frozenset(
    {"solve", "portfolio", "add_paper", "withdraw_reviewer", "update_bids"}
)


@dataclass(frozen=True)
class Response:
    """Outcome of one request.

    ``payload`` is always JSON-serialisable; errors carry the exception
    message in ``error`` with ``ok`` false, keep the request's kind so
    clients know which operation failed, and classify the failure in
    ``error_type`` so clients can branch without parsing messages:

    * ``"request"`` — malformed input (bad JSON, unknown kind, missing or
      ill-typed fields);
    * ``"unknown_solver"`` — a solver name not present in the registry;
    * ``"unknown_id"`` — a paper/reviewer id not part of the problem;
    * ``"infeasible"`` — the instance (or the requested mutation) admits
      no feasible assignment;
    * ``"configuration"`` — inconsistent options (bad ``top_k``, bad
      ``pool_size``, ...);
    * ``"solver"`` — a solver failed to produce a result;
    * ``"internal"`` — an unexpected failure; the serving loop reports
      the exception class and message instead of leaking a traceback.

    Responses produced by a session also carry observability fields:
    ``trace_id`` (emitted as ``"trace"``) names the span tree recorded
    for this request — fetchable later via a ``trace`` request — and
    ``elapsed_seconds`` (emitted as ``"seconds"``) is the wall time the
    session spent handling it.
    """

    kind: str
    ok: bool
    payload: Mapping[str, Any] = field(default_factory=dict)
    error: str | None = None
    error_type: str | None = None
    request_id: str | int | None = None
    trace_id: str | None = None
    elapsed_seconds: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (one line of the serve loop)."""
        result: dict[str, Any] = {"kind": self.kind, "ok": self.ok}
        if self.request_id is not None:
            result["id"] = self.request_id
        if self.ok:
            result["payload"] = dict(self.payload)
        else:
            result["error"] = self.error or "unknown error"
            result["error_type"] = self.error_type or "internal"
        if self.trace_id is not None:
            result["trace"] = self.trace_id
        if self.elapsed_seconds is not None:
            result["seconds"] = self.elapsed_seconds
        return result

    @classmethod
    def failure(
        cls,
        kind: str,
        error: str,
        request_id: str | int | None = None,
        error_type: str = "request",
        trace_id: str | None = None,
        elapsed_seconds: float | None = None,
    ) -> "Response":
        """Shorthand for an error response."""
        return cls(
            kind=kind,
            ok=False,
            error=error,
            error_type=error_type,
            request_id=request_id,
            trace_id=trace_id,
            elapsed_seconds=elapsed_seconds,
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Response":
        """Inverse of :meth:`to_dict` (checkpointed idempotency maps)."""
        ok = bool(payload.get("ok"))
        return cls(
            kind=str(payload.get("kind", "")),
            ok=ok,
            payload=dict(payload.get("payload") or {}) if ok else {},
            error=payload.get("error"),
            error_type=payload.get("error_type"),
            request_id=payload.get("id"),
            trace_id=payload.get("trace"),
            elapsed_seconds=payload.get("seconds"),
        )


# ----------------------------------------------------------------------
# Dict codecs
# ----------------------------------------------------------------------
_REQUEST_TYPES: dict[str, type[Request]] = {
    cls.kind: cls
    for cls in (
        SolveRequest,
        PortfolioSolve,
        JournalQuery,
        AddPaper,
        WithdrawReviewer,
        UpdateBids,
        Evaluate,
        Snapshot,
        Stats,
        Metrics,
        Trace,
        Shutdown,
        Fault,
    )
}


def paper_from_payload(payload: Mapping[str, Any]) -> Paper:
    """Build a :class:`Paper` from its JSON representation.

    The format matches the ``papers`` entries of the problem files written
    by :mod:`repro.data.io`: ``{"id": ..., "vector": [...], "title": ...}``.
    """
    if not isinstance(payload, Mapping):
        raise RequestError("a paper must be a JSON object")
    try:
        paper_id = payload["id"]
        vector = payload["vector"]
    except KeyError as missing:
        raise RequestError(f"a paper payload needs an {missing.args[0]!r} field") from None
    try:
        return Paper(
            id=str(paper_id),
            vector=TopicVector(vector),
            title=str(payload.get("title", "")),
            abstract=str(payload.get("abstract", "")),
        )
    except Exception as exc:  # vector shape/type problems become request errors
        raise RequestError(f"malformed paper payload: {exc}") from exc


def paper_to_payload(paper: Paper) -> dict[str, Any]:
    """Inverse of :func:`paper_from_payload`."""
    return {
        "id": paper.id,
        "title": paper.title,
        "abstract": paper.abstract,
        "vector": paper.vector.to_list(),
    }


def _parse_bids(raw: Any) -> tuple[tuple[str, str, float], ...]:
    if not isinstance(raw, Iterable) or isinstance(raw, (str, bytes, Mapping)):
        raise RequestError("'bids' must be a list of [reviewer_id, paper_id, value]")
    bids: list[tuple[str, str, float]] = []
    for entry in raw:
        try:
            reviewer_id, paper_id, value = entry
        except (TypeError, ValueError):
            raise RequestError(
                f"malformed bid entry {entry!r}; expected [reviewer_id, paper_id, value]"
            ) from None
        bids.append((str(reviewer_id), str(paper_id), _number(value, "bid value")))
    return tuple(bids)


def _integer(payload: Mapping[str, Any], name: str) -> int:
    """The integer field ``name``: a JSON integer, never coerced.

    A float (even ``2.0``), a bool or a string raises :class:`RequestError`
    instead of being truncated or parsed into an integer.
    """
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name!r} must be an integer, got {value!r}")
    return value


def _boolean(payload: Mapping[str, Any], name: str, default: bool) -> bool:
    """The boolean field ``name`` (``default`` when absent): never coerced."""
    value = payload.get(name)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise RequestError(f"{name!r} must be true or false, got {value!r}")
    return value


def _number(value: Any, name: str) -> float:
    """A finite JSON integer or float, as a float; never a bool, string or NaN."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise RequestError(f"{name!r} must be a finite number, got {value!r}")


def request_from_dict(payload: Mapping[str, Any]) -> Request:
    """Parse one JSON-decoded request object into a typed request.

    Raises
    ------
    RequestError
        For unknown kinds, missing fields or malformed nested payloads.
    """
    if not isinstance(payload, Mapping):
        raise RequestError("a request must be a JSON object")
    # A JSON ``null`` means "absent": a null field takes its default, and a
    # null required field is missing, never the string "None".
    payload = {key: value for key, value in payload.items() if value is not None}
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise RequestError("a request needs a string 'kind' field")
    try:
        request_type = _REQUEST_TYPES[kind.lower()]
    except KeyError:
        raise RequestError(
            f"unknown request kind {kind!r}; known kinds: {sorted(_REQUEST_TYPES)}"
        ) from None

    request_id = payload.get("id")
    fields: dict[str, Any] = {"request_id": request_id}
    try:
        if "seq" in payload:
            fields["client_seq"] = _integer(payload, "seq")
        if request_type is SolveRequest:
            fields["solver"] = str(payload.get("solver", "SDGA-SRA"))
            options = payload.get("options", {})
            if not isinstance(options, Mapping):
                raise RequestError("'options' must be a JSON object")
            fields["options"] = dict(options)
        elif request_type is PortfolioSolve:
            solvers = payload.get("solvers", [])
            if isinstance(solvers, (str, bytes)) or not isinstance(solvers, Iterable):
                raise RequestError("'solvers' must be a list of solver names")
            fields["solvers"] = tuple(str(name) for name in solvers)
            if "deadline" in payload:
                fields["deadline"] = _number(payload["deadline"], "deadline")
            options = payload.get("options", {})
            if not isinstance(options, Mapping):
                raise RequestError("'options' must be a JSON object")
            fields["options"] = dict(options)
        elif request_type is JournalQuery:
            if "paper" in payload:
                fields["paper"] = paper_from_payload(payload["paper"])
            if "paper_id" in payload:
                fields["paper_id"] = str(payload["paper_id"])
            for name in ("group_size", "top_k", "pool_size"):
                if name in payload:
                    fields[name] = _integer(payload, name)
            fields["solver"] = str(payload.get("solver", "BBA"))
        elif request_type is AddPaper:
            if "paper" not in payload:
                raise RequestError("an add_paper request needs a 'paper'")
            fields["paper"] = paper_from_payload(payload["paper"])
            for name in ("reviewer_workload", "pool_size"):
                if name in payload:
                    fields[name] = _integer(payload, name)
        elif request_type is WithdrawReviewer:
            fields["reviewer_id"] = str(payload.get("reviewer_id", ""))
        elif request_type is UpdateBids:
            fields["bids"] = _parse_bids(payload.get("bids"))
        elif request_type is Evaluate:
            fields["include_ratio"] = _boolean(payload, "include_ratio", True)
            fields["include_per_paper"] = _boolean(payload, "include_per_paper", False)
        elif request_type is Snapshot:
            fields["path"] = str(payload.get("path", ""))
        elif request_type is Metrics:
            fields["format"] = str(payload.get("format", "json"))
        elif request_type is Trace:
            if "trace_id" in payload:
                fields["trace_id"] = str(payload["trace_id"])
            if "enable" in payload:
                fields["enable"] = _boolean(payload, "enable", False)
        elif request_type is Fault:
            if "site" in payload:
                fields["site"] = str(payload["site"])
            if "mode" in payload:
                fields["mode"] = str(payload["mode"])
            for name in ("n", "seed"):
                if name in payload:
                    fields[name] = _integer(payload, name)
            if "probability" in payload:
                fields["probability"] = _number(payload["probability"], "probability")
            fields["reset"] = _boolean(payload, "reset", False)
        return request_type(**fields)
    except RequestError:
        raise
    except (TypeError, ValueError) as exc:
        raise RequestError(f"malformed {kind!r} request: {exc}") from exc


def request_to_dict(request: Request) -> dict[str, Any]:
    """JSON-serialisable representation of a typed request."""
    payload: dict[str, Any] = {"kind": request.kind}
    if request.request_id is not None:
        payload["id"] = request.request_id
    if request.client_seq is not None:
        payload["seq"] = request.client_seq
    if isinstance(request, SolveRequest):
        payload["solver"] = request.solver
        if request.options:
            payload["options"] = dict(request.options)
    elif isinstance(request, PortfolioSolve):
        if request.solvers:
            payload["solvers"] = list(request.solvers)
        if request.deadline is not None:
            payload["deadline"] = request.deadline
        if request.options:
            payload["options"] = dict(request.options)
    elif isinstance(request, JournalQuery):
        if request.paper_id is not None:
            payload["paper_id"] = request.paper_id
        if request.paper is not None:
            payload["paper"] = paper_to_payload(request.paper)
        for name in ("group_size", "top_k", "pool_size"):
            value = getattr(request, name)
            if value is not None:
                payload[name] = value
        payload["solver"] = request.solver
    elif isinstance(request, AddPaper):
        payload["paper"] = paper_to_payload(request.paper)
        if request.reviewer_workload is not None:
            payload["reviewer_workload"] = request.reviewer_workload
        if request.pool_size is not None:
            payload["pool_size"] = request.pool_size
    elif isinstance(request, WithdrawReviewer):
        payload["reviewer_id"] = request.reviewer_id
    elif isinstance(request, UpdateBids):
        payload["bids"] = [list(bid) for bid in request.bids]
    elif isinstance(request, Evaluate):
        payload["include_ratio"] = request.include_ratio
        payload["include_per_paper"] = request.include_per_paper
    elif isinstance(request, Snapshot):
        payload["path"] = request.path
    elif isinstance(request, Metrics):
        payload["format"] = request.format
    elif isinstance(request, Trace):
        if request.trace_id is not None:
            payload["trace_id"] = request.trace_id
        if request.enable is not None:
            payload["enable"] = request.enable
    elif isinstance(request, Fault):
        for name in ("site", "mode", "n", "probability", "seed"):
            value = getattr(request, name)
            if value is not None:
                payload[name] = value
        if request.reset:
            payload["reset"] = True
    return payload
