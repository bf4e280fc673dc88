"""Typed requests and responses for the assignment-engine front end.

Every operation the engine serves has a small frozen dataclass here, plus
dict codecs so the same request can arrive as a Python object (library
users, :class:`~repro.service.session.EngineSession`) or as one JSON line
(the ``wgrap serve`` loop).  The wire format is declared once, in the
dataclass fields (:func:`wire_fields`), and every codec walks that table.
Parsing is strict: an unknown kind or field, a missing field or a value
of another JSON type raises :class:`RequestError`, which the serving loop
turns into an ``ok: false`` response instead of dying.

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

import dataclasses
import functools
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType, UnionType
from typing import Any, ClassVar, NamedTuple, get_args, get_type_hints

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
    "ENVELOPE_FIELDS",
    "LEGACY_FIELDS",
    "WireField",
    "wire_fields",
    "decode_request",
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

    request_id: str | int | None = field(default=None, metadata={"wire": "id", "as_given": True})
    client_seq: int | None = field(default=None, metadata={"wire": "seq"})


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
# Dict codecs: one wire table per request type
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

#: Top-level fields every kind accepts beyond its declared ones.  ``id`` and
#: ``seq`` are :class:`Request` fields; ``kind`` and the TCP server's routing
#: key ``tenant`` are strings that the caller reads.
ENVELOPE_FIELDS: frozenset[str] = frozenset({"kind", "id", "seq", "tenant"})
#: Fields an old client may still send, per kind, accepted and ignored: a
#: journal query's ``prune`` chose a pool search that no longer exists.
LEGACY_FIELDS: Mapping[str, frozenset[str]] = {"journal": frozenset({"prune"})}

_LISTS = (list, tuple)
_NUMBERS = frozenset({int, float})


def _expect(
    expected: str, accepts: Callable[[Any], bool], convert: Callable[[Any], Any] | None = None
) -> Callable[[Any, str], Any]:
    """A parser of the values ``accepts`` (then ``convert``-ed, if given);
    any other value raises a :class:`RequestError` naming the field."""

    def parse(value: Any, name: str) -> Any:
        if not accepts(value):
            raise RequestError(f"{name!r} must be {expected}, got {value!r}")
        return value if convert is None else convert(value)

    return parse


_string = _expect("a string", lambda value: type(value) is str)
_integer = _expect("an integer", lambda value: type(value) is int)
_boolean = _expect("true or false", lambda value: type(value) is bool)
_number = _expect(
    "a finite number",
    lambda value: type(value) in _NUMBERS and abs(value) <= sys.float_info.max,
    float,
)
_object = _expect("a JSON object", lambda value: isinstance(value, Mapping), dict)
_strings = _expect(
    "a list of strings",
    lambda value: type(value) in _LISTS and all(type(item) is str for item in value),
    tuple,
)
_weights = _expect(
    "a list of numbers",
    lambda value: type(value) in _LISTS and _NUMBERS.issuperset(map(type, value)),
)
_bids = _expect(
    "a list of [reviewer_id, paper_id, value] triples",
    lambda value: type(value) in _LISTS
    and all(
        type(bid) in _LISTS and len(bid) == 3 and type(bid[0]) is type(bid[1]) is str
        for bid in value
    ),
    lambda bids: tuple((r, p, _number(value, "bid value")) for r, p, value in bids),
)
#: The fields of a paper object (the ``papers`` entries of a problem file).
_PAPER_FIELDS = {"id": _string, "vector": _weights, "title": _string, "abstract": _string}


def paper_from_payload(payload: Mapping[str, Any]) -> Paper:
    """Build a :class:`Paper` from its JSON representation.

    The format matches the ``papers`` entries of the problem files written
    by :mod:`repro.data.io`: ``{"id": ..., "vector": [...], "title": ...,
    "abstract": ...}``, each of its own JSON type and no other key.
    """
    if not isinstance(payload, Mapping):
        raise RequestError(f"'paper' must be a JSON object, got {payload!r}")
    values: dict[str, Any] = {}
    for key, value in payload.items():
        if key not in _PAPER_FIELDS:
            raise RequestError(f"a paper has no field {key!r}")
        if value is not None:  # a null is absent
            values[key] = _PAPER_FIELDS[key](value, f"paper {key}")
    for key in ("id", "vector"):
        if key not in values:
            raise RequestError(f"a paper payload needs an {key!r} field")
    try:
        return Paper(**{**values, "vector": TopicVector(values["vector"])})
    except Exception as exc:  # vector shape/value problems become request errors
        raise RequestError(f"malformed paper payload: {exc}") from exc


def paper_to_payload(paper: Paper) -> dict[str, Any]:
    """Inverse of :func:`paper_from_payload`."""
    return {
        "id": paper.id,
        "title": paper.title,
        "abstract": paper.abstract,
        "vector": paper.vector.to_list(),
    }


#: Each annotation's parser and encoder (``None``: the value is its own JSON).
_CODECS: dict[Any, tuple[Callable[[Any, str], Any], Callable[[Any], Any] | None]] = {
    Any: (lambda value, name: value, None),
    str: (_string, None),
    int: (_integer, None),
    bool: (_boolean, None),
    float: (_number, None),
    Mapping[str, Any]: (_object, dict),
    tuple[str, ...]: (_strings, list),
    Paper: (lambda value, name: paper_from_payload(value), paper_to_payload),
    tuple[tuple[str, str, float], ...]: (_bids, lambda bids: [list(bid) for bid in bids]),
}


class WireField(NamedTuple):
    """One wire field: attribute ``name``, JSON key ``wire``, and the
    ``annotation`` (less ``None``) that picked its ``parse`` and ``encode``."""

    name: str
    wire: str
    annotation: Any
    parse: Callable[[Any, str], Any]
    encode: Callable[[Any], Any] | None


@functools.cache
def wire_fields(request_type: type[Request]) -> Mapping[str, WireField]:
    """The wire table of a request dataclass, keyed by JSON field name.

    Each annotation picks its codec; field metadata only renames a field
    (``wire``) or echoes its value as given (``as_given``).
    """
    hints = get_type_hints(request_type)
    table: dict[str, WireField] = {}
    for spec in dataclasses.fields(request_type):
        annotation = Any if spec.metadata.get("as_given") else hints[spec.name]
        if isinstance(annotation, UnionType):
            (annotation,) = set(get_args(annotation)) - {type(None)}
        wire = spec.metadata.get("wire", spec.name)
        table[wire] = WireField(spec.name, wire, annotation, *_CODECS[annotation])
    return MappingProxyType(table)  # cached and shared: read-only


for _request_type in _REQUEST_TYPES.values():
    wire_fields(_request_type)  # resolve every table at import, not per request


def decode_request(request_type: type[Request], payload: Mapping[str, Any]) -> Request:
    """Build ``request_type`` from a JSON object by one walk over its wire table.

    A ``null`` is absent.  A key the type does not declare raises
    :class:`RequestError`, unless it is an envelope or legacy field.
    """
    legacy = LEGACY_FIELDS.get(request_type.kind, frozenset())
    table = wire_fields(request_type)
    values: dict[str, Any] = {}
    for key, value in payload.items():
        if value is None:
            continue
        spec = table.get(key)
        if spec is not None:
            values[spec.name] = spec.parse(value, key)
        elif key in ENVELOPE_FIELDS:
            _string(value, key)
        elif key not in legacy:
            raise RequestError(f"a {payload.get('kind')!r} request has no field {key!r}")
    return request_type(**values)


def request_from_dict(payload: Mapping[str, Any]) -> Request:
    """Parse one JSON-decoded request object into a typed request.

    Raises
    ------
    RequestError
        For unknown kinds (matched exactly) or fields, missing fields, or a
        value of another JSON type, nested paper and bid entries included.
    """
    if not isinstance(payload, Mapping):
        raise RequestError("a request must be a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise RequestError("a request needs a string 'kind' field")
    try:
        request_type = _REQUEST_TYPES[kind]
    except KeyError:
        raise RequestError(
            f"unknown request kind {kind!r}; known kinds: {sorted(_REQUEST_TYPES)}"
        ) from None
    return decode_request(request_type, payload)


def request_to_dict(request: Request) -> dict[str, Any]:
    """JSON-serialisable representation of a typed request: every field
    that is not ``None``, under its wire name."""
    payload: dict[str, Any] = {"kind": request.kind}
    for spec in wire_fields(type(request)).values():
        value = getattr(request, spec.name)
        if value is not None:
            payload[spec.wire] = value if spec.encode is None else spec.encode(value)
    return payload
