"""Properties of the request wire format, generated from its field table.

Every strategy here is derived from
:func:`repro.service.requests.wire_fields`: a field's annotation picks
the strategy of its valid values and the JSON types it accepts, so a
field added to a request dataclass is covered without editing this file
(a field with a new annotation fails loudly in ``VALID``).  Three
properties:

* ``request_from_dict(request_to_dict(r)) == r`` for generated requests
  of every kind, the server's management kinds included;
* a field, a nested paper key or vector weight, a list entry or a bid
  entry replaced by a value of another JSON type answers
  ``error_type: "request"`` through ``serve_stream``, never ``internal``;
* an undeclared top-level key is refused, while the envelope fields and
  the journal's legacy ``prune`` are accepted and ignored.
"""

from __future__ import annotations

import io
import json
from collections.abc import Mapping
from typing import Any

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from repro.core.entities import Paper
from repro.core.vectors import TopicVector
from repro.data.synthetic import make_problem
from repro.exceptions import RequestError
from repro.net.server import CreateTenant, EvictTenant
from repro.service.engine import AssignmentEngine
from repro.service.requests import (
    _REQUEST_TYPES,
    ENVELOPE_FIELDS,
    LEGACY_FIELDS,
    Request,
    decode_request,
    request_from_dict,
    request_to_dict,
    wire_fields,
)
from repro.service.session import serve_stream

BIDS = tuple[tuple[str, str, float], ...]
TEXT = st.text(max_size=6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FINITE, TEXT)
#: Any JSON value but ``null``, which means "absent" at the top level.
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)
    ),
    max_leaves=6,
).filter(lambda value: value is not None)

#: Valid attribute values per annotation (``Any`` is the echoed ``id``).
VALID: dict[Any, st.SearchStrategy] = {
    Any: st.one_of(st.integers(), TEXT),
    str: TEXT,
    int: st.integers(),
    bool: st.booleans(),
    float: FINITE,
    Mapping[str, Any]: st.dictionaries(TEXT, SCALARS, max_size=3),
    tuple[str, ...]: st.lists(TEXT, max_size=3).map(tuple),
    Paper: st.builds(
        Paper,
        id=st.text(min_size=1, max_size=6),
        vector=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(TopicVector),
        title=TEXT,
        abstract=TEXT,
    ),
    BIDS: st.lists(st.tuples(TEXT, TEXT, FINITE), max_size=3).map(tuple),
}

#: The JSON types each annotation accepts on the wire (exact types:
#: ``bool`` is not an ``int`` here).
ACCEPTS: dict[Any, set[type]] = {
    str: {str},
    int: {int},
    bool: {bool},
    float: {int, float},
    Mapping[str, Any]: {dict},
    tuple[str, ...]: {list},
    Paper: {dict},
    BIDS: {list},
}
PAPER_ACCEPTS = {"id": {str}, "vector": {list}, "title": {str}, "abstract": {str}}

ENGINE_TYPES = sorted(_REQUEST_TYPES.values(), key=lambda cls: cls.kind)
ALL_TYPES = [*ENGINE_TYPES, CreateTenant, EvictTenant]


@st.composite
def typed_requests(draw, types: list[type[Request]]) -> Request:
    """A valid request: each field of the drawn type set or left default."""
    request_type = draw(st.sampled_from(types))
    values = {
        spec.name: draw(VALID[spec.annotation])
        for spec in wire_fields(request_type).values()
        if draw(st.booleans())
    }
    try:
        return request_type(**values)
    except RequestError:  # a cross-field check refused this draw
        reject()


def _json(request: Request) -> dict[str, Any]:
    """The request as a client sends it: encoded, then through JSON text."""
    return json.loads(json.dumps(request_to_dict(request)))


def _parse(payload: Mapping[str, Any], request_type: type[Request]) -> Request:
    if request_type in ENGINE_TYPES:
        return request_from_dict(payload)
    return decode_request(request_type, payload)


@settings(max_examples=300, deadline=None)
@given(typed_requests(ALL_TYPES))
def test_round_trip_through_json(request):
    assert _parse(_json(request), type(request)) == request


def _slots(wire: dict[str, Any], request_type: type[Request]):
    """Every ``(container, key, accepted JSON types)`` slot of a wire request.

    The top-level fields come from the wire table, whether set or not;
    nested slots follow the annotation into a set paper, list or bids.
    """
    for spec in wire_fields(request_type).values():
        if spec.annotation is Any:  # the echoed ``id`` takes any value
            continue
        yield wire, spec.wire, ACCEPTS[spec.annotation]
        value = wire.get(spec.wire)
        if not value:
            continue
        if spec.annotation is Paper:
            for key, accepted in PAPER_ACCEPTS.items():
                yield value, key, accepted
            for index in range(len(value["vector"])):
                yield value["vector"], index, {int, float}
        elif spec.annotation == tuple[str, ...]:
            for index in range(len(value)):
                yield value, index, {str}
        elif spec.annotation == BIDS:
            for entry_index, entry in enumerate(value):
                yield value, entry_index, {list}
                for index, accepted in enumerate(({str}, {str}, {int, float})):
                    yield entry, index, accepted


def _serve(line: str) -> dict[str, Any]:
    engine = AssignmentEngine(make_problem(4, 6, num_topics=4, group_size=2, seed=0))
    output = io.StringIO()
    serve_stream(engine, [line], output)
    return json.loads(output.getvalue())


@settings(max_examples=300, deadline=None)
@given(typed_requests(ENGINE_TYPES), st.data())
def test_a_value_of_another_json_type_answers_a_request_error(request, data):
    wire = _json(request)
    container, key, accepted = data.draw(
        st.sampled_from(list(_slots(wire, type(request)))), label="slot"
    )
    container[key] = data.draw(
        JSON_VALUES.filter(lambda value: type(value) not in accepted), label="value"
    )
    response = _serve(json.dumps(wire))
    assert response["ok"] is False
    assert response["error_type"] == "request", response


@settings(max_examples=200, deadline=None)
@given(typed_requests(ALL_TYPES), TEXT, JSON_VALUES)
def test_an_undeclared_field_is_refused(request, key, value):
    request_type = type(request)
    assume(key not in wire_fields(request_type))
    assume(key not in ENVELOPE_FIELDS | LEGACY_FIELDS.get(request_type.kind, frozenset()))
    wire = {**_json(request), key: value}
    with pytest.raises(RequestError, match="has no field"):
        _parse(wire, request_type)


@settings(max_examples=200, deadline=None)
@given(typed_requests(ALL_TYPES), st.data())
def test_envelope_and_legacy_fields_are_accepted(request, data):
    # An undeclared envelope field (``tenant``) takes a string; a legacy
    # field takes anything and is ignored.
    request_type = type(request)
    wire = _json(request)
    for key in ENVELOPE_FIELDS - {"kind", *wire_fields(request_type)}:
        wire[key] = data.draw(TEXT, label=key)
    for key in LEGACY_FIELDS.get(request_type.kind, frozenset()):
        wire[key] = data.draw(JSON_VALUES, label=key)
    assert _parse(wire, request_type) == request


def test_the_generated_kinds_cover_the_envelope_and_legacy_fields():
    # ``id`` and ``seq`` are fields of every request; ``tenant`` is
    # declared by the tenant-management kinds only; ``prune`` is legacy.
    for request_type in ALL_TYPES:
        assert {"id", "seq"} <= set(wire_fields(request_type))
    assert "prune" in LEGACY_FIELDS["journal"]
    assert "tenant" in wire_fields(CreateTenant) and "tenant" in wire_fields(EvictTenant)
