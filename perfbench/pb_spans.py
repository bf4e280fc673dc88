"""Span recording for the traced benchmark run, and self-time arithmetic.

:func:`install` wraps the public functions of each layer of ``repro`` (and,
where a module imports a function by name, the name at that call site) so
that every call records a span on the returned :class:`SpanRecorder`: name,
start, end, parent and request id.  Spans are kept in memory and written
out by :meth:`SpanRecorder.dump` when the traced process ends.  Nothing in
``repro`` itself is changed.

A span's *self time* is its duration minus the part of it covered by its
children; :func:`self_times` computes it for a list of spans, and
:func:`layer_of` maps a span name onto the module layer it measures.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable

#: span-name prefix -> layer (the module the span times)
LAYERS: dict[str, str] = {
    "net": "net",
    "session": "service.session",
    "engine": "service.engine",
    "cache": "service.cache",
    "delta": "core.delta",
    "core": "core",
    "jra": "jra",
    "cra": "cra",
    "quality": "metrics",
    "wal": "durability",
    "journal": "durability",
    "topics": "topics",
}

def layer_of(name: str) -> str:
    """The layer a span name belongs to (its prefix before the first dot)."""
    return LAYERS.get(name.split(".", 1)[0], "other")


class SpanRecorder:
    """In-memory spans of one process, with per-thread parent stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: finished and open spans: [name, start, end, parent, request_id, thread, note]
        self.records: list[list[Any]] = []
        #: tenant submit time per execution seq (event-loop thread -> worker)
        self.submitted: dict[int, float] = {}
        #: queue wait per execution seq, seconds
        self.queue_wait: dict[int, float] = {}

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             request_id: Any = None, note: Any = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent[4]
        record = [name, time.perf_counter(), None, parent, request_id,
                  threading.get_ident(), note]
        self.records.append(record)
        stack.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner: Any, attr: str, name: str,
             note: Callable[..., Any] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, original, args, kwargs,
                             note=note(*args, **kwargs) if note is not None else None)

        setattr(owner, attr, wrapper)

    def snapshot(self) -> dict[str, Any]:
        """The recorded spans as plain data (parents as list indices)."""
        records = list(self.records)
        now = time.perf_counter()
        index = {id(record): position for position, record in enumerate(records)}
        spans = [
            [name, start, now if end is None else end,
             index.get(id(parent), -1) if parent is not None else -1,
             request_id, thread, note]
            for name, start, end, parent, request_id, thread, note in records
        ]
        return {"spans": spans,
                "queue_wait": {str(k): v for k, v in self.queue_wait.items()}}

    def dump(self, path: str) -> None:
        """Write every span to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def install() -> SpanRecorder:
    """Wrap every measured layer boundary (call once, before any work)."""
    from repro.core.problem import JRAProblem, WGRAPProblem
    from repro.cra.base import CRASolver
    from repro.durability.journal import TenantJournal
    from repro.jra.base import JRASolver
    from repro.net.tenants import Tenant
    from repro.service import engine as engine_module
    from repro.service.cache import ScoreMatrixCache
    from repro.service.engine import AssignmentEngine
    from repro.service.session import EngineSession
    from repro.topics import pipeline as pipeline_module
    from repro.topics.atm import AuthorTopicModel
    from repro.topics.corpus import Corpus
    from repro.topics.pipeline import TopicExtractionPipeline

    recorder = SpanRecorder()

    # net: submit stamps the queue entry; the worker's per-request serve
    # carries the execution seq as the request id of everything below it.
    submit = Tenant.submit

    @functools.wraps(submit)
    def traced_submit(self: Any, request: Any) -> Any:
        started = time.perf_counter()
        pending = submit(self, request)
        recorder.submitted[pending.seq] = started
        return pending

    Tenant.submit = traced_submit
    serve_one = Tenant._serve_one_durable

    @functools.wraps(serve_one)
    def traced_serve_one(self: Any, pending: Any) -> Any:
        submitted = recorder.submitted.pop(pending.seq, None)
        if submitted is not None:
            recorder.queue_wait[pending.seq] = time.perf_counter() - submitted
        return recorder.call("net.serve_one", serve_one, (self, pending), {},
                             request_id=pending.seq)

    Tenant._serve_one_durable = traced_serve_one
    recorder.wrap(Tenant, "_serve_batch_durable", "net.batch",
                  note=lambda self, batch: len(batch))

    recorder.wrap(EngineSession, "dispatch", "session.dispatch",
                  note=lambda self, request: request.kind)
    for method in ("journal_query", "evaluate", "stats", "add_paper",
                   "withdraw_reviewer", "update_bids", "solve"):
        recorder.wrap(AssignmentEngine, method, f"engine.{method}")

    recorder.wrap(ScoreMatrixCache, "matrix", "cache.matrix",
                  note=lambda self: "build" if not self.is_built else None)
    recorder.wrap(ScoreMatrixCache, "top_reviewers", "cache.top_reviewers")
    recorder.wrap(ScoreMatrixCache, "scores_for_paper", "cache.scores_for_paper")
    recorder.wrap(ScoreMatrixCache, "apply_mutation", "cache.apply_mutation")

    recorder.wrap(WGRAPProblem, "with_additional_paper", "delta.with_additional_paper")
    recorder.wrap(WGRAPProblem, "without_reviewer", "delta.without_reviewer")
    recorder.wrap(WGRAPProblem, "validate_assignment", "core.validate_assignment")
    recorder.wrap(WGRAPProblem, "assignment_score", "quality.assignment_score")

    recorder.wrap(JRAProblem, "__init__", "jra.build")
    recorder.wrap(JRASolver, "solve", "jra.solve")
    recorder.wrap(engine_module, "find_top_k_groups", "jra.find_top_k_groups")
    recorder.wrap(CRASolver, "solve", "cra.solve")
    recorder.wrap(engine_module, "complete_assignment", "cra.repair")
    recorder.wrap(engine_module, "lowest_coverage_score", "quality.lowest_coverage_score")
    recorder.wrap(engine_module, "optimality_ratio", "quality.optimality_ratio")

    recorder.wrap(TenantJournal, "append", "wal.append")
    recorder.wrap(TenantJournal, "sync_batch", "wal.sync")
    recorder.wrap(TenantJournal, "record_applied", "journal.record_applied")
    recorder.wrap(TenantJournal, "checkpoint", "journal.checkpoint")

    recorder.wrap(Corpus, "__init__", "topics.corpus_build")
    recorder.wrap(TopicExtractionPipeline, "fit", "topics.fit")
    recorder.wrap(AuthorTopicModel, "fit", "topics.atm_fit")
    recorder.wrap(pipeline_module, "infer_topic_mixture", "topics.em_infer")
    recorder.wrap(TopicExtractionPipeline, "build_problem", "topics.build_problem")
    return recorder


def self_times(spans: list[list[Any]]) -> list[float]:
    """Self time of every span: duration minus the union of its children.

    ``spans`` rows are ``[name, start, end, parent_index, ...]``; a parent
    index of ``-1`` marks a root.  Children may overlap (other threads), so
    the covered part is the union of their intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for row in spans:
        if row[3] >= 0:
            children.setdefault(row[3], []).append((row[1], row[2]))
    result = []
    for position, row in enumerate(spans):
        start, end = row[1], row[2]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(position, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(max(0.0, (end - start) - covered))
    return result
