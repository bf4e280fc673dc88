"""The span-name and metric-name contract.

Every span opened and every metric registered anywhere in the codebase
must match an entry here (``<placeholder>`` segments match one dynamic
path segment).  Two guards keep this honest:

* ``tests/test_obs.py`` greps the source tree for ``.span("...")``
  call sites and exercises a full engine/session round trip, asserting
  every observed name matches a registered pattern;
* ``tests/test_docs.py`` asserts the tables in
  ``docs/observability.md`` list exactly these names.

Adding instrumentation therefore means adding a row in all three
places — which is the point.
"""

from __future__ import annotations

import re

__all__ = ["METRIC_NAMES", "SPAN_NAMES", "matches_name"]

#: span name -> one-line description (where it is opened and what it times)
SPAN_NAMES: dict[str, str] = {
    "request.<kind>": "one served request of the given wire kind (EngineSession.dispatch)",
    "engine.solve": "AssignmentEngine.solve: solver run (a cold chain builds its matrix), bookkeeping",
    "engine.portfolio": "AssignmentEngine.solve_portfolio: the whole portfolio race",
    "engine.journal_query": (
        "AssignmentEngine.journal_query: JRA sub-problem lookup or build, "
        "then the stored answer or a solve"
    ),
    "engine.add_paper": "AssignmentEngine.add_paper: delta view derivation + cache update",
    "engine.withdraw_reviewer": "AssignmentEngine.withdraw_reviewer: delta derivation + repair",
    "solver.<name>": "one CRA or JRA solver run (base-class solve wrapper)",
    "greedy.select_loop": "GreedySolver: the lazy selection loop (iterations/refreshes as attrs)",
    "local_search.round": "LocalSearchRefiner: one improvement round",
    "sdga.stage": "StageDeepeningGreedySolver: one deepening stage",
    "sra.round": "StochasticRefiner: one stochastic restart round",
    "bba.search": "BranchAndBoundSolver: the expansion/backtrack search loop",
    "cache.full_build": "delta.built_score_matrix: cold build of the chain's score matrix",
    "dense.recompile": "WGRAPProblem.dense_view: cold DenseProblem compilation",
    "delta.append_paper": "delta.dense_view_with_paper: carry a dense view across add_paper",
    "delta.drop_reviewer": "delta.dense_view_without_reviewer: carry a view across a withdraw",
    "delta.conflict_patch": "delta.patch_conflicts_in_place: conflict-tail replay on a cached view",
    "parallel.score_shards": "sharded_score_matrix: fan out score shards to the pool",
    "portfolio.race": "run_portfolio: race the solver lineup (serial or process pool)",
    "store.open": "SqliteProblemStore.create/open: schema setup or compile-time bulk load",
    "store.compile": "SqliteProblemStore.load_problem: materialise the instance from rows",
    "store.index_update": "SqliteProblemStore: one mutation or conflict-tail row delta",
    "store.block_io": "MemmapScoreStore: blockwise build/write/append/drop traffic",
    "net.batch": "Tenant worker: one cross-client batch drained through the session",
    "durability.checkpoint": "TenantJournal.checkpoint: atomic snapshot write + WAL rotation",
    "durability.recover": "TenantJournal.recover: checkpoint load + WAL tail replay",
    "replication.catch_up": "ReplicationSender: snapshot + WAL-tail catch-up for one tenant",
    "replication.apply": "StandbyReplica: journal + replay one shipped record",
    "replication.promote": "StandbyCoordinator.promote: drain the tail, admit writes",
}

#: metric name -> one-line description.  Counters unless stated otherwise.
METRIC_NAMES: dict[str, str] = {
    "engine.solves": "completed AssignmentEngine.solve calls",
    "engine.portfolio_solves": "completed solve_portfolio calls",
    "engine.journal_queries": "journal queries answered",
    "engine.journal_cache_hits": "journal queries that reused a cached JRA sub-problem",
    "engine.journal_answer_hits": "journal queries answered from the answer store, without a solve",
    "engine.add_paper": "papers added (net of rollbacks)",
    "engine.remove_reviewer": "reviewers withdrawn (net of rollbacks)",
    "engine.bid_updates": "bid records applied",
    "engine.evaluations": "assignment evaluations computed",
    "engine.solve.seconds": "histogram: AssignmentEngine.solve wall time",
    "engine.portfolio.seconds": "histogram: solve_portfolio wall time",
    "engine.journal.seconds": "histogram: journal_query wall time",
    "engine.add_paper.seconds": "histogram: add_paper wall time",
    "engine.withdraw_reviewer.seconds": "histogram: withdraw_reviewer wall time",
    "service.requests": "requests dispatched by the session",
    "service.failures": "requests answered ok=false",
    "service.errors.<error_type>": "failures by structured error_type",
    "service.request.<kind>.seconds": "histogram: request latency per wire kind",
    "solver.<name>.seconds": "histogram: per-solver wall time (process-global registry)",
    "cache.<stat>": "gauge: absorbed score-matrix and ranking counters (CacheStats)",
    "delta.<stat>": "gauge: absorbed dense-view ViewStats counters",
    "store.<stat>": "gauge: absorbed SqliteProblemStore row/block counters (store.describe())",
    "service.net.connections": "client connections accepted by the TCP server",
    "service.net.open_connections": "gauge: currently connected clients",
    "service.net.requests": "non-blank request frames received on the wire",
    "service.net.protocol_errors": "frames refused as malformed (bad UTF-8/JSON/kind/oversized)",
    "service.net.overloaded": "requests refused by admission control",
    "service.net.batches": "tenant-worker batch drains",
    "service.net.batched_requests": "requests served through tenant batch drains",
    "service.net.request.seconds": "histogram: queue-to-answer latency on the network path",
    "service.net.tenants": "gauge: resident tenant engines",
    "service.net.worker_restarts": "supervised tenant-worker restarts after a crash",
    "durability.wal.records": "WAL records appended",
    "durability.wal.bytes": "WAL bytes appended",
    "durability.wal.fsyncs": "fsync calls issued by the WAL",
    "durability.checkpoints": "tenant checkpoints written",
    "durability.checkpoint.seconds": "histogram: TenantJournal.checkpoint wall time (encode, write, WAL rotation)",
    "durability.checkpoint.bytes": "checkpoint.json bytes written by TenantJournal.checkpoint",
    "durability.checkpoint.encoded": "checkpoint pieces (reviewers, papers) encoded afresh, not reused from the last checkpoint",
    "durability.recoveries": "journal recoveries run",
    "durability.replayed_records": "WAL records replayed during recovery",
    "durability.dropped_bytes": "torn WAL suffix bytes dropped at recovery",
    "durability.deduped": "mutations answered from the idempotency map (no re-execution)",
    "durability.applied_evicted": "idempotency keys evicted from the bounded applied map",
    "replication.shipped": "WAL records shipped to the standby (primary side)",
    "replication.applied": "shipped records applied on the standby",
    "replication.duplicates": "shipped records skipped as already-applied on the standby",
    "replication.gaps": "out-of-order frames refused by the standby (trigger resync)",
    "replication.snapshots": "checkpoint snapshots shipped for catch-up",
    "replication.resyncs": "per-tenant catch-up rounds run by the sender",
    "replication.heartbeats": "heartbeat frames sent to the standby",
    "replication.reconnects": "replication connections (re)established by the primary",
    "replication.promotions": "standby promotions completed",
    "replication.lag": "gauge: shipped-but-unacked records, all tenants (primary side)",
    "fault.injections": "failpoint firings, all sites",
    "fault.<site>.injections": "failpoint firings at one site (repro.fault)",
}

_PLACEHOLDER = re.compile(r"<[^<>.]+>")


def _pattern_to_regex(pattern: str) -> re.Pattern[str]:
    parts = _PLACEHOLDER.split(pattern)
    return re.compile("[^.]+".join(re.escape(part) for part in parts) + r"\Z")


_SPAN_PATTERNS = [_pattern_to_regex(p) for p in SPAN_NAMES]
_METRIC_PATTERNS = [_pattern_to_regex(p) for p in METRIC_NAMES]


def matches_name(name: str, kind: str = "metric") -> bool:
    """True when ``name`` matches a registered span or metric pattern."""
    patterns = _SPAN_PATTERNS if kind == "span" else _METRIC_PATTERNS
    return any(pattern.match(name) for pattern in patterns)
