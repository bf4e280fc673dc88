"""Per-layer metrics of the traced run, from spans plus program counters.

Every metric named in :data:`PER_LAYER` is reported for every workload; a
layer that does no work on a workload reports 0.  Spans count toward the
measured window when the root of their tree started inside it, so set-up
work (the score-matrix build, the set-up solve, the warm-up queries) is
kept apart from the load; the metrics that track ``setup_s`` say so below.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from pb_serve import MUTATION_KINDS
from pb_spans import LAYERS, layer_of, self_times
from pb_stats import median, percentile

#: layers whose share of busy time is reported (``layer_share.<layer>``)
SHARE_LAYERS = sorted(set(LAYERS.values()) | {"other"})

DISPATCH_KINDS = ("journal", "evaluate", "stats", "update_bids", "add_paper",
                  "withdraw_reviewer")
ENGINE_CALLS = ("journal_query", "evaluate", "stats", "add_paper",
                "withdraw_reviewer", "update_bids")

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: list[tuple[str, str, str]] = [
    ("net.queue_wait_ms.p50", "ms", "lower"),
    ("net.queue_wait_ms.p99", "ms", "lower"),
    ("net.batch_size.mean", "count", "higher"),
    ("net.outside_ms.p50", "ms", "lower"),
    ("net.server_cpu_ms_per_request", "ms", "lower"),
    *[(f"session.dispatch_ms.{kind}.p50", "ms", "lower") for kind in DISPATCH_KINDS],
    ("session.dispatch.unattributed_share", "share", "lower"),
    *[(f"engine.{call}_ms.p50", "ms", "lower") for call in ENGINE_CALLS],
    ("engine.journal_cache_hits", "count", "higher"),
    ("engine.journal_cache_hit_share", "share", "higher"),
    ("jra.solves_per_journal", "ratio", "lower"),
    ("jra.solve_ms.p50", "ms", "lower"),
    ("jra.problem_builds", "count", "lower"),
    ("jra.build_ms.p50", "ms", "lower"),
    ("delta.prune_certified_share", "share", "higher"),
    ("delta.delta_applies", "count", "higher"),
    ("delta.recompiles", "count", "lower"),
    ("cache.full_builds", "count", "lower"),
    ("cache.scored_cells", "count", "lower"),
    ("cache.columns_added", "count", "higher"),
    ("cache.matrix_build_s", "s", "lower"),
    ("cache.top_reviewers_ms.p50", "ms", "lower"),
    ("quality.evaluate_parts_ms.p50", "ms", "lower"),
    ("quality.optimality_ratio_s", "s", "lower"),
    ("wal.append_ms.p50", "ms", "lower"),
    ("wal.sync_ms.p50", "ms", "lower"),
    ("wal.syncs_per_mutation", "ratio", "lower"),
    ("wal.bytes_per_mutation", "bytes", "lower"),
    ("journal.checkpoints", "count", "lower"),
    ("journal.checkpoint_ms.p50", "ms", "lower"),
    ("cra.solve_s", "s", "lower"),
    ("topics.atm_fit_s", "s", "lower"),
    ("topics.atm_token_sweeps_per_s", "1/s", "higher"),
    ("topics.em_infer_s", "s", "lower"),
    ("topics.corpus_build_s", "s", "lower"),
    *[(f"layer_share.{layer}", "share", "lower") for layer in SHARE_LAYERS],
    ("trace.overhead_share", "share", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("journal_p50_ms", "ms", "lower"),
    ("journal_p99_ms", "ms", "lower"),
    ("mutation_p50_ms", "ms", "lower"),
    ("mutation_p99_ms", "ms", "lower"),
    ("pipeline_s", "s", "lower"),
    ("assignment_coverage", "score", "higher"),
    ("error_rate", "share", "lower"),
]


class SpanSet:
    """Spans of one process with their self times, roots and windows."""

    def __init__(self, document: dict[str, Any], window: tuple[float, float]) -> None:
        self.spans = document["spans"]
        self.queue_wait = {int(k): v for k, v in document.get("queue_wait", {}).items()}
        self.self_s = self_times(self.spans)
        self.root = []
        for position, row in enumerate(self.spans):
            parent = row[3]
            # parents always precede their children in recording order
            self.root.append(self.root[parent] if parent >= 0 else position)
        start, end = window
        self.in_window = [start <= self.spans[self.root[i]][1] <= end
                          for i in range(len(self.spans))]

    def named(self, name: str, window_only: bool = True) -> list[int]:
        return [i for i, row in enumerate(self.spans)
                if row[0] == name and (self.in_window[i] or not window_only)]

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def ancestors(self, i: int):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def p50_ms(self, name: str) -> float:
        values = [self.duration(i) * 1000.0 for i in self.named(name)]
        return median(values) if values else 0.0

    def total_s(self, name: str, window_only: bool = True, top_level: bool = False) -> float:
        total = 0.0
        for i in self.named(name, window_only):
            if top_level and any(self.spans[a][0] == name for a in self.ancestors(i)):
                continue
            total += self.duration(i)
        return total

    def layer_shares(self, busy_s: float) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for i, row in enumerate(self.spans):
            if self.in_window[i]:
                totals[layer_of(row[0])] += self.self_s[i]
        shares = {layer: totals.get(layer, 0.0) / busy_s for layer in SHARE_LAYERS}
        shares["other"] = max(0.0, 1.0 - sum(v for k, v in shares.items() if k != "other"))
        return shares


def _counter_delta(before: dict, after: dict, *path: str) -> float:
    def dig(payload: dict) -> float:
        value: Any = payload["payload"]["engine"]
        for key in path:
            value = value.get(key, 0) if isinstance(value, dict) else 0
        return float(value or 0)

    return dig(after) - dig(before)


def _jra_solves(spans: SpanSet) -> list[int]:
    """Top-level JRA solves made on behalf of journal queries."""
    solves = []
    for i, row in enumerate(spans.spans):
        if not spans.in_window[i] or row[0] not in ("jra.solve", "jra.find_top_k_groups"):
            continue
        names = [spans.spans[a][0] for a in spans.ancestors(i)]
        if "engine.journal_query" in names and not any(
                n in ("jra.solve", "jra.find_top_k_groups") for n in names):
            solves.append(i)
    return solves


def serve_layers(document: dict, window: tuple[float, float], exchanges: list,
                 stats_before: dict, stats_after: dict, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced serve pass."""
    spans = SpanSet(document, window)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    answered = [e for e in exchanges if e.response is not None and "seq" in e.response]
    seqs = {e.response["seq"] for e in answered}

    waits = [spans.queue_wait[s] * 1000.0 for s in seqs if s in spans.queue_wait]
    if waits:
        metrics["net.queue_wait_ms.p50"] = percentile(waits, 0.5)
        metrics["net.queue_wait_ms.p99"] = percentile(waits, 0.99)
    batches = spans.named("net.batch")
    if batches:
        metrics["net.batch_size.mean"] = sum(spans.spans[i][6] for i in batches) / len(batches)

    # Client latency minus queue wait, the request's own serve and the rest
    # of its batch (later requests, fsync, checkpoint): decode, encode,
    # socket and the thread hop back to the event loop.
    served: dict[int, float] = {}
    for i in spans.named("net.serve_one"):
        row = spans.spans[i]
        parent_end = spans.spans[row[3]][2] if row[3] >= 0 else row[2]
        served[row[4]] = parent_end - row[1]
    outside = [e.latency_ms - 1000.0 * (spans.queue_wait.get(e.response["seq"], 0.0)
                                        + served.get(e.response["seq"], 0.0))
               for e in answered if e.response["seq"] in served]
    if outside:
        metrics["net.outside_ms.p50"] = median(outside)
    ok = sum(1 for e in answered if e.response.get("ok"))
    metrics["net.server_cpu_ms_per_request"] = cpu_s * 1000.0 / max(1, ok)

    dispatch = spans.named("session.dispatch")
    by_kind: dict[str, list[float]] = defaultdict(list)
    for i in dispatch:
        by_kind[spans.spans[i][6]].append(spans.duration(i) * 1000.0)
    for kind in DISPATCH_KINDS:
        if by_kind.get(kind):
            metrics[f"session.dispatch_ms.{kind}.p50"] = median(by_kind[kind])
    total = sum(spans.duration(i) for i in dispatch)
    if total:
        metrics["session.dispatch.unattributed_share"] = sum(spans.self_s[i] for i in dispatch) / total
    for call in ENGINE_CALLS:
        metrics[f"engine.{call}_ms.p50"] = spans.p50_ms(f"engine.{call}")

    queries = _counter_delta(stats_before, stats_after, "journal_queries")
    hits = _counter_delta(stats_before, stats_after, "journal_cache_hits")
    metrics["engine.journal_cache_hits"] = hits
    metrics["engine.journal_cache_hit_share"] = hits / queries if queries else 0.0
    journal_spans = spans.named("engine.journal_query")
    solves = _jra_solves(spans)
    if journal_spans:
        metrics["jra.solves_per_journal"] = len(solves) / len(journal_spans)
    if solves:
        metrics["jra.solve_ms.p50"] = median([spans.duration(i) * 1000.0 for i in solves])
    metrics["jra.problem_builds"] = float(len(spans.named("jra.build")))
    metrics["jra.build_ms.p50"] = spans.p50_ms("jra.build")

    certified = _counter_delta(stats_before, stats_after, "delta", "prune_certified")
    fallbacks = _counter_delta(stats_before, stats_after, "delta", "prune_fallbacks")
    if certified + fallbacks:
        metrics["delta.prune_certified_share"] = certified / (certified + fallbacks)
    for key in ("delta_applies", "recompiles"):
        metrics[f"delta.{key}"] = _counter_delta(stats_before, stats_after, "delta", key)
    for key in ("full_builds", "scored_cells", "columns_added"):
        metrics[f"cache.{key}"] = _counter_delta(stats_before, stats_after, "cache", key)
    metrics["cache.matrix_build_s"] = sum(
        (spans.duration(i) for i in spans.named("cache.matrix", window_only=False)
         if spans.spans[i][6] == "build"), 0.0)
    metrics["cache.top_reviewers_ms.p50"] = spans.p50_ms("cache.top_reviewers")
    _quality(spans, metrics)

    mutations = sum(1 for e in answered
                    if e.response.get("ok") and e.request["kind"] in MUTATION_KINDS)
    metrics["wal.append_ms.p50"] = spans.p50_ms("wal.append")
    metrics["wal.sync_ms.p50"] = spans.p50_ms("wal.sync")
    if mutations:
        fsyncs = _counter_delta(stats_before, stats_after, "metrics", "durability.wal.fsyncs")
        written = _counter_delta(stats_before, stats_after, "metrics", "durability.wal.bytes")
        metrics["wal.syncs_per_mutation"] = fsyncs / mutations
        metrics["wal.bytes_per_mutation"] = written / mutations
    metrics["journal.checkpoints"] = _counter_delta(
        stats_before, stats_after, "metrics", "durability.checkpoints")
    metrics["journal.checkpoint_ms.p50"] = spans.p50_ms("journal.checkpoint")
    metrics["cra.solve_s"] = spans.total_s("cra.solve", window_only=False, top_level=True)

    busy = sum(spans.duration(i) for i in batches)
    if busy:
        for layer, share in spans.layer_shares(busy).items():
            metrics[f"layer_share.{layer}"] = share
    return metrics


def _quality(spans: SpanSet, metrics: dict[str, float]) -> None:
    parts: dict[int, float] = defaultdict(float)
    for name in ("quality.assignment_score", "quality.lowest_coverage_score"):
        for i in spans.named(name):
            owner = next((a for a in spans.ancestors(i)
                          if spans.spans[a][0] == "engine.evaluate"), None)
            if owner is not None:
                parts[owner] += spans.duration(i) * 1000.0
    if parts:
        metrics["quality.evaluate_parts_ms.p50"] = median(list(parts.values()))
    metrics["quality.optimality_ratio_s"] = spans.total_s("quality.optimality_ratio")


def pipeline_layers(document: dict, outcome: dict) -> dict[str, float]:
    """Per-layer metrics of a traced pipeline process."""
    window = tuple(outcome["window"])
    spans = SpanSet(document, window)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    atm = spans.total_s("topics.atm_fit")
    metrics["topics.atm_fit_s"] = atm
    if atm:
        from pb_workloads import ATM_SWEEPS

        metrics["topics.atm_token_sweeps_per_s"] = outcome["tokens"] * ATM_SWEEPS / atm
    metrics["topics.em_infer_s"] = spans.total_s("topics.em_infer")
    metrics["topics.corpus_build_s"] = spans.total_s("topics.corpus_build", window_only=False)
    metrics["cra.solve_s"] = spans.total_s("cra.solve", top_level=True)
    metrics["engine.evaluate_ms.p50"] = spans.p50_ms("engine.evaluate")
    _quality(spans, metrics)
    metrics["cache.matrix_build_s"] = sum(
        (spans.duration(i) for i in spans.named("cache.matrix")
         if spans.spans[i][6] == "build"), 0.0)
    for layer, share in spans.layer_shares(window[1] - window[0]).items():
        metrics[f"layer_share.{layer}"] = share
    return metrics
