"""Tests of the benchmark's own summary code (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pb_layers  # noqa: E402
import pb_spans  # noqa: E402
import pb_stats  # noqa: E402
import run  # noqa: E402
from pb_serve import Exchange  # noqa: E402


class TestPercentiles:
    def test_nearest_rank(self):
        values = [float(v) for v in range(100, 0, -1)]
        assert pb_stats.percentile(values, 0.5) == 50.0
        assert pb_stats.percentile(values, 0.99) == 99.0
        assert pb_stats.percentile(values, 1.0) == 100.0
        assert pb_stats.percentile([7.0], 0.99) == 7.0

    def test_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            pb_stats.percentile([], 0.5)
        with pytest.raises(ValueError):
            pb_stats.percentile([1.0], 0.0)

    @pytest.mark.parametrize("q, needed", [(0.5, 20), (0.95, 200), (0.99, 1000), (0.999, 10000)])
    def test_sample_count_rule(self, q, needed):
        assert pb_stats.min_samples(q) == needed
        assert pb_stats.supports(needed, q)
        assert not pb_stats.supports(needed - 1, q)

    @pytest.mark.parametrize("count", [1000, 1500, 4321])
    def test_ten_samples_lie_beyond_a_supported_p99(self, count):
        values = [float(v) for v in range(count)]
        assert pb_stats.supports(count, 0.99)
        p99 = pb_stats.percentile(values, 0.99)
        assert sum(1 for v in values if v > p99) >= pb_stats.SAMPLES_BEYOND

    def test_unsupported_p99_has_fewer_than_ten_beyond(self):
        values = [float(v) for v in range(999)]
        p99 = pb_stats.percentile(values, 0.99)
        assert sum(1 for v in values if v > p99) < pb_stats.SAMPLES_BEYOND

    def test_tail_is_p95_when_supported_else_highest_supported(self):
        assert pb_stats.tail([float(v) for v in range(1, 201)]) == 190.0
        # 100 samples support at most the 90th percentile
        assert pb_stats.tail([float(v) for v in range(1, 101)]) == 90.0
        # too few for any percentile above the median: the median
        assert pb_stats.tail([3.0, 1.0, 2.0]) == 2.0
        assert pb_stats.tail([4.0, 2.0]) == 3.0

    def test_median(self):
        assert pb_stats.median([3.0, 1.0, 2.0]) == 2.0
        assert pb_stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5


class TestFailureAccounting:
    def _exchanges(self):
        ok = {"kind": "journal", "ok": True, "payload": {}, "seq": 1}
        refused = {"kind": "journal", "ok": False, "error_type": "overloaded", "seq": 2}
        failed = {"kind": "update_bids", "ok": False, "error_type": "unknown_id", "seq": 3}
        return [
            Exchange({"kind": "journal", "id": "a"}, 5.0, ok),
            Exchange({"kind": "journal", "id": "b"}, 1.0, refused),
            Exchange({"kind": "update_bids", "id": "c"}, 2.0, failed),
            Exchange({"kind": "add_paper", "id": "d"}, 3.0, None),  # transport lost
        ]

    def test_refused_failed_and_lost_count_as_attempted_and_failed(self):
        attempted, failed = run.tally(4, self._exchanges())
        assert (attempted, failed) == (4, 3)

    def test_unsent_requests_count_as_failed(self):
        attempted, failed = run.tally(10, self._exchanges())
        assert (attempted, failed) == (10, 9)

    def test_failures_miss_every_latency_limit(self):
        classes = run._classes(self._exchanges())
        overall = classes["all"]
        assert overall.attempted == 4 and overall.failed == 3
        assert overall.p50() == pb_stats.FAILED_LATENCY_MS
        assert overall.p99() == pb_stats.FAILED_LATENCY_MS
        assert classes["journal"].latencies_ms == [5.0, pb_stats.FAILED_LATENCY_MS]
        assert classes["mutation"].failed == 2
        assert all(v > 1e5 for v in classes["mutation"].latencies_ms)

    def test_error_rate(self):
        assert pb_stats.error_rate(4, 3) == 0.75
        assert pb_stats.error_rate(0, 0) == 1.0


def _span(name, start, end, parent=-1, request=None, note=None):
    return [name, start, end, parent, request, 1, note]


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            _span("net.batch", 0.0, 10.0),                 # 0
            _span("session.dispatch", 1.0, 4.0, 0),        # 1
            _span("wal.append", 3.0, 6.0, 0),              # 2: overlaps 1
            _span("engine.evaluate", 2.0, 3.0, 1),         # 3
            _span("quality.assignment_score", 9.0, 12.0, 0),  # 4: ends past its parent
        ]
        assert pb_spans.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])

    def test_layer_of(self):
        assert pb_spans.layer_of("session.dispatch") == "service.session"
        assert pb_spans.layer_of("wal.sync") == "durability"
        assert pb_spans.layer_of("journal.checkpoint") == "durability"
        assert pb_spans.layer_of("quality.optimality_ratio") == "metrics"
        assert pb_spans.layer_of("mystery") == "other"

    def test_layer_shares_cover_the_window(self):
        spans = [
            _span("net.batch", 0.0, 10.0),
            _span("session.dispatch", 1.0, 9.0, 0),
            _span("engine.journal_query", 2.0, 8.0, 1),
            _span("jra.solve", 3.0, 7.0, 2),
            _span("net.batch", 20.0, 30.0),  # outside the window
        ]
        shares = pb_layers.SpanSet({"spans": spans}, (0.0, 15.0)).layer_shares(10.0)
        assert shares["net"] == pytest.approx(0.2)
        assert shares["service.session"] == pytest.approx(0.2)
        assert shares["service.engine"] == pytest.approx(0.2)
        assert shares["jra"] == pytest.approx(0.4)
        assert shares["other"] == pytest.approx(0.0)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == pb_layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
