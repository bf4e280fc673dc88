"""Integration tests for the asyncio multi-tenant server (:mod:`repro.net`).

Each test runs a *live* TCP server on a background event loop
(:class:`tests.net_utils.ServerHarness`) and talks to it over real
sockets, so the full path — accept, frame parse, tenant routing,
admission, worker-thread execution, FIFO write-back — is exercised, not
mocked.  Deterministic overload/batching tests gate the tenant's batch
on a :class:`threading.Event` instead of racing wall clocks.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.data.io import problem_to_dict
from repro.data.synthetic import make_problem
from repro.fault import get_failpoints
from repro.net import AdmissionController
from repro.obs.metrics import get_registry
from repro.service.engine import AssignmentEngine

from tests.net_utils import HARD_TIMEOUT, ServerHarness, wait_until


def small_engine(seed: int = 0, num_papers: int = 12, num_reviewers: int = 10) -> AssignmentEngine:
    return AssignmentEngine(
        make_problem(num_papers, num_reviewers, num_topics=6, group_size=2, seed=seed)
    )


@pytest.fixture()
def harness():
    h = ServerHarness()
    h.add_tenant("sigmod", small_engine(seed=0), default=True)
    h.start()
    yield h
    h.stop()


class GatedBatch:
    """Wraps a tenant's batch so its worker blocks until released."""

    def __init__(self, tenant) -> None:
        self.gate = threading.Event()
        self._orig_serve = tenant._serve_batch_durable
        tenant._serve_batch_durable = self._gated_serve

    def _gated_serve(self, batch):
        assert self.gate.wait(HARD_TIMEOUT), "gate never released"
        return self._orig_serve(batch)

    def release(self) -> None:
        self.gate.set()


# ----------------------------------------------------------------------
# Basics: envelope, ordering, per-frame error isolation
# ----------------------------------------------------------------------
class TestProtocolBasics:
    def test_response_carries_tenant_and_seq(self, harness):
        response = harness.call({"kind": "stats", "id": 7})
        assert response["ok"] is True
        assert response["id"] == 7
        assert response["tenant"] == "sigmod"
        assert response["seq"] >= 1

    def test_pipelined_responses_keep_request_order(self, harness):
        with harness.client() as client:
            for i in range(20):
                client.send({"kind": "evaluate" if i % 2 else "stats", "id": i})
            ids = [client.recv()["id"] for i in range(20)]
        assert ids == list(range(20))

    def test_seq_is_the_tenant_total_order(self, harness):
        with harness.client() as client:
            for i in range(10):
                client.send({"kind": "stats", "id": i})
            seqs = [client.recv()["seq"] for _ in range(10)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 10

    @pytest.mark.parametrize(
        "frame, fragment",
        [
            (b"\xff\xfe{}\n", "invalid UTF-8"),
            (b"{not json}\n", "invalid JSON"),
            (b"[1, 2, 3]\n", "JSON object"),
            (b'{"kind": "warp"}\n', "unknown request kind"),
            (b'{"kind": 42}\n', "string 'kind'"),
            (b'{"kind": "journal"}\n', "exactly one of"),
        ],
    )
    def test_malformed_frames_get_one_structured_error(self, harness, frame, fragment):
        with harness.client() as client:
            client.send_raw(frame)
            response = client.recv()
            assert response["ok"] is False
            assert response["error_type"] == "request"
            assert fragment in response["error"]
            assert "Traceback" not in response["error"]
            # the connection survives and serves the next request
            assert client.request({"kind": "stats"})["ok"] is True

    def test_oversized_line_is_answered_and_resynced(self):
        harness = ServerHarness(max_line_bytes=4096)
        harness.add_tenant("sigmod", small_engine(seed=0))
        harness.start()
        try:
            with harness.client() as client:
                client.send_raw(b'{"kind": "solve", "pad": "' + b"x" * 50_000 + b'"}\n')
                response = client.recv()
                assert response["ok"] is False
                assert "byte limit" in response["error"]
                assert client.request({"kind": "stats"})["ok"] is True
        finally:
            harness.stop()

    def test_blank_lines_are_skipped(self, harness):
        with harness.client() as client:
            client.send_raw(b"\n   \n")
            assert client.request({"kind": "stats", "id": 1})["id"] == 1


# ----------------------------------------------------------------------
# Multi-tenancy
# ----------------------------------------------------------------------
class TestTenancy:
    def test_requests_route_by_tenant_field(self, harness):
        harness.add_tenant("vldb", small_engine(seed=9, num_papers=7, num_reviewers=8))
        a = harness.call({"kind": "solve", "solver": "Greedy", "tenant": "sigmod"})
        b = harness.call({"kind": "solve", "solver": "Greedy", "tenant": "vldb"})
        assert a["ok"] and b["ok"]
        assert a["tenant"] == "sigmod" and b["tenant"] == "vldb"
        assert len(a["payload"]["assignment"]) == 12
        assert len(b["payload"]["assignment"]) == 7

    def test_default_tenant_serves_unrouted_requests(self, harness):
        harness.add_tenant("vldb", small_engine(seed=9))
        assert harness.call({"kind": "stats"})["tenant"] == "sigmod"

    def test_unknown_tenant_is_unknown_id(self, harness):
        response = harness.call({"kind": "stats", "tenant": "icde"})
        assert response["ok"] is False
        assert response["error_type"] == "unknown_id"
        assert "icde" in response["error"]

    def test_non_string_tenant_is_a_request_error(self, harness):
        response = harness.call({"kind": "stats", "tenant": 3})
        assert response["ok"] is False
        assert response["error_type"] == "request"

    def test_tenant_state_is_isolated(self, harness):
        harness.add_tenant("vldb", small_engine(seed=9))
        harness.call({"kind": "solve", "solver": "Greedy", "tenant": "vldb"})
        stats = harness.call({"kind": "stats", "tenant": "sigmod"})
        assert stats["payload"]["engine"]["has_assignment"] is False

    def test_create_list_evict_roundtrip(self, harness, tmp_path):
        problem = make_problem(6, 8, num_topics=5, group_size=2, seed=4)
        created = harness.call(
            {
                "kind": "create_tenant",
                "tenant": "kdd",
                "problem": problem_to_dict(problem),
                "warm": True,
            }
        )
        assert created["ok"] is True
        assert created["payload"]["num_papers"] == 6

        listed = harness.call({"kind": "list_tenants"})
        assert set(listed["payload"]["tenants"]) == {"sigmod", "kdd"}

        solved = harness.call({"kind": "solve", "solver": "Greedy", "tenant": "kdd"})
        assert solved["ok"] is True

        snapshot_path = tmp_path / "kdd.json"
        evicted = harness.call(
            {"kind": "evict_tenant", "tenant": "kdd", "snapshot_path": str(snapshot_path)}
        )
        assert evicted["ok"] is True
        assert snapshot_path.exists()
        gone = harness.call({"kind": "stats", "tenant": "kdd"})
        assert gone["error_type"] == "unknown_id"

        # resurrect from the snapshot: the installed assignment survives
        revived = harness.call(
            {"kind": "create_tenant", "tenant": "kdd", "snapshot_path": str(snapshot_path)}
        )
        assert revived["ok"] is True
        assert revived["payload"]["has_assignment"] is True

    def test_create_tenant_validates_input(self, harness):
        assert (
            harness.call({"kind": "create_tenant", "tenant": "x"})["error_type"]
            == "request"
        )
        assert (
            harness.call(
                {"kind": "create_tenant", "tenant": "sigmod", "problem": {}}
            )["error_type"]
            == "configuration"
        )
        bad = harness.call({"kind": "create_tenant", "tenant": "y", "problem": {"nope": 1}})
        assert bad["ok"] is False
        assert "Traceback" not in bad["error"]

    def test_evict_unknown_tenant_is_unknown_id(self, harness):
        assert (
            harness.call({"kind": "evict_tenant", "tenant": "icde"})["error_type"]
            == "unknown_id"
        )


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(max_pending=10, max_total_pending=5)

    def test_per_tenant_and_total_bounds(self):
        admission = AdmissionController(max_pending=2, max_total_pending=3)
        assert admission.try_admit("a") is None
        assert admission.try_admit("a") is None
        assert "backlog is full" in admission.try_admit("a")  # per-tenant bound
        assert admission.try_admit("b") is None
        assert "backlog is full" in admission.try_admit("b")  # total bound
        admission.release("a")
        assert admission.try_admit("b") is None
        assert admission.total_pending == 3

    def test_drain_refuses_everything(self):
        admission = AdmissionController(max_pending=4)
        assert admission.try_admit("a") is None
        admission.drain()
        assert "draining" in admission.try_admit("a")
        assert admission.total_pending == 1  # in-flight work is untouched

    def test_forget_clears_a_tenant(self):
        admission = AdmissionController(max_pending=2)
        admission.try_admit("a")
        admission.try_admit("a")
        admission.forget("a")
        assert admission.total_pending == 0
        assert admission.try_admit("a") is None


class TestOverload:
    def test_excess_requests_are_refused_as_overloaded(self):
        harness = ServerHarness(max_pending=2)
        tenant = harness.add_tenant("sigmod", small_engine(seed=0))
        harness.start()
        gate = GatedBatch(tenant)
        refusals = get_registry().counter("service.net.overloaded").value
        try:
            with harness.client() as client:
                for i in range(5):
                    client.send({"kind": "stats", "id": i})
                # wait until the server has parsed (and refused) the excess
                # before releasing the gate, so the count is deterministic
                wait_until(
                    lambda: get_registry().counter("service.net.overloaded").value
                    >= refusals + 3
                )
                gate.release()
                responses = [client.recv() for _ in range(5)]
            admitted = [r for r in responses if r["ok"]]
            refused = [r for r in responses if not r["ok"]]
            assert len(admitted) == 2
            assert len(refused) == 3
            for response in refused:
                assert response["error_type"] == "overloaded"
                assert "retry later" in response["error"]
                assert response["kind"] == "stats"  # the kind is still echoed
        finally:
            harness.stop()

    def test_admission_recovers_after_drain(self):
        harness = ServerHarness(max_pending=1)
        harness.add_tenant("sigmod", small_engine(seed=0))
        harness.start()
        try:
            # closed-loop: one in flight at a time never trips the bound
            with harness.client() as client:
                for i in range(10):
                    assert client.request({"kind": "stats", "id": i})["ok"] is True
        finally:
            harness.stop()


# ----------------------------------------------------------------------
# Cross-client batching
# ----------------------------------------------------------------------
class TestBatching:
    def test_queued_journal_queries_coalesce_into_one_drain(self):
        harness = ServerHarness()
        tenant = harness.add_tenant("sigmod", small_engine(seed=0))
        paper_ids = tenant.engine.problem.paper_ids
        harness.start()
        gate = GatedBatch(tenant)
        registry = get_registry()
        batches = registry.counter("service.net.batches").value
        batched = registry.counter("service.net.batched_requests").value
        try:
            clients = [harness.client() for _ in range(4)]
            try:
                # Wake the worker with one query, then queue 8 more from
                # four different connections while it is gated.
                clients[0].send({"kind": "journal", "paper_id": paper_ids[0]})
                for i in range(8):
                    clients[i % 4].send(
                        {"kind": "journal", "paper_id": paper_ids[i % len(paper_ids)]}
                    )
                wait_until(lambda: tenant.pending == 9)
                gate.release()
                for i, client in enumerate(clients):
                    expected = 3 if i == 0 else 2
                    for _ in range(expected):
                        assert client.recv()["ok"] is True
            finally:
                for client in clients:
                    client.close()
            # 9 requests from 4 connections in at most 2 worker hops: the
            # 8 gated arrivals were drained together.
            assert registry.counter("service.net.batched_requests").value - batched == 9
            assert registry.counter("service.net.batches").value - batches <= 2
        finally:
            harness.stop()

    def test_crashed_batch_without_a_journal_answers_internal(self, harness):
        # A tenant without a WAL has nothing to restart from: the batch the
        # worker crashed on is answered with internal errors, and the next
        # batch is served normally.
        get_failpoints().configure("tenant_worker", "once")
        try:
            failed = harness.call({"kind": "stats", "id": "crashed"})
        finally:
            get_failpoints().reset()
        assert failed["ok"] is False
        assert failed["error_type"] == "internal"
        assert failed["id"] == "crashed"
        assert harness.call({"kind": "stats"})["ok"] is True
        tenant = harness.server.tenants.get("sigmod")
        assert tenant.worker_restarts == 0


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_shutdown_drains_in_flight_work_then_answers(self):
        harness = ServerHarness()
        tenant = harness.add_tenant("sigmod", small_engine(seed=0))
        harness.start()
        gate = GatedBatch(tenant)
        try:
            worker = harness.client()
            controller = harness.client()
            late = harness.client()  # connected before the listener closes
            try:
                worker.send({"kind": "solve", "solver": "Greedy", "id": "slow"})
                wait_until(lambda: tenant.pending == 1)
                controller.send({"kind": "shutdown", "id": "bye"})
                # late arrivals during the drain are refused, not queued
                wait_until(lambda: harness.server.admission.draining)
                late.send({"kind": "stats", "id": "late"})
                gate.release()
                solved = worker.recv()
                assert solved["ok"] is True and solved["id"] == "slow"
                goodbye = controller.recv()
                assert goodbye["ok"] is True
                assert goodbye["payload"]["shutdown"] is True
                refused = late.recv()
                assert refused["error_type"] == "overloaded"
                assert "draining" in refused["error"]
            finally:
                worker.close()
                controller.close()
                late.close()
        finally:
            harness.stop()

    def test_shutdown_closes_the_listener(self, harness):
        assert harness.call({"kind": "shutdown"})["ok"] is True
        with pytest.raises(OSError):
            harness.client()


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestNetObservability:
    def test_net_metrics_reach_the_global_registry(self, harness):
        registry = get_registry()
        before = registry.counter("service.net.requests").value
        harness.call({"kind": "stats"})
        harness.call({"kind": "stats"})
        assert registry.counter("service.net.requests").value >= before + 2
        snapshot = harness.call({"kind": "metrics"})["payload"]["metrics"]
        assert "service.net.connections" in snapshot
        assert "service.net.request.seconds" in snapshot

    def test_protocol_errors_are_counted(self, harness):
        registry = get_registry()
        before = registry.counter("service.net.protocol_errors").value
        harness.call({"kind": "definitely-not-a-kind"})
        assert registry.counter("service.net.protocol_errors").value == before + 1
