"""Network-layer conformance: concurrent == serial, bitwise (ISSUE-7 satellite).

N concurrent clients interleave mutations (add_paper, withdraw_reviewer,
update_bids) and queries (journal, solve, evaluate) against one tenant of
a live TCP server.  The per-tenant ``seq`` on every response names the
total order the worker actually executed, so the whole concurrent run can
be replayed *serially* through a fresh :class:`EngineSession` on an
identically-built engine — and every response must come back
**bitwise-equal** (after scrubbing wall-clock and envelope fields).

This is the PR-5 conformance regime extended across the socket: it pins
that the network layer adds routing, batching and concurrency without
adding *any* semantics — a cross-client batch only groups requests per
worker hop and serves each through the same dispatch, the single worker
thread is a faithful serializer, and error responses (infeasible
mutations, unknown ids) are deterministic too.
"""

from __future__ import annotations

import json

import pytest

from repro.service.engine import AssignmentEngine
from repro.service.requests import paper_to_payload, request_from_dict
from repro.service.session import EngineSession
from repro.net import NetClient

from tests.conformance import GRID, late_paper, make_instance
from tests.net_utils import ServerHarness, strip_volatile

#: Request-kind rotation per (client, step) slot — mutations and queries
#: interleaved so concurrent clients genuinely contend on engine state.
_N_CLIENTS = 6
_N_REQUESTS = 8


def _script(client: int, problem) -> list[dict]:
    """The deterministic request script of one client."""
    paper_ids = list(problem.paper_ids)
    reviewer_ids = list(problem.reviewer_ids)
    script: list[dict] = []
    for step in range(_N_REQUESTS):
        slot = (client + 2 * step) % 6
        request_id = f"c{client}-r{step}"
        if slot == 0:
            script.append(
                {
                    "kind": "journal",
                    "paper_id": paper_ids[(client + step) % len(paper_ids)],
                    "id": request_id,
                }
            )
        elif slot == 1:
            script.append({"kind": "solve", "solver": "Greedy", "id": request_id})
        elif slot == 2:
            paper = late_paper(problem, f"net-{client}-{step}")
            script.append(
                {"kind": "add_paper", "paper": paper_to_payload(paper), "id": request_id}
            )
        elif slot == 3:
            script.append(
                {
                    "kind": "update_bids",
                    "bids": [
                        [
                            reviewer_ids[(client + step) % len(reviewer_ids)],
                            paper_ids[step % len(paper_ids)],
                            1.0 + client,
                        ]
                    ],
                    "id": request_id,
                }
            )
        elif slot == 4:
            script.append({"kind": "evaluate", "id": request_id})
        else:
            script.append(
                {
                    "kind": "withdraw_reviewer",
                    # a narrow rotation: repeats produce deterministic
                    # unknown_id errors, which must replay bitwise too
                    "reviewer_id": reviewer_ids[(client + step) % 3],
                    "id": request_id,
                }
            )
    return script


def _normalise(response: dict) -> dict:
    """Scrub volatile fields and JSON-round-trip for exact comparison."""
    return json.loads(json.dumps(strip_volatile(response)))


async def _drive(host: str, port: int, script: list[dict]) -> list[tuple[int, dict, dict]]:
    """One closed-loop client; returns (seq, request, response) triples."""
    client = await NetClient.connect(host, port)
    triples = []
    try:
        for request in script:
            response = await client.request(request)
            assert response.get("seq") is not None, response
            triples.append((response["seq"], request, response))
    finally:
        await client.close()
    return triples


def _run_concurrent(grid_id: str, pipelined: bool) -> list[tuple[int, dict, dict]]:
    spec = GRID[grid_id]
    harness = ServerHarness(max_pending=10_000)
    harness.add_tenant("conf", AssignmentEngine(make_instance(spec)), default=True)
    harness.start()
    try:
        problem = make_instance(spec)  # a pristine copy for script building
        scripts = [_script(c, problem) for c in range(_N_CLIENTS)]
        if pipelined:

            async def _drive_pipelined(script: list[dict]):
                client = await NetClient.connect(harness.host, harness.port)
                try:
                    for request in script:
                        await client.send(request)
                    triples = []
                    for request in script:
                        response = await client.recv()
                        triples.append((response["seq"], request, response))
                    return triples
                finally:
                    await client.close()

            coros = [_drive_pipelined(script) for script in scripts]
        else:
            coros = [_drive(harness.host, harness.port, script) for script in scripts]

        import asyncio

        async def _gather_all():
            return await asyncio.gather(*coros)

        all_triples = harness.run(_gather_all(), timeout=120)
    finally:
        harness.stop()
    merged = [triple for one_client in all_triples for triple in one_client]
    merged.sort(key=lambda triple: triple[0])
    return merged


def _replay_serially(grid_id: str, ordered_requests: list[dict]) -> list[dict]:
    session = EngineSession(AssignmentEngine(make_instance(GRID[grid_id])))
    return [
        session.dispatch(request_from_dict(payload)).to_dict()
        for payload in ordered_requests
    ]


@pytest.mark.parametrize("grid_id", ["compact", "wide-groups"])
@pytest.mark.parametrize("pipelined", [False, True], ids=["closed-loop", "pipelined"])
def test_concurrent_run_replays_serially_bitwise(grid_id, pipelined):
    triples = _run_concurrent(grid_id, pipelined)
    assert len(triples) == _N_CLIENTS * _N_REQUESTS

    # seq is a gap-free total order
    assert [seq for seq, _, _ in triples] == list(range(1, len(triples) + 1))

    serial = _replay_serially(grid_id, [request for _, request, _ in triples])
    for (seq, request, concurrent_response), serial_response in zip(triples, serial):
        assert _normalise(concurrent_response) == _normalise(serial_response), (
            f"seq {seq} ({request['kind']}, id {request['id']}) diverged "
            "between the concurrent server run and the serial session replay"
        )


def test_client_order_is_preserved_within_a_connection():
    """Per-connection FIFO: each client's seqs are strictly increasing."""
    triples = _run_concurrent("compact", pipelined=True)
    by_client: dict[str, list[int]] = {}
    for seq, request, _ in triples:
        by_client.setdefault(request["id"].split("-")[0], []).append(seq)
    for client, seqs in by_client.items():
        assert seqs == sorted(seqs), f"client {client} responses reordered"
