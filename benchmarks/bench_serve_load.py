"""Network serving load benchmark: the ``repro.net`` TCP front end.

Not a figure of the paper — this bench pins the acceptance bar of the
multi-tenant asyncio server (ISSUE 7): an in-process
:class:`~repro.net.AssignmentServer` hosting warm
:class:`~repro.service.engine.AssignmentEngine` tenants is driven by
thousands of concurrent **closed-loop** clients (each keeps exactly one
request in flight) through :func:`repro.net.client.run_load`.  The
request mix is the read-heavy serving profile: journal queries against
the maintained score cache, engine stats and assignment evaluations,
fanned across the resident tenants.

Asserted invariants (CI runs this at smoke scale on every push):

* **zero failed requests** — every request is answered ``ok: true``;
  the admission bound is sized to the client count, so a refusal, a
  transport error or a connect failure is a server bug, not load
  shedding;
* every client completes its full script (``requests == clients *
  requests_per_client``).

Throughput (req/s) and latency percentiles (p50/p95/p99) land in
``benchmarks/results/BENCH_serve.json`` and feed the repo-root
``BENCH.md`` trajectory.

Environment knobs
-----------------
``REPRO_BENCH_SERVE_CLIENTS``
    Concurrent closed-loop clients (default 1000 — the headline scale;
    CI smoke uses a few dozen).
``REPRO_BENCH_SERVE_REQUESTS``
    Requests per client (default 5).
``REPRO_BENCH_SERVE_TENANTS``
    Resident engines, round-robined by the clients (default 2).
``REPRO_BENCH_SERVE_PAPERS`` / ``REPRO_BENCH_SERVE_REVIEWERS`` /
``REPRO_BENCH_SERVE_TOPICS``
    Per-tenant instance size (defaults 150 / 60 / 20).
``REPRO_BENCH_SERVE_MAX_PENDING``
    Per-tenant admission bound (default: the client count, so a
    full-thundering-herd arrival is admitted rather than shed).
``REPRO_BENCH_SERVE_JOURNAL_SPREAD``
    Distinct journal-query targets per tenant (default 16; each costs
    one JRA solve, and its repeats are answered from the engine's
    journal answer store without a solve).
"""

from __future__ import annotations

import asyncio
import os

from _shared import bench_seed, emit_bench_json
from repro.data.synthetic import make_problem
from repro.net import AdmissionController, AssignmentServer
from repro.net.client import run_load
from repro.service.engine import AssignmentEngine


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _raise_fd_limit(need: int) -> None:
    """Best-effort RLIMIT_NOFILE bump — thousands of sockets need fds."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < need:
            resource.setrlimit(resource.RLIMIT_NOFILE, (min(need, hard), hard))
    except Exception:
        pass


def _request_mix(num_tenants: int, journal_spread: int):
    """The read-heavy serving profile, deterministic per (client, step).

    Journal queries rotate over ``journal_spread`` distinct papers per
    tenant.  The first query of each runs one JRA solve; its repeats reuse
    the cached sub-problem and are answered from the answer stored on it,
    with no solve.  So after the first ``journal_spread`` solves per
    tenant no request runs a solver, and the steady state measures the
    network layer, the tenant queues and the request handlers.
    """

    def factory(client: int, step: int) -> dict:
        tenant = f"conf-{client % num_tenants}"
        draw = (client * 31 + step * 7) % 10
        if draw < 6:
            return {
                "kind": "journal",
                "paper_id": f"paper-{(client + step) % journal_spread:04d}",
                "tenant": tenant,
                "id": f"c{client}-r{step}",
            }
        if draw < 9:
            return {"kind": "stats", "tenant": tenant, "id": f"c{client}-r{step}"}
        # include_ratio=False: the ratio re-solves every paper exactly —
        # a batch-analysis knob, not a serving-path request
        return {
            "kind": "evaluate",
            "include_ratio": False,
            "tenant": tenant,
            "id": f"c{client}-r{step}",
        }

    return factory


def run_serve_load() -> dict:
    clients = _env_int("REPRO_BENCH_SERVE_CLIENTS", 1000)
    requests_per_client = _env_int("REPRO_BENCH_SERVE_REQUESTS", 5)
    num_tenants = max(1, _env_int("REPRO_BENCH_SERVE_TENANTS", 2))
    num_papers = _env_int("REPRO_BENCH_SERVE_PAPERS", 150)
    num_reviewers = _env_int("REPRO_BENCH_SERVE_REVIEWERS", 60)
    num_topics = _env_int("REPRO_BENCH_SERVE_TOPICS", 20)
    max_pending = _env_int("REPRO_BENCH_SERVE_MAX_PENDING", max(256, clients))
    journal_spread = min(
        num_papers, max(1, _env_int("REPRO_BENCH_SERVE_JOURNAL_SPREAD", 16))
    )
    _raise_fd_limit(2 * clients + 512)

    server = AssignmentServer(
        admission=AdmissionController(max_pending=max_pending),
        backlog=max(2048, clients),
    )
    for index in range(num_tenants):
        engine = AssignmentEngine(
            make_problem(
                num_papers,
                num_reviewers,
                num_topics=num_topics,
                group_size=3,
                seed=bench_seed() + index,
            )
        )
        engine.warm()
        engine.solve("Greedy")  # evaluate/journal read a live assignment
        server.add_tenant(f"conf-{index}", engine, default=(index == 0))

    async def _drive():
        host, port = await server.start()
        try:
            return await run_load(
                host,
                port,
                clients=clients,
                requests_per_client=requests_per_client,
                request_factory=_request_mix(num_tenants, journal_spread),
            )
        finally:
            await server.stop()

    report = asyncio.run(_drive())
    return {
        "instance": {
            "clients": clients,
            "requests_per_client": requests_per_client,
            "tenants": num_tenants,
            "papers": num_papers,
            "reviewers": num_reviewers,
            "topics": num_topics,
            "max_pending": max_pending,
            "journal_spread": journal_spread,
            "seed": bench_seed(),
        },
        "report": report.to_dict(),
    }


def test_serve_load(benchmark):
    verdict = benchmark.pedantic(run_serve_load, rounds=1, iterations=1)
    emit_bench_json(verdict, "BENCH_serve.json")
    report = verdict["report"]
    expected = (
        verdict["instance"]["clients"] * verdict["instance"]["requests_per_client"]
    )
    assert report["connect_failures"] == 0, report
    assert report["failed"] == 0, report
    assert report["requests"] == expected, report
    assert report["ok"] == expected, report
