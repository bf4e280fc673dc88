"""Write-ahead-log overhead benchmark: what durability costs per mutation.

Not a figure of the paper — this bench pins the serving-cost half of the
crash-safety feature (ISSUE 8).  One engine serves a deterministic
mutation churn (``update_bids``, the lightest journaled kind, so the WAL
is the measured thing rather than solver time) through the same
journal-then-dispatch sequence the durable tenant worker runs, under
three configurations:

* ``off`` — plain :class:`~repro.service.session.EngineSession`
  dispatch, no journal: the baseline;
* ``batch`` — WAL append per mutation, one fsync per batch (the
  default serving policy);
* ``always`` — fsync after every record (the power-loss-proof policy).

Throughput (mutations/s) and the relative overhead of each policy land
in ``benchmarks/results/BENCH_wal.json`` and feed the repo-root
``BENCH.md`` trajectory.  The checkpoint cadence is part of the measured
path: every ``checkpoint_every`` mutations the engine snapshot is
rewritten atomically and the WAL rotated, exactly as in serving.  Each
journaled policy also records its checkpoints' milliseconds (median and
max) and bytes, then writes a close-time checkpoint outside the timed
loop and checks that this last ``checkpoint.json``, which the journal
assembles from per-entity texts it keeps, equals ``json.dumps`` of the
checkpoint's dict body byte for byte.

Environment knobs
-----------------
``REPRO_BENCH_WAL_MUTATIONS``
    Journaled mutations per configuration (default 2000).
``REPRO_BENCH_WAL_PAPERS`` / ``REPRO_BENCH_WAL_REVIEWERS`` /
``REPRO_BENCH_WAL_TOPICS``
    Instance size (defaults 60 / 30 / 12).
``REPRO_BENCH_WAL_BATCH``
    Mutations per simulated served batch — the ``batch`` policy fsyncs
    once per batch (default 16).
``REPRO_BENCH_WAL_CHECKPOINT_EVERY``
    Mutations between checkpoints (default 256).
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from pathlib import Path

from _shared import bench_seed, emit_bench_json
from repro.data.synthetic import make_problem
from repro.durability import CHECKPOINT_VERSION, DurabilityConfig, TenantJournal
from repro.service.engine import AssignmentEngine
from repro.service.requests import request_from_dict
from repro.service.session import EngineSession


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _fresh_engine() -> AssignmentEngine:
    return AssignmentEngine(
        make_problem(
            _env_int("REPRO_BENCH_WAL_PAPERS", 60),
            _env_int("REPRO_BENCH_WAL_REVIEWERS", 30),
            num_topics=_env_int("REPRO_BENCH_WAL_TOPICS", 12),
            group_size=3,
            seed=bench_seed(),
        )
    )


def _churn_requests(engine: AssignmentEngine, mutations: int):
    """The deterministic bid-update stream, identical across policies."""
    rids = engine.problem.reviewer_ids
    pids = engine.problem.paper_ids
    requests = []
    for step in range(mutations):
        rid = rids[step % len(rids)]
        pid = pids[(step * 7) % len(pids)]
        value = 0.25 + (step % 4) * 0.25
        requests.append(
            request_from_dict(
                {"kind": "update_bids", "bids": [[rid, pid, value]], "seq": step + 1}
            )
        )
    return requests


def _dumped_body(journal: TenantJournal, engine: AssignmentEngine) -> str:
    """``json.dumps`` of the checkpoint body, built the plain way."""
    return json.dumps({
        "format_version": CHECKPOINT_VERSION,
        "tenant": journal.tenant_id,
        "last_seq": journal.last_seq,
        "applied": [[key, response.to_dict()] for key, response in journal.applied.items()],
        "snapshot": engine.to_snapshot(),
    })


def _run_policy(policy: str, mutations: int, batch: int, checkpoint_every: int) -> dict:
    """Serve the churn under one policy; returns timing and counters."""
    engine = _fresh_engine()
    session = EngineSession(engine)
    requests = _churn_requests(engine, mutations)
    checkpoint_ms: list[float] = []
    checkpoint_bytes: list[int] = []
    matches_dumps = None

    if policy == "off":
        start = time.perf_counter()
        for request in requests:
            response = session.dispatch(request)
            assert response.ok, response.error
        elapsed = time.perf_counter() - start
        checkpoints = 0
    else:
        with tempfile.TemporaryDirectory(prefix="bench-wal-") as root:
            config = DurabilityConfig(
                root=Path(root),
                fsync=policy,
                checkpoint_every=checkpoint_every,
            )
            journal = TenantJournal(config, "bench")
            journal.initialise(engine)
            checkpoints = 0
            start = time.perf_counter()
            for index, request in enumerate(requests, start=1):
                # The durable worker's sequence: journal first, then apply.
                journal.append(index, request)
                response = session.dispatch(request)
                assert response.ok, response.error
                journal.record_applied(request.client_seq, response)
                if index % batch == 0:
                    journal.sync_batch()
                if journal.should_checkpoint:
                    started = time.perf_counter()
                    journal.checkpoint(engine)
                    checkpoint_ms.append((time.perf_counter() - started) * 1e3)
                    checkpoint_bytes.append(journal.checkpoint_path.stat().st_size)
                    checkpoints += 1
            elapsed = time.perf_counter() - start
            # The close-time checkpoint of a draining tenant, outside the
            # timed loop: the last checkpoint, compared with json.dumps.
            journal.checkpoint(engine)
            text = journal.checkpoint_path.read_text(encoding="utf-8")
            matches_dumps = text == _dumped_body(journal, engine)
            journal.close()

    return {
        "policy": policy,
        "mutations": mutations,
        "seconds": elapsed,
        "mutations_per_second": mutations / elapsed if elapsed > 0 else None,
        "checkpoints": checkpoints,
        "checkpoint_ms": {
            "median": statistics.median(checkpoint_ms) if checkpoint_ms else None,
            "max": max(checkpoint_ms, default=None),
        },
        "checkpoint_bytes": checkpoint_bytes,
        "last_checkpoint_matches_dumps": matches_dumps,
    }


def run_wal_overhead() -> dict:
    mutations = _env_int("REPRO_BENCH_WAL_MUTATIONS", 2000)
    batch = max(1, _env_int("REPRO_BENCH_WAL_BATCH", 16))
    checkpoint_every = max(1, _env_int("REPRO_BENCH_WAL_CHECKPOINT_EVERY", 256))

    runs = {
        policy: _run_policy(policy, mutations, batch, checkpoint_every)
        for policy in ("off", "batch", "always")
    }
    baseline = runs["off"]["seconds"]
    for run in runs.values():
        run["overhead_vs_off"] = (
            run["seconds"] / baseline - 1.0 if baseline > 0 else None
        )
    return {
        "instance": {
            "mutations": mutations,
            "batch": batch,
            "checkpoint_every": checkpoint_every,
            "papers": _env_int("REPRO_BENCH_WAL_PAPERS", 60),
            "reviewers": _env_int("REPRO_BENCH_WAL_REVIEWERS", 30),
            "topics": _env_int("REPRO_BENCH_WAL_TOPICS", 12),
            "seed": bench_seed(),
        },
        "runs": runs,
    }


def test_wal_overhead(benchmark):
    verdict = benchmark.pedantic(run_wal_overhead, rounds=1, iterations=1)
    emit_bench_json(verdict, "BENCH_wal.json")
    runs = verdict["runs"]
    for policy in ("off", "batch", "always"):
        run = runs[policy]
        assert run["mutations"] == verdict["instance"]["mutations"]
        assert run["seconds"] > 0
    # Both journaled policies actually checkpointed along the way, and the
    # last checkpoint each wrote is byte for byte json.dumps of its body.
    for policy in ("batch", "always"):
        assert runs[policy]["checkpoints"] >= 1
        assert runs[policy]["last_checkpoint_matches_dumps"] is True

    per_second = {p: round(r["mutations_per_second"]) for p, r in runs.items()}
    overhead = {p: f"{r['overhead_vs_off'] * 100:+.1f}%" for p, r in runs.items()}
    print(f"\nmutations/s: {per_second}")
    print(f"overhead vs off: {overhead}")
    checkpoint_ms = {
        p: f"{runs[p]['checkpoint_ms']['median']:.2f}/{runs[p]['checkpoint_ms']['max']:.2f}"
        for p in ("batch", "always")
    }
    print(f"checkpoint ms (median/max): {checkpoint_ms}")
