"""The serve workloads: a durable TCP server subprocess and a closed-loop load.

The server is started as ``python3 -m repro.cli serve --tcp --wal-dir ...
--fsync batch`` (default checkpoint cadence), or through
:mod:`pb_launcher` for the traced run, so no client work is billed to it.
The load generator is this process: one asyncio loop driving
:data:`pb_workloads.CONNECTIONS` connections, each closed-loop (the next
request leaves when the previous reply has arrived) over its fixed script.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import pb_workloads

MUTATION_KINDS = frozenset({"update_bids", "add_paper", "withdraw_reviewer"})
#: wall-time cap of one load run; requests not sent by then are not attempted
LOAD_CAP_S = 120.0
#: fields of a ``stats`` payload that are state, not counters
STATS_STATE_KEYS = ("revision", "has_assignment", "last_solver", "last_score", "num_bids")


class ServerError(RuntimeError):
    """The server process did not start, answer or stop as expected."""


def die_with_parent() -> None:
    """``preexec_fn``: have Linux kill the child when the benchmark dies."""
    try:
        import ctypes
        import signal

        prctl = ctypes.CDLL("libc.so.6").prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Server:
    """One ``repro.cli serve --tcp`` subprocess with a fresh WAL directory."""

    def __init__(self, root: Path, workdir: Path, problem: Path, tag: str,
                 spans: Path | None = None) -> None:
        self.spans = spans
        serve_args = [
            "serve", "--tcp", "--port", "0", "--problem", str(problem),
            "--tenant", "conf", "--wal-dir", str(workdir / f"wal-{tag}"),
            "--fsync", "batch", "--warm", "--max-pending", "1024",
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [sys.executable, str(root / "perfbench" / "pb_launcher.py"),
                       str(spans), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._stderr = open(workdir / f"server-{tag}.err", "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=workdir,
            preexec_fn=die_with_parent,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.kill()
            raise ServerError(f"server {tag} did not announce a port")
        announced = json.loads(line)
        self.host, self.port = announced["host"], announced["port"]

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server process so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self, connection: "Connection") -> None:
        """Graceful shutdown over the wire, then wait for the exit."""
        try:
            connection.request({"kind": "shutdown"})
        except (OSError, ValueError):
            pass
        connection.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        self._stderr.close()
        self.process.stdout.close()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if not self._stderr.closed:
            self._stderr.close()


class Connection:
    """A blocking JSON-lines connection for set-up and bookkeeping requests."""

    def __init__(self, host: str, port: int) -> None:
        self._socket = socket.create_connection((host, port), timeout=120)
        self._reader = self._socket.makefile("rb")

    def request(self, payload: dict) -> dict:
        self._socket.sendall(json.dumps(payload).encode() + b"\n")
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self._reader.close()
        self._socket.close()


@dataclass
class Exchange:
    """One scripted request and what came back."""

    request: dict
    latency_ms: float
    response: dict | None  # None: the transport was lost before the reply

    @property
    def ok(self) -> bool:
        return self.response is not None and bool(self.response.get("ok"))


@dataclass
class LoadResult:
    wall_s: float
    exchanges: list[Exchange] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)


async def _drive(host: str, port: int, script: list[dict], deadline: float) -> list[tuple]:
    lines = [json.dumps(request).encode() + b"\n" for request in script]
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
    results: list[tuple] = []
    try:
        for position, line in enumerate(lines):
            if time.perf_counter() > deadline:
                break
            started = time.perf_counter()
            try:
                writer.write(line)
                await writer.drain()
                raw = await reader.readline()
            except (ConnectionError, OSError):
                raw = b""
            results.append((position, time.perf_counter() - started, raw))
            if not raw:
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return results


def run_load(host: str, port: int, scripts: list[list[dict]]) -> LoadResult:
    """Drive every script on its own closed-loop connection; time the whole."""

    async def _all() -> list[list[tuple]]:
        deadline = time.perf_counter() + LOAD_CAP_S
        return await asyncio.gather(*(_drive(host, port, s, deadline) for s in scripts))

    started = time.perf_counter()
    per_connection = asyncio.run(_all())
    finished = time.perf_counter()
    result = LoadResult(wall_s=finished - started, window=(started, finished))
    for script, rows in zip(scripts, per_connection):
        for position, seconds, raw in rows:
            result.exchanges.append(Exchange(
                request=script[position],
                latency_ms=seconds * 1000.0,
                response=json.loads(raw) if raw else None,
            ))
    return result


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _scrub(value: Any, drop: frozenset[str]) -> Any:
    if isinstance(value, dict):
        return {k: _scrub(v, drop) for k, v in value.items() if k not in drop}
    if isinstance(value, list):
        return [_scrub(v, drop) for v in value]
    return value


_VOLATILE = frozenset({"seconds", "elapsed_seconds"})
_ENVELOPE = frozenset({"seconds", "trace", "tenant", "seq", "id"})


def normalise(response: dict, drop_cache_hit: bool = False) -> dict:
    """The deterministic part of a response: timings, ids and envelope removed.

    A ``stats`` payload keeps only its state fields; its counters depend on
    how many requests (and set-ups) a process served.
    """
    kept = {k: v for k, v in response.items() if k not in _ENVELOPE}
    if kept.get("kind") == "stats" and kept.get("ok"):
        engine = kept["payload"]["engine"]
        kept["payload"] = {key: engine[key] for key in STATS_STATE_KEYS}
    drop = _VOLATILE | {"cache_hit"} if drop_cache_hit else _VOLATILE
    return json.loads(json.dumps(_scrub(kept, drop)))


def digest(items: list[Any]) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


def _oracle_session(problem_path: Path):
    from repro.data.io import load_problem
    from repro.service.engine import AssignmentEngine
    from repro.service.session import EngineSession

    engine = AssignmentEngine(load_problem(problem_path))
    engine.warm()
    return EngineSession(engine)


def check_constant_state(problem_path: Path, pairs: list[tuple[dict, dict]]) -> tuple[list[str], str]:
    """``journal-hot``: every answer equals an in-process engine's answer.

    The state never changes after the set-up solve, so each distinct
    request has exactly one correct answer; ``cache_hit`` is excluded (it
    depends on what the process answered before).
    """
    from repro.service.requests import request_from_dict

    session = _oracle_session(problem_path)
    oracle: dict[str, dict] = {}
    mismatches: list[str] = []
    for request, response in pairs:
        key = json.dumps({k: v for k, v in request.items() if k != "id"}, sort_keys=True)
        if key not in oracle:
            oracle[key] = normalise(
                session.dispatch(request_from_dict(request)).to_dict(), drop_cache_hit=True)
        if request["kind"] == "stats":
            if not response.get("ok"):
                mismatches.append(f"{request['id']}: stats failed")
            continue
        if normalise(response, drop_cache_hit=True) != oracle[key]:
            mismatches.append(f"{request['id']}: {request['kind']} differs from the engine")
    answers = sorted((key, value) for key, value in oracle.items() if '"stats"' not in key)
    return mismatches, digest(answers)


def check_replay(problem_path: Path, ordered: list[tuple[dict, dict]]) -> tuple[list[str], str]:
    """``churn-durable``: replay in server ``seq`` order, compare bitwise."""
    from repro.service.requests import request_from_dict

    session = _oracle_session(problem_path)
    mismatches: list[str] = []
    served = []
    for request, response in ordered:
        expected = normalise(session.dispatch(request_from_dict(request)).to_dict())
        actual = normalise(response)
        served.append(actual)
        if actual != expected:
            mismatches.append(f"seq {response.get('seq')} ({request['id']}, "
                              f"{request['kind']}) differs from the serial replay")
    return mismatches, digest(served)


# ----------------------------------------------------------------------
# One pass: set-up(s), the measured load, bookkeeping, shutdown
# ----------------------------------------------------------------------
@dataclass
class ServePass:
    setup_s: list[float]
    load: LoadResult
    setup_pairs: list[tuple[dict, dict]]
    stats_before: dict
    stats_after: dict
    coverage: float
    cpu_s: float
    peak_rss_mb: float
    spans: Path | None


def serve_pass(root: Path, workdir: Path, problem: Path, inputs: dict,
               setups: int, tag: str, traced: bool) -> ServePass:
    """Start ``setups`` servers one after another (keeping the last), load it."""
    setup_times: list[float] = []
    for attempt in range(setups):
        spans = workdir / f"spans-{tag}.json" if traced else None
        started = time.perf_counter()
        server = Server(root, workdir, problem, f"{tag}-{attempt}", spans=spans)
        connection = None
        try:
            connection = Connection(server.host, server.port)
            setup_pairs = [(r, connection.request(r)) for r in inputs["setup"]]
        except BaseException:
            if connection is not None:
                connection.close()
            server.kill()
            raise
        setup_times.append(time.perf_counter() - started)
        if attempt < setups - 1:
            server.stop(connection)
    try:
        stats_before = connection.request({"kind": "stats", "id": "pre-stats"})
        cpu_before = server.cpu_seconds()
        load = run_load(server.host, server.port, inputs["scripts"])
        cpu_s = server.cpu_seconds() - cpu_before
        stats_after = connection.request({"kind": "stats", "id": "post-stats"})
        evaluation = connection.request({"kind": "evaluate", "include_ratio": False,
                                         "id": "post-evaluate"})
        peak = server.peak_rss_mb()
    except BaseException:
        connection.close()
        server.kill()
        raise
    server.stop(connection)
    return ServePass(setup_times, load, setup_pairs, stats_before, stats_after,
                     evaluation["payload"]["score"], cpu_s, peak, server.spans)


def check_pass(workload: str, problem: Path, serve: ServePass) -> tuple[list[str], str]:
    """Run the workload's output check on one pass."""
    answered = [(e.request, e.response) for e in serve.load.exchanges if e.response is not None]
    pairs = serve.setup_pairs + answered
    if workload == "journal-hot":
        return check_constant_state(problem, pairs)
    ordered = sorted(pairs, key=lambda pair: pair[1].get("seq", 0))
    return check_replay(problem, ordered)


def prepare(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[Path, dict]:
    """Write the problem and the scripts; return the problem path and inputs."""
    build = pb_workloads.journal_hot if workload == "journal-hot" else pb_workloads.churn_durable
    inputs = build(seed, seconds)
    problem = workdir / "problem.json"
    pb_workloads.write_problem(problem, inputs["workload"])
    pb_workloads.write_scripts(workdir, inputs["scripts"])
    return problem, inputs
