"""Asyncio JSON-lines client and the closed-loop load generator.

:class:`NetClient` is the minimal protocol client: one JSON object per
line out, one per line in, with pipelining left to the caller.  It backs
the test harness and the ``wgrap``-side tooling.

:class:`RetryingClient` wraps it with the fault-tolerant behaviour a
production caller needs against a crash-recovering server: seeded
exponential backoff + jitter on transport failures, automatic reconnect,
and an idempotency key (the wire ``seq`` field) attached to every
mutation so a retry that re-sends an *already-applied* mutation is
answered from the durable tenant's idempotency map instead of executing
twice.  Against a non-durable tenant retried mutations may re-apply —
exactly-once needs the server's ``--wal-dir``.

:func:`run_load` is the load harness behind
``benchmarks/bench_serve_load.py``: N closed-loop clients (each keeps
exactly one request in flight) hammering one server from one event loop,
with per-request latencies recorded and summarised as a
:class:`LoadReport`.  Closed-loop clients are the honest way to measure
a bounded-backlog server — each client's next request waits for its last
answer, so the offered load adapts to the service rate instead of
measuring the admission controller's rejection throughput.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.service.requests import MUTATION_KINDS

__all__ = ["LoadReport", "NetClient", "RetryPolicy", "RetryingClient", "run_load"]


class NetClient:
    """One JSON-lines connection to an :class:`AssignmentServer`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        attempts: int = 20,
        retry_delay: float = 0.05,
        limit: int = 1 << 20,
    ) -> "NetClient":
        """Connect, retrying briefly — absorbs accept-queue pressure when
        hundreds of clients dial in at once."""
        last: Exception | None = None
        for _ in range(max(1, attempts)):
            try:
                reader, writer = await asyncio.open_connection(host, port, limit=limit)
                return cls(reader, writer)
            except (ConnectionRefusedError, OSError) as exc:
                last = exc
                await asyncio.sleep(retry_delay)
        raise ConnectionError(f"could not connect to {host}:{port}: {last}")

    async def send(self, payload: dict[str, Any]) -> None:
        self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self._writer.drain()

    async def recv(self) -> dict[str, Any]:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request and await its response (closed loop)."""
        await self.send(payload)
        return await self.recv()

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter.

    Attempt ``k`` (0-based retry count) sleeps
    ``min(max_delay, base_delay * multiplier**k)`` spread by ``±jitter``
    (a fraction of the raw delay) from a :class:`random.Random` seeded
    with ``seed`` — deterministic backoff sequences for deterministic
    chaos tests.
    """

    attempts: int = 5
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5
    seed: int | None = None
    #: also retry responses refused with ``error_type: "overloaded"``
    retry_overloaded: bool = False

    def delay(self, retry_index: int, rng: random.Random) -> float:
        raw = min(self.max_delay, self.base_delay * self.multiplier**retry_index)
        if self.jitter <= 0:
            return raw
        spread = raw * self.jitter
        return max(0.0, raw - spread + rng.random() * 2.0 * spread)


class RetryingClient:
    """A reconnecting, retrying, idempotency-keyed, failing-over client.

    Every mutation request (:data:`~repro.service.requests.MUTATION_KINDS`)
    gets a monotonically increasing ``seq`` idempotency key (unless the
    caller supplied one), chosen from ``idempotency_start`` — give each
    client stream a disjoint range.  Transport failures (lost connection,
    torn response) reconnect and re-send the *same* payload, same key, so
    a durable tenant applies the mutation exactly once no matter how many
    times the wire ate the answer.

    **Failover**: give ``endpoints`` an ordered ``(host, port)`` list —
    typically primary first, standby second.  A transport failure (or a
    connect failure) rotates to the next endpoint before retrying, and a
    structured ``error_type: "standby"`` refusal — an unpromoted standby
    declining engine traffic — is always retried with rotation, so a
    client stream rides out a primary crash + standby promotion with the
    same exactly-once guarantee the single-server retry path has.
    """

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        *,
        endpoints: list[tuple[str, int]] | None = None,
        policy: RetryPolicy | None = None,
        idempotency_start: int = 1,
        connect_attempts: int | None = None,
    ) -> None:
        if endpoints is None:
            if host is None or port is None:
                raise ValueError(
                    "RetryingClient needs (host, port) or an endpoints list"
                )
            endpoints = [(host, int(port))]
        if not endpoints:
            raise ValueError("the endpoints list cannot be empty")
        self._endpoints = [(str(h), int(p)) for h, p in endpoints]
        self._active = 0
        self.policy = policy if policy is not None else RetryPolicy()
        # Against a single endpoint, patient connects ride out accept-queue
        # pressure; with alternatives, rotate to the next endpoint fast.
        if connect_attempts is None:
            connect_attempts = 20 if len(self._endpoints) == 1 else 5
        self._connect_attempts = max(1, int(connect_attempts))
        self._rng = random.Random(self.policy.seed)
        self._seq = itertools.count(max(1, idempotency_start))
        self._client: NetClient | None = None

    @property
    def host(self) -> str:
        return self._endpoints[self._active][0]

    @property
    def port(self) -> int:
        return self._endpoints[self._active][1]

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        return list(self._endpoints)

    async def set_endpoints(self, endpoints: list[tuple[str, int]]) -> None:
        """Replace the failover list (e.g. after attaching a new standby).

        Drops the live connection so the next request dials the new
        first endpoint.
        """
        if not endpoints:
            raise ValueError("the endpoints list cannot be empty")
        self._endpoints = [(str(h), int(p)) for h, p in endpoints]
        self._active = 0
        await self._drop_connection()

    def _advance(self) -> None:
        self._active = (self._active + 1) % len(self._endpoints)

    async def _ensure_connected(self) -> NetClient:
        if self._client is None:
            self._client = await NetClient.connect(
                self.host, self.port, attempts=self._connect_attempts
            )
        return self._client

    async def _drop_connection(self) -> None:
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request, retrying with backoff until answered.

        Raises :class:`ConnectionError` when every attempt failed.
        """
        payload = dict(payload)
        if payload.get("kind") in MUTATION_KINDS and payload.get("seq") is None:
            payload["seq"] = next(self._seq)
        last_error: Exception | None = None
        for attempt in range(max(1, self.policy.attempts)):
            if attempt:
                await asyncio.sleep(self.policy.delay(attempt - 1, self._rng))
            try:
                client = await self._ensure_connected()
                response = await client.request(payload)
            except (ConnectionError, json.JSONDecodeError, OSError) as exc:
                last_error = exc
                await self._drop_connection()
                self._advance()
                continue
            if not response.get("ok") and response.get("error_type") == "standby":
                # An unpromoted standby: the answer lives elsewhere (or
                # will, once promotion finishes).  Rotate and retry.
                last_error = None
                await self._drop_connection()
                self._advance()
                continue
            if (
                self.policy.retry_overloaded
                and not response.get("ok")
                and response.get("error_type") == "overloaded"
            ):
                last_error = None
                continue
            return response
        raise ConnectionError(
            f"request not answered after {self.policy.attempts} attempts "
            f"across {self._endpoints}: {last_error}"
        )

    async def close(self) -> None:
        await self._drop_connection()


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


@dataclass
class LoadReport:
    """Outcome of one :func:`run_load` drive."""

    clients: int
    requests: int = 0
    ok: int = 0
    failed: int = 0
    overloaded: int = 0
    connect_failures: int = 0
    elapsed_seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    error_types: dict[str, int] = field(default_factory=dict)
    error_samples: list[str] = field(default_factory=list)

    @property
    def req_per_s(self) -> float:
        return self.requests / self.elapsed_seconds if self.elapsed_seconds else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable summary (the ``BENCH_serve.json`` core)."""
        latencies = sorted(self.latencies_ms)
        return {
            "clients": self.clients,
            "requests": self.requests,
            "ok": self.ok,
            "failed": self.failed,
            "overloaded": self.overloaded,
            "connect_failures": self.connect_failures,
            "elapsed_seconds": self.elapsed_seconds,
            "req_per_s": self.req_per_s,
            "latency_ms": {
                "p50": _percentile(latencies, 0.50),
                "p95": _percentile(latencies, 0.95),
                "p99": _percentile(latencies, 0.99),
                "max": latencies[-1] if latencies else 0.0,
            },
            "error_types": dict(self.error_types),
            "error_samples": list(self.error_samples[:5]),
        }


async def run_load(
    host: str,
    port: int,
    *,
    clients: int,
    requests_per_client: int,
    request_factory: Callable[[int, int], dict[str, Any]] | None = None,
    overloaded_is_failure: bool = True,
) -> LoadReport:
    """Drive ``clients`` closed-loop clients; returns the aggregate report.

    ``request_factory(client_index, request_index)`` builds each request
    dict (default: ``stats``).  Every response is accounted: ``ok`` /
    ``failed`` by the response's own flag, with ``overloaded`` split out
    (and optionally not counted as failure, for drives that deliberately
    exceed the admission bound).
    """
    factory = request_factory or (lambda _c, _i: {"kind": "stats"})
    report = LoadReport(clients=clients)

    async def one_client(index: int) -> None:
        try:
            client = await NetClient.connect(host, port)
        except ConnectionError as exc:
            report.connect_failures += 1
            report.error_samples.append(str(exc))
            return
        try:
            for i in range(requests_per_client):
                payload = factory(index, i)
                started = time.perf_counter()
                try:
                    response = await client.request(payload)
                except (ConnectionError, json.JSONDecodeError, OSError) as exc:
                    report.requests += 1
                    report.failed += 1
                    report.error_types["transport"] = (
                        report.error_types.get("transport", 0) + 1
                    )
                    report.error_samples.append(f"{type(exc).__name__}: {exc}")
                    return
                report.latencies_ms.append((time.perf_counter() - started) * 1e3)
                report.requests += 1
                if response.get("ok"):
                    report.ok += 1
                else:
                    error_type = str(response.get("error_type", "internal"))
                    report.error_types[error_type] = (
                        report.error_types.get(error_type, 0) + 1
                    )
                    if error_type == "overloaded":
                        report.overloaded += 1
                        if overloaded_is_failure:
                            report.failed += 1
                    else:
                        report.failed += 1
                    if len(report.error_samples) < 20:
                        report.error_samples.append(
                            str(response.get("error", "unknown error"))
                        )
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(one_client(index) for index in range(clients)))
    report.elapsed_seconds = time.perf_counter() - started
    return report
