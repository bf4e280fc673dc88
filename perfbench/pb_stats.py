"""Summary statistics of the benchmark: percentiles, sample rules, failures.

Every timing is summarised as a median plus the highest percentile the
sample supports.  A percentile ``q`` is *supported* by ``n`` samples when at
least ten samples lie beyond it (``n * (1 - q) >= 10``), so a p99 needs
1000 samples of its class.  A failed, refused or lost request is still a
sample: it counts as attempted and failed, and its latency is recorded as
:data:`FAILED_LATENCY_MS`, which lies over every latency limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: latency recorded for a request that failed, was refused or was lost:
#: larger than any latency a successful request can have in one run
FAILED_LATENCY_MS = 1.0e6

#: samples that must lie beyond a percentile for it to be reported as such
SAMPLES_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q!r} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond the ``q``-quantile."""
    return count * (1.0 - q) >= SAMPLES_BEYOND - 1e-9


def min_samples(q: float) -> int:
    """The smallest sample count that supports the ``q``-quantile."""
    return math.ceil(SAMPLES_BEYOND / (1.0 - q) - 1e-9)


def tail(values: list[float], cap: float = 0.95) -> float:
    """The ``cap``-quantile, or the highest quantile the sample supports.

    With fewer than ``min_samples(cap)`` values this is the highest
    quantile with ten samples beyond it, and the median when not even
    that exists.
    """
    if supports(len(values), cap):
        return percentile(values, cap)
    highest = 1.0 - SAMPLES_BEYOND / len(values)
    return percentile(values, highest) if highest > 0.5 else median(values)


def median(values: list[float]) -> float:
    """Median; the mean of the two middle values for an even count."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


@dataclass
class LatencyClass:
    """Latencies of one request class, failures included."""

    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def record(self, latency_ms: float, ok: bool) -> None:
        """One attempted request; a failed or lost one misses every limit."""
        self.attempted += 1
        if ok:
            self.latencies_ms.append(latency_ms)
        else:
            self.failed += 1
            self.latencies_ms.append(FAILED_LATENCY_MS)

    @property
    def count(self) -> int:
        return len(self.latencies_ms)

    def p50(self) -> float:
        return percentile(self.latencies_ms, 0.5)

    def p95(self) -> float:
        return percentile(self.latencies_ms, 0.95)

    def p99(self) -> float:
        return percentile(self.latencies_ms, 0.99)


def error_rate(attempted: int, failed: int) -> float:
    """Failed ÷ attempted; a run that attempted nothing is all failure."""
    return 1.0 if attempted == 0 else failed / attempted
