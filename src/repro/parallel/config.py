"""Configuration of the worker-pool execution layer.

One frozen dataclass, :class:`ParallelConfig`, describes *how much*
parallelism a caller wants; every parallel entry point
(:func:`~repro.parallel.sharding.sharded_score_matrix`,
:func:`~repro.parallel.portfolio.run_portfolio`,
:func:`~repro.parallel.trials.run_trials`) accepts one and the serving
stack (:class:`~repro.service.engine.AssignmentEngine`,
:class:`~repro.service.cache.ScoreMatrixCache`) threads it down to the
cold score-matrix build (:func:`repro.core.delta.built_score_matrix`).

The config deliberately separates two orthogonal levers:

* ``workers`` — how many OS processes may run at once (``0`` means "one
  per CPU core");
* ``serial_threshold`` — below this many ``R * P`` score cells the
  parallel layer steps aside entirely and the *current exact serial code
  path* runs, so small problems keep their behaviour (and their speed:
  forking a pool for a 60×25 conference would be pure overhead).

Example::

    >>> from repro.parallel import ParallelConfig
    >>> ParallelConfig(workers=4).resolved_workers()
    4
    >>> ParallelConfig(workers=1).should_parallelise(10**9)
    False
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["ParallelConfig", "DEFAULT_SERIAL_THRESHOLD"]

#: Below this many ``R * P`` score cells the serial path is always used.
#: 200k cells is roughly a 450x450 problem — well above every workload of
#: the paper's Table 3 at default scale, and far below the service-scale
#: matrices the sharded kernel is built for.
DEFAULT_SERIAL_THRESHOLD = 200_000


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the worker-pool execution layer.

    Attributes
    ----------
    workers:
        Maximum worker processes.  ``0`` resolves to ``os.cpu_count()``;
        ``1`` disables multiprocessing (but large score matrices still use
        the cache-blocked serial kernel, which is bitwise-identical to and
        much faster than the naive broadcast).
    shard_size:
        Reviewers per worker shard for score-matrix construction.  ``None``
        splits the reviewer axis evenly across the resolved workers.
    paper_block:
        Papers per cache-friendly block inside one shard.  Each block
        materialises an ``(R_shard, paper_block, T)`` intermediate, so the
        default keeps the working set near L2-cache size instead of
        allocating the full ``(R, P, T)`` broadcast at once.
    serial_threshold:
        Problems with fewer than this many ``R * P`` score cells bypass the
        parallel layer completely and run the exact serial code path.
    """

    workers: int = 0
    shard_size: int | None = None
    paper_block: int = 64
    serial_threshold: int = DEFAULT_SERIAL_THRESHOLD

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0 (0 means one per CPU core)")
        if self.shard_size is not None and self.shard_size < 1:
            raise ConfigurationError("shard_size must be at least 1")
        if self.paper_block < 1:
            raise ConfigurationError("paper_block must be at least 1")
        if self.serial_threshold < 0:
            raise ConfigurationError("serial_threshold must be >= 0")

    def resolved_workers(self) -> int:
        """The concrete worker count (``0`` resolved against the host)."""
        if self.workers > 0:
            return self.workers
        return max(1, os.cpu_count() or 1)

    def should_parallelise(self, cells: int) -> bool:
        """Whether a problem of ``cells = R * P`` score cells leaves the
        exact serial path."""
        return self.resolved_workers() > 1 and cells >= self.serial_threshold

    def shard_bounds(self, num_rows: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` row ranges covering ``num_rows``.

        The reviewer axis is cut into at most ``resolved_workers()`` shards
        (or ``ceil(num_rows / shard_size)`` when ``shard_size`` is set);
        concatenating the per-shard results in bound order reproduces the
        full matrix row-for-row.
        """
        if num_rows <= 0:
            return []
        if self.shard_size is not None:
            size = self.shard_size
        else:
            size = -(-num_rows // self.resolved_workers())  # ceil division
        size = max(1, min(size, num_rows))
        return [(start, min(start + size, num_rows)) for start in range(0, num_rows, size)]
