"""Sharded construction of the dense ``(R, P)`` score matrix.

The naive vectorised kernel of :meth:`ScoringFunction.score_matrix`
broadcasts to a full ``(R, P, T)`` intermediate before reducing over the
topic axis.  At service scale (thousands of reviewers and papers) that
intermediate no longer fits in cache — a 2000×1000×30 problem allocates
~480 MB just to throw it away — and the kernel becomes memory-bound.

This module replaces it with two nested levels of decomposition:

1. the **reviewer axis** is cut into contiguous shards, each scored by one
   worker process (score cells are independent across reviewers, so shards
   compose by row concatenation — bitwise-exactly);
2. inside every shard the **paper axis** is walked in small blocks so the
   ``(R_shard, paper_block, T)`` intermediate stays cache-sized.

Both levels preserve bitwise equality with the serial kernel: every score
cell is computed by the same elementwise ``topic_contribution`` followed
by the same reduction over the intact topic axis, in the same order.  The
per-topic contribution of a :class:`ScoringFunction` is elementwise by
contract (see :mod:`repro.core.scoring`), which is exactly the property
that makes the decomposition exact.

Workers receive ``(scoring, reviewer_shard, paper_matrix)`` by pickling;
scoring functions are stateless singletons, so the payload is dominated by
the two small ``(·, T)`` input matrices, not by the ``(R, P)`` output.
"""

from __future__ import annotations

import numpy as np

from repro.core.scoring import ScoringFunction
from repro.exceptions import DimensionMismatchError
from repro.obs.trace import get_tracer
from repro.parallel.config import ParallelConfig
from repro.parallel.pool import pool_map

TRACER = get_tracer()

__all__ = [
    "blocked_score_matrix",
    "score_appended_columns",
    "sharded_score_matrix",
]


def blocked_score_matrix(
    scoring: ScoringFunction,
    reviewer_matrix: np.ndarray,
    paper_matrix: np.ndarray,
    paper_block: int = 64,
    paper_totals: np.ndarray | None = None,
) -> np.ndarray:
    """Serial, cache-blocked equivalent of :meth:`ScoringFunction.score_matrix`.

    Walks the paper axis in blocks of ``paper_block`` columns so the
    broadcast intermediate is ``(R, paper_block, T)`` instead of
    ``(R, P, T)``.  The result is bitwise-identical to the naive kernel:
    the topic axis — the only axis that is reduced — is never split.

    ``paper_totals`` optionally supplies the precomputed per-paper topic
    masses (``paper_matrix.sum(axis=1)``) so callers that already hold them
    — a :class:`~repro.core.dense.DenseProblem`, or the sharded builder
    fanning one computation out to every worker — don't re-derive them per
    call.
    """
    reviewer_matrix = np.asarray(reviewer_matrix, dtype=np.float64)
    paper_matrix = np.asarray(paper_matrix, dtype=np.float64)
    if reviewer_matrix.shape[1] != paper_matrix.shape[1]:
        raise DimensionMismatchError(
            "reviewer and paper matrices must agree on the number of topics"
        )
    num_reviewers = reviewer_matrix.shape[0]
    num_papers = paper_matrix.shape[0]
    denominators = (
        paper_matrix.sum(axis=1) if paper_totals is None else paper_totals
    )
    safe = np.where(denominators > 0.0, denominators, 1.0)
    scores = np.empty((num_reviewers, num_papers), dtype=np.float64)
    for start in range(0, num_papers, paper_block):
        stop = min(start + paper_block, num_papers)
        scores[:, start:stop] = scoring.score_block(
            reviewer_matrix, paper_matrix[start:stop], safe[start:stop]
        )
    scores[:, denominators <= 0.0] = 0.0
    return scores


def score_appended_columns(
    scoring: ScoringFunction,
    reviewer_matrix: np.ndarray,
    new_papers: np.ndarray,
    config: ParallelConfig | None = None,
) -> np.ndarray:
    """Score only the appended paper columns of a delta-repaired matrix.

    The delta-maintenance layer (:mod:`repro.core.delta`) carries the
    problem chain's resident ``(R, P)`` matrix across late papers by
    scoring just their columns — ``R * K`` cells for ``K`` new papers
    instead of ``R * (P + K)``.  This is the
    one entry point for that repair: the serial path runs the cache-blocked
    kernel (bitwise-identical to the naive broadcast, and it never
    materialises an ``(R, K, T)`` intermediate larger than a block), and a
    :class:`~repro.parallel.ParallelConfig` routes repairs that clear its
    serial threshold — bulk adds against very large reviewer pools —
    through the sharded worker pool, equally bitwise-identical.
    """
    new_papers = np.asarray(new_papers, dtype=np.float64)
    if config is not None:
        return sharded_score_matrix(scoring, reviewer_matrix, new_papers, config)
    if new_papers.shape[0] <= 64:
        # Up to one block the naive kernel *is* the blocked kernel (same
        # single broadcast); keep the exact historical call shape so
        # instrumented callers observe one ``score_matrix`` per repair.
        return scoring.score_matrix(reviewer_matrix, new_papers)
    return blocked_score_matrix(scoring, reviewer_matrix, new_papers)


def _score_shard_job(
    payload: tuple[ScoringFunction, np.ndarray, np.ndarray, int, np.ndarray],
) -> np.ndarray:
    """Worker entry point: score one reviewer shard against all papers."""
    scoring, reviewer_shard, paper_matrix, paper_block, paper_totals = payload
    return blocked_score_matrix(
        scoring, reviewer_shard, paper_matrix, paper_block, paper_totals
    )


def sharded_score_matrix(
    scoring: ScoringFunction,
    reviewer_matrix: np.ndarray,
    paper_matrix: np.ndarray,
    config: ParallelConfig | None = None,
    paper_totals: np.ndarray | None = None,
) -> np.ndarray:
    """Build the ``(R, P)`` score matrix, fanning reviewer shards out.

    Dispatch policy (in order):

    * fewer than ``config.serial_threshold`` score cells — call the exact
      serial :meth:`ScoringFunction.score_matrix`, so small problems keep
      their current behaviour to the last bit and never pay pool overhead;
    * one resolved worker — the cache-blocked serial kernel (bitwise equal,
      no processes);
    * otherwise — a :class:`~concurrent.futures.ProcessPoolExecutor` scores
      one reviewer shard per task and the rows are concatenated in shard
      order.

    The result is bitwise-identical across all three paths for every
    scoring function whose ``topic_contribution`` is elementwise (which the
    registry contract requires).
    """
    reviewer_matrix = np.asarray(reviewer_matrix, dtype=np.float64)
    paper_matrix = np.asarray(paper_matrix, dtype=np.float64)
    if reviewer_matrix.shape[1] != paper_matrix.shape[1]:
        raise DimensionMismatchError(
            "reviewer and paper matrices must agree on the number of topics"
        )
    config = config if config is not None else ParallelConfig()
    cells = int(reviewer_matrix.shape[0]) * int(paper_matrix.shape[0])
    if cells < config.serial_threshold:
        return scoring.score_matrix(reviewer_matrix, paper_matrix)
    # The per-paper topic masses are shared by every shard: compute them
    # once here (or accept a dense view's precomputed array) instead of
    # once per worker.
    if paper_totals is None:
        paper_totals = paper_matrix.sum(axis=1)
    bounds = config.shard_bounds(reviewer_matrix.shape[0])
    if not config.should_parallelise(cells) or len(bounds) <= 1:
        return blocked_score_matrix(
            scoring, reviewer_matrix, paper_matrix, config.paper_block, paper_totals
        )
    payloads = [
        (
            scoring,
            reviewer_matrix[start:stop],
            paper_matrix,
            config.paper_block,
            paper_totals,
        )
        for start, stop in bounds
    ]
    with TRACER.span(
        "parallel.score_shards",
        shards=len(payloads),
        workers=config.resolved_workers(),
    ):
        shards = pool_map(_score_shard_job, payloads, config.resolved_workers())
        return np.concatenate(shards, axis=0)
