"""Per-paper reviewer rankings over the problem chain's score matrix.

The dense ``(R, P)`` matrix of single-reviewer scores ``c(r, p)`` that
every engine request reads has one owner, the problem chain
(:meth:`WGRAPProblem.pair_score_matrix
<repro.core.problem.WGRAPProblem.pair_score_matrix>`): built once, in RAM
or in the bound store's memmap blocks, then carried across mutations by
:mod:`repro.core.delta` — one scored column per late paper, one dropped
row and no re-scoring per withdrawn reviewer.

:class:`ScoreMatrixCache` keeps only what the engine adds on top of the
matrix: per-paper **top-k reviewer rankings** (descending score order),
built on demand from the matrix's columns and cleared when a withdrawal
shifts the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.delta import ViewStats
from repro.core.problem import ProblemMutation, WGRAPProblem
from repro.exceptions import ConfigurationError
from repro.parallel.config import ParallelConfig

__all__ = ["CacheStats", "ScoreMatrixCache"]


@dataclass
class CacheStats:
    """Counters describing the score-matrix work an engine has seen.

    Attributes
    ----------
    chain:
        The problem chain's :class:`~repro.core.delta.ViewStats`, the only
        writer of ``full_builds`` and ``scored_cells`` (read from there).
    columns_added:
        Paper columns appended by ``add_paper`` mutations.
    rows_removed:
        Reviewer rows dropped by ``remove_reviewer`` mutations.
    topk_builds:
        Per-paper reviewer rankings computed.
    topk_hits:
        Per-paper reviewer rankings served from cache.
    """

    chain: ViewStats
    columns_added: int = 0
    rows_removed: int = 0
    topk_builds: int = 0
    topk_hits: int = 0

    @property
    def full_builds(self) -> int:
        """From-scratch builds of the chain's ``(R, P)`` matrix."""
        return self.chain.full_builds

    @property
    def scored_cells(self) -> int:
        """Reviewer/paper cells scored for the chain's matrix."""
        return self.chain.scored_cells

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for reports and the ``stats`` request)."""
        return {
            "full_builds": self.full_builds,
            "scored_cells": self.scored_cells,
            "columns_added": self.columns_added,
            "rows_removed": self.rows_removed,
            "topk_builds": self.topk_builds,
            "topk_hits": self.topk_hits,
        }


class ScoreMatrixCache:
    """Reviewer rankings kept beside the problem chain's score matrix.

    Row ``i`` of every ranking is ``problem.reviewers[i]``.  Appended papers
    go last and withdrawn reviewers keep the relative order of the
    survivors (what :meth:`WGRAPProblem.with_additional_paper` and
    :meth:`WGRAPProblem.without_reviewer` guarantee), so a late paper leaves
    every ranking valid and a withdrawal clears them all.

    When a :class:`~repro.parallel.ParallelConfig` is given, a cold matrix
    build large enough to clear its serial threshold goes through the
    sharded worker-pool kernel of :mod:`repro.parallel.sharding`
    (bitwise-identical results).
    """

    def __init__(
        self, problem: WGRAPProblem, parallel: ParallelConfig | None = None
    ) -> None:
        self._problem = problem
        self._parallel = parallel
        #: per-paper descending ranking of reviewer rows (row indices)
        self._rankings: dict[str, np.ndarray] = {}
        self.stats = CacheStats(problem.view_stats)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        """Whether the problem's score matrix has been materialised."""
        return self._problem.cached_pair_scores is not None

    def matrix(self) -> np.ndarray:
        """The problem's read-only ``(R, P)`` score matrix, built on first use."""
        return self._problem.warm_pair_scores(self._parallel)

    def scores_for_paper(self, paper_id: str) -> np.ndarray:
        """One column of the matrix: every reviewer's score on ``paper_id``."""
        # Resolve the id first, so an unknown paper raises before any build.
        column = self._problem.paper_index(paper_id)
        return self.matrix()[:, column]

    def top_reviewers(
        self, paper_id: str, k: int, exclude_conflicts: bool = True
    ) -> list[tuple[str, float]]:
        """The ``k`` highest-scoring reviewers for one paper, best first.

        Ties are broken by problem order so the ranking is deterministic.
        Conflicted reviewers are filtered out by default, which makes the
        result directly usable as a journal-query candidate shortlist.
        """
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        scores = self.scores_for_paper(paper_id)
        ranking = self._rankings.get(paper_id)
        if ranking is None:
            ranking = np.argsort(-scores, kind="stable")
            self._rankings[paper_id] = ranking
            self.stats.topk_builds += 1
        else:
            self.stats.topk_hits += 1
        reviewer_ids = self._problem.reviewer_ids
        forbidden = (
            self._problem.conflicts.reviewers_conflicting_with(paper_id)
            if exclude_conflicts
            else frozenset()
        )
        shortlist: list[tuple[str, float]] = []
        for row in ranking:
            reviewer_id = reviewer_ids[int(row)]
            if reviewer_id in forbidden:
                continue
            shortlist.append((reviewer_id, float(scores[int(row)])))
            if len(shortlist) == k:
                break
        return shortlist

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_mutation(self, mutation: ProblemMutation) -> None:
        """Follow a problem mutation event."""
        if mutation.kind == "add_paper":
            self._problem = mutation.result
            self.stats.columns_added += len(mutation.papers)
        elif mutation.kind == "remove_reviewer":
            self._problem = mutation.result
            # Every ranking indexes rows, so all of them are stale now.
            self._rankings.clear()
            self.stats.rows_removed += len(mutation.reviewers)
        else:  # unknown mutation kinds invalidate everything, conservatively
            self.invalidate(mutation.result)

    def invalidate(self, problem: WGRAPProblem | None = None) -> None:
        """Drop every cached ranking (optionally rebinding to a new problem)."""
        if problem is not None:
            self._problem = problem
        self._rankings.clear()

    def describe(self) -> dict[str, Any]:
        """Summary used by the ``stats`` request of the serving front end."""
        return {
            "built": self.is_built,
            "shape": [self._problem.num_reviewers, self._problem.num_papers],
            "rankings_cached": len(self._rankings),
            "parallel_workers": (
                self._parallel.resolved_workers() if self._parallel is not None else 1
            ),
            **self.stats.as_dict(),
        }
