"""Scoring functions for reviewer-paper assignment quality.

The paper's default quality measure is the *weighted coverage*
(Definition 1):

.. math::

    c(\\vec r, \\vec p) = \\frac{\\sum_t \\min(\\vec r[t], \\vec p[t])}
                               {\\sum_t \\vec p[t]}

Appendix B additionally studies three alternatives (reviewer coverage,
paper coverage and dot product, Table 5) and proves that the SDGA
approximation guarantee holds for *any* scoring function whose per-topic
contribution is summed independently (C.1) and is monotonically
non-decreasing in the reviewer expertise (C.2).

Every scoring function here follows that template: subclasses only provide
the element-wise per-topic contribution ``f(r[t], p[t])`` and the shared
base class derives

* single pair scores,
* group scores (the group vector is the per-topic maximum, Definition 2),
* marginal gains of adding one reviewer to a group (Definition 8),
* fully vectorised score matrices and gain vectors used by the conference
  assignment solvers.

This guarantees that *all* solvers in :mod:`repro.cra` and :mod:`repro.jra`
work with every registered scoring function, exactly as claimed by the
paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.core.vectors import TopicVector, as_topic_vector
from repro.exceptions import DimensionMismatchError, UnknownScoringFunctionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (parallel imports core)
    from repro.parallel.config import ParallelConfig

__all__ = [
    "ScoringFunction",
    "WeightedCoverage",
    "ReviewerCoverage",
    "PaperCoverage",
    "DotProduct",
    "get_scoring_function",
    "register_scoring_function",
    "available_scoring_functions",
    "weighted_coverage",
    "group_coverage",
    "marginal_gain",
]


def _checked_values(reviewer: TopicVector, paper: TopicVector) -> tuple[np.ndarray, np.ndarray]:
    """The weights of two topic vectors of the same length."""
    reviewer = as_topic_vector(reviewer)
    paper = as_topic_vector(paper)
    if reviewer.num_topics != paper.num_topics:
        raise DimensionMismatchError(
            "reviewer and paper vectors must have the same number of topics"
        )
    return reviewer.values, paper.values


class ScoringFunction(ABC):
    """Base class for submodular reviewer/paper scoring functions.

    A scoring function assigns the quality ``score(r, p)`` of a single
    reviewer (or a whole reviewer group, represented by its per-topic
    maximum vector) reviewing a paper.  Scores are normalised by the total
    topic mass of the paper so they live in ``[0, 1]`` for normalised
    vectors.
    """

    #: short machine-readable name used in the registry and in reports
    name: str = "abstract"

    # ------------------------------------------------------------------
    # The single hook subclasses must implement
    # ------------------------------------------------------------------
    @abstractmethod
    def topic_contribution(self, reviewer: np.ndarray, paper: np.ndarray) -> np.ndarray:
        """Element-wise per-topic contribution ``f(r[t], p[t])``.

        Both arguments are broadcastable numpy arrays; the result must have
        the broadcast shape.  The contribution must be non-decreasing in
        ``reviewer`` for the submodularity proof of Appendix B to apply.
        """

    # ------------------------------------------------------------------
    # Scalar interface
    # ------------------------------------------------------------------
    def coverage(
        self, group_vector: np.ndarray, paper_vector: np.ndarray, total: float | None = None
    ) -> float:
        """``sum_t f(g[t], p[t]) / sum_t p[t]`` on plain arrays (0 for zero mass).

        The one scalar kernel of the objective; the batched kernels of
        :mod:`repro.core.dense` perform the same operations row by row.  A
        search scoring many groups against one paper passes the paper's
        mass ``total`` (``float(paper_vector.sum())``) instead of re-summing.
        """
        if total is None:
            total = float(paper_vector.sum())
        if total <= 0.0:
            return 0.0
        return float(self.topic_contribution(group_vector, paper_vector).sum()) / total

    def numerator(self, reviewer: TopicVector, paper: TopicVector) -> float:
        """The un-normalised score of a reviewer (or group) vector."""
        return float(self.topic_contribution(*_checked_values(reviewer, paper)).sum())

    def score(self, reviewer: TopicVector, paper: TopicVector) -> float:
        """Normalised score ``numerator / sum_t p[t]``, through :meth:`coverage`.

        A paper with zero topic mass scores zero against every reviewer.
        """
        return self.coverage(*_checked_values(reviewer, paper))

    def group_score(self, group_vectors: list[TopicVector] | TopicVector, paper: TopicVector) -> float:
        """Score of a whole reviewer group against a paper.

        ``group_vectors`` may be either the already-aggregated group vector
        or the list of member vectors (which is aggregated here with the
        per-topic maximum of Definition 2).  An empty list scores zero.
        """
        if isinstance(group_vectors, TopicVector):
            group_vector = group_vectors
        else:
            vectors = list(group_vectors)
            if not vectors:
                return 0.0
            group_vector = TopicVector.group_maximum(vectors)
        return self.score(group_vector, paper)

    def marginal_gain(
        self,
        group_vector: TopicVector | None,
        reviewer: TopicVector,
        paper: TopicVector,
    ) -> float:
        """Gain of adding ``reviewer`` to a group (Definition 8).

        ``group_vector`` is the current group's aggregated vector, or
        ``None`` / a zero vector for an empty group.
        """
        reviewer = as_topic_vector(reviewer)
        paper = as_topic_vector(paper)
        if group_vector is None:
            return self.score(reviewer, paper)
        group_vector = as_topic_vector(group_vector)
        extended = group_vector.maximum(reviewer)
        return self.score(extended, paper) - self.score(group_vector, paper)

    # ------------------------------------------------------------------
    # Vectorised interface used by the solvers
    # ------------------------------------------------------------------
    def score_matrix(
        self,
        reviewer_matrix: np.ndarray,
        paper_matrix: np.ndarray,
        parallel: "ParallelConfig | None" = None,
    ) -> np.ndarray:
        """Pairwise score matrix of shape ``(R, P)``.

        Parameters
        ----------
        reviewer_matrix:
            Dense ``(R, T)`` matrix of reviewer vectors.
        paper_matrix:
            Dense ``(P, T)`` matrix of paper vectors.
        parallel:
            Optional :class:`~repro.parallel.ParallelConfig`.  When given,
            construction is delegated to the sharded worker-pool kernel of
            :mod:`repro.parallel.sharding`, which is bitwise-identical to
            the serial path (problems below the config's serial threshold
            run the serial path unchanged).
        """
        if parallel is not None:
            from repro.parallel.sharding import sharded_score_matrix

            return sharded_score_matrix(self, reviewer_matrix, paper_matrix, parallel)
        reviewer_matrix = np.asarray(reviewer_matrix, dtype=np.float64)
        paper_matrix = np.asarray(paper_matrix, dtype=np.float64)
        if reviewer_matrix.shape[1] != paper_matrix.shape[1]:
            raise DimensionMismatchError(
                "reviewer and paper matrices must agree on the number of topics"
            )
        # Broadcast to (R, P, T) in one shot.  Fine for the paper's
        # workloads (R, P in the hundreds); at service scale prefer the
        # cache-blocked/sharded kernel via the ``parallel`` argument, which
        # applies the same score_block kernel in cache-sized pieces.
        denominators = paper_matrix.sum(axis=1)
        safe = np.where(denominators > 0.0, denominators, 1.0)
        scores = self.score_block(reviewer_matrix, paper_matrix, safe)
        scores[:, denominators <= 0.0] = 0.0
        return scores

    def score_block(
        self,
        reviewer_matrix: np.ndarray,
        paper_block: np.ndarray,
        safe_denominators: np.ndarray,
    ) -> np.ndarray:
        """Scores of every reviewer against one contiguous block of papers.

        The one shared aggregation behind every matrix builder — the
        serial :meth:`score_matrix` (single block) and the blocked/sharded
        kernels of :mod:`repro.parallel.sharding` (many blocks) — so the
        two paths cannot drift apart.  ``safe_denominators`` is the
        block's per-paper topic mass with zeros replaced by 1; callers
        zero out zero-mass columns themselves.
        """
        contributions = self.topic_contribution(
            reviewer_matrix[:, None, :], paper_block[None, :, :]
        )
        return contributions.sum(axis=2) / safe_denominators[None, :]

    def gain_vector(
        self,
        group_vector: np.ndarray,
        reviewer_matrix: np.ndarray,
        paper_vector: np.ndarray,
    ) -> np.ndarray:
        """Marginal gain of each reviewer against one paper, vectorised.

        Parameters
        ----------
        group_vector:
            ``(T,)`` aggregated vector of the paper's current group (the
            zero vector for an empty group).
        reviewer_matrix:
            ``(R, T)`` matrix of candidate reviewer vectors.
        paper_vector:
            ``(T,)`` paper vector.

        Returns
        -------
        numpy.ndarray
            ``(R,)`` array of marginal gains.
        """
        group_vector = np.asarray(group_vector, dtype=np.float64)
        reviewer_matrix = np.asarray(reviewer_matrix, dtype=np.float64)
        paper_vector = np.asarray(paper_vector, dtype=np.float64)
        denominator = float(paper_vector.sum())
        if denominator <= 0.0:
            return np.zeros(reviewer_matrix.shape[0], dtype=np.float64)
        current = float(self.topic_contribution(group_vector, paper_vector).sum())
        extended = np.maximum(group_vector[None, :], reviewer_matrix)
        numerators = self.topic_contribution(extended, paper_vector[None, :]).sum(axis=1)
        return (numerators - current) / denominator

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class WeightedCoverage(ScoringFunction):
    """The paper's default weighted coverage ``sum_t min(r[t], p[t])``."""

    name = "weighted_coverage"

    def topic_contribution(self, reviewer: np.ndarray, paper: np.ndarray) -> np.ndarray:
        return np.minimum(reviewer, paper)


class ReviewerCoverage(ScoringFunction):
    """Winner-takes-all reviewer coverage: ``r[t]`` where ``r[t] >= p[t]``.

    Prefers reviewers with very strong expertise on some of the paper's
    topics; recommended by the paper only when reviewer expertise
    information is highly trusted.
    """

    name = "reviewer_coverage"

    def topic_contribution(self, reviewer: np.ndarray, paper: np.ndarray) -> np.ndarray:
        reviewer, paper = np.broadcast_arrays(reviewer, paper)
        return np.where(reviewer >= paper, reviewer, 0.0)


class PaperCoverage(ScoringFunction):
    """Winner-takes-all paper coverage: ``p[t]`` where ``r[t] >= p[t]``.

    Counts a topic only when the reviewer can *completely* cover it.
    """

    name = "paper_coverage"

    def topic_contribution(self, reviewer: np.ndarray, paper: np.ndarray) -> np.ndarray:
        reviewer, paper = np.broadcast_arrays(reviewer, paper)
        return np.where(reviewer >= paper, paper, 0.0)


class DotProduct(ScoringFunction):
    """Classic vector-space similarity ``sum_t r[t] * p[t]``."""

    name = "dot_product"

    def topic_contribution(self, reviewer: np.ndarray, paper: np.ndarray) -> np.ndarray:
        return np.asarray(reviewer, dtype=np.float64) * np.asarray(paper, dtype=np.float64)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[ScoringFunction]] = {}


def register_scoring_function(cls: type[ScoringFunction], *aliases: str) -> type[ScoringFunction]:
    """Register a scoring function class under its name and extra aliases."""
    names = {cls.name, *aliases}
    for name in names:
        _REGISTRY[name.lower()] = cls
    return cls


register_scoring_function(WeightedCoverage, "c", "coverage", "default")
register_scoring_function(ReviewerCoverage, "cr")
register_scoring_function(PaperCoverage, "cp")
register_scoring_function(DotProduct, "cd", "dot")


def get_scoring_function(name: str | ScoringFunction | None = None) -> ScoringFunction:
    """Look up a scoring function by name.

    Passing ``None`` returns the paper's default (weighted coverage);
    passing an instance returns it unchanged, which lets every solver accept
    either a name or a ready-made object.
    """
    if name is None:
        return WeightedCoverage()
    if isinstance(name, ScoringFunction):
        return name
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        raise UnknownScoringFunctionError(
            f"unknown scoring function {name!r}; "
            f"available: {sorted(set(_REGISTRY))}"
        ) from None


def available_scoring_functions() -> list[str]:
    """Canonical names of all registered scoring functions."""
    return sorted({cls.name for cls in _REGISTRY.values()})


# ----------------------------------------------------------------------
# Convenience module-level functions (the common case: weighted coverage)
# ----------------------------------------------------------------------
_DEFAULT = WeightedCoverage()


def weighted_coverage(reviewer: TopicVector, paper: TopicVector) -> float:
    """Weighted coverage of a single reviewer vector over a paper vector.

    The running example of the paper (reviewer ``r1`` against paper ``p``
    in Figure 5):

    >>> round(weighted_coverage([0.15, 0.75, 0.1], [0.35, 0.45, 0.2]), 2)
    0.7
    """
    return _DEFAULT.score(reviewer, paper)


def group_coverage(group_vectors: list[TopicVector] | TopicVector, paper: TopicVector) -> float:
    """Weighted coverage of a reviewer group over a paper (Definitions 1+2)."""
    return _DEFAULT.group_score(group_vectors, paper)


def marginal_gain(
    group_vector: TopicVector | None, reviewer: TopicVector, paper: TopicVector
) -> float:
    """Marginal weighted-coverage gain of adding a reviewer to a group."""
    return _DEFAULT.marginal_gain(group_vector, reviewer, paper)
