"""Bid-aware reviewer assignment (the paper's stated future work).

Section 6 of the paper closes with: *"we plan to study alternative RAP
formulations, e.g., where the quality of the assignment depends on both
reviewer relevance to the paper topics and reviewer preferences based on
available bids."*  This module implements that extension.

The combined objective is

.. math::

    c_\\lambda(A) = \\sum_{p} c(\\vec g_p, \\vec p)
                    \\;+\\; \\lambda \\sum_{(r,p) \\in A} b(r, p)

where ``b(r, p) in [0, 1]`` is the reviewer's bid on the paper and
``lambda`` trades topic coverage against preference satisfaction.  The bid
term is *modular* (it decomposes over assignment pairs), and a submodular
function plus a modular function is still submodular, so the Stage
Deepening Greedy Algorithm keeps its approximation guarantee for the
combined objective — the per-stage linear assignment simply maximises the
sum of the coverage marginal gain and the (scaled) bid of each candidate
pair.

Bids that represent conflicts of interest should be declared as conflicts
on the :class:`~repro.core.problem.WGRAPProblem`; a bid of zero simply means
"no preference", not "forbidden".
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.assignment.transportation import solve_capacitated_assignment
from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRASolver
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.exceptions import ConfigurationError

__all__ = [
    "BidLevel",
    "BidMatrix",
    "BidAwareObjective",
    "BidAwareSDGASolver",
    "bid_satisfaction",
]


#: conventional conference-management bid levels and their numeric values
BidLevel: dict[str, float] = {
    "eager": 1.0,
    "yes": 0.75,
    "maybe": 0.4,
    "no": 0.0,
}


class BidMatrix:
    """Reviewer bids on papers, as values in ``[0, 1]``.

    Missing entries default to zero ("no preference expressed"), which makes
    it cheap to build the matrix from the sparse bid lists conference
    systems export.
    """

    def __init__(self, bids: Mapping[tuple[str, str], float] | None = None) -> None:
        self._bids: dict[tuple[str, str], float] = {}
        if bids:
            for (reviewer_id, paper_id), value in bids.items():
                self.set(reviewer_id, paper_id, value)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def set(self, reviewer_id: str, paper_id: str, value: float) -> None:
        """Record a bid; values must lie in ``[0, 1]``."""
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError("bid values must lie in [0, 1]")
        if not reviewer_id or not paper_id:
            raise ConfigurationError("bids need non-empty identifiers")
        self._bids[(reviewer_id, paper_id)] = float(value)

    @classmethod
    def from_levels(
        cls, levels: Mapping[tuple[str, str], str], mapping: Mapping[str, float] = BidLevel
    ) -> "BidMatrix":
        """Build a matrix from symbolic bid levels (``"eager"``, ``"yes"``, ...)."""
        bids = cls()
        for (reviewer_id, paper_id), level in levels.items():
            try:
                value = mapping[level.lower()]
            except KeyError:
                raise ConfigurationError(
                    f"unknown bid level {level!r}; known levels: {sorted(mapping)}"
                ) from None
            bids.set(reviewer_id, paper_id, value)
        return bids

    @classmethod
    def random(
        cls,
        problem: WGRAPProblem,
        bid_probability: float = 0.2,
        seed: int | None = 0,
    ) -> "BidMatrix":
        """Synthetic bids correlated with topical fit (for demos and benches).

        Each reviewer bids on roughly ``bid_probability * P`` papers,
        preferring papers they cover well — which is how real bids behave.
        """
        if not 0.0 < bid_probability <= 1.0:
            raise ConfigurationError("bid_probability must lie in (0, 1]")
        rng = np.random.default_rng(seed)
        scores = problem.pair_score_matrix()
        bids = cls()
        papers_per_reviewer = max(1, int(round(bid_probability * problem.num_papers)))
        for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
            preferences = np.argsort(-scores[reviewer_idx])
            chosen = preferences[: papers_per_reviewer * 2]
            picked = rng.choice(
                chosen, size=min(papers_per_reviewer, chosen.size), replace=False
            )
            for paper_idx in picked:
                level = rng.choice([1.0, 0.75, 0.4], p=[0.3, 0.5, 0.2])
                bids.set(reviewer_id, problem.paper_ids[int(paper_idx)], float(level))
        return bids

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, reviewer_id: str, paper_id: str) -> float:
        """The bid of a reviewer on a paper (0 if none was expressed)."""
        return self._bids.get((reviewer_id, paper_id), 0.0)

    def __len__(self) -> int:
        return len(self._bids)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._bids

    def pairs(self) -> Iterable[tuple[str, str, float]]:
        """Iterate over declared ``(reviewer_id, paper_id, value)`` bids."""
        for (reviewer_id, paper_id), value in sorted(self._bids.items()):
            yield reviewer_id, paper_id, value

    def dense(self, problem: WGRAPProblem) -> np.ndarray:
        """The bids as a dense ``(P, R)`` matrix aligned with the problem."""
        matrix = np.zeros((problem.num_papers, problem.num_reviewers), dtype=np.float64)
        for (reviewer_id, paper_id), value in self._bids.items():
            try:
                row = problem.paper_index(paper_id)
                col = problem.reviewer_index(reviewer_id)
            except KeyError:
                continue  # bids on withdrawn papers / former PC members
            matrix[row, col] = value
        return matrix

    def __repr__(self) -> str:
        return f"BidMatrix({len(self._bids)} bids)"


@dataclass(frozen=True)
class BidAwareObjective:
    """The combined coverage + preference objective.

    Attributes
    ----------
    bids:
        The bid matrix.
    tradeoff:
        ``lambda`` — weight of one unit of bid value relative to one unit of
        coverage.  The paper's pure WGRAP is ``tradeoff = 0``.
    """

    bids: BidMatrix
    tradeoff: float = 0.5

    def __post_init__(self) -> None:
        if self.tradeoff < 0:
            raise ConfigurationError("the bid tradeoff (lambda) must be non-negative")

    def coverage_component(self, problem: WGRAPProblem, assignment: Assignment) -> float:
        """The WGRAP coverage part ``c(A)``."""
        return problem.assignment_score(assignment)

    def bid_component(self, assignment: Assignment) -> float:
        """The total bid value of the assigned pairs (unweighted)."""
        return sum(
            self.bids.get(reviewer_id, paper_id)
            for reviewer_id, paper_id in assignment.pairs()
        )

    def value(self, problem: WGRAPProblem, assignment: Assignment) -> float:
        """``c(A) + lambda * sum of assigned bids``."""
        return self.coverage_component(problem, assignment) + self.tradeoff * self.bid_component(
            assignment
        )


class BidAwareSDGASolver(CRASolver):
    """SDGA for the combined coverage + bid objective.

    Identical to :class:`~repro.cra.sdga.StageDeepeningGreedySolver` except
    that every stage's pair profit is the coverage marginal gain *plus*
    ``lambda`` times the pair's bid.  Because the extra term is modular the
    stage problems stay linear assignments and the 1/2 (or ``1 - 1/e``)
    guarantee carries over to the combined objective.

    The returned :class:`~repro.cra.base.CRAResult` reports the plain
    coverage score (so results stay comparable with the other solvers);
    the combined objective value and the bid statistics are in ``stats``.

    Parameters
    ----------
    objective:
        The combined objective; omitted (or with an empty bid matrix) the
        bid term vanishes and the solve degenerates to plain SDGA on the
        same stage problems.
    backend:
        Assignment backend for the per-stage matchings.
    """

    name = "Bid-SDGA"

    #: SDGA's per-stage coverage inputs; the modular bid term is added on top
    _stage_inputs = staticmethod(StageDeepeningGreedySolver._stage_inputs)

    def __init__(
        self,
        objective: BidAwareObjective | None = None,
        backend: str = "hungarian",
    ) -> None:
        self._objective = (
            objective if objective is not None else BidAwareObjective(bids=BidMatrix())
        )
        self._backend = backend

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        assignment = Assignment()
        bid_matrix = self._objective.bids.dense(problem)  # (P, R)
        tradeoff = self._objective.tradeoff

        for _ in range(problem.group_size):
            gains, forbidden, capacities = self._stage_inputs(problem, assignment)
            combined = gains + tradeoff * bid_matrix
            result = solve_capacitated_assignment(
                combined, capacities, forbidden=forbidden, backend=self._backend
            )
            for paper_idx, reviewer_idx in enumerate(result.row_to_col):
                assignment.add(
                    problem.reviewer_ids[reviewer_idx], problem.paper_ids[paper_idx]
                )

        stats: dict[str, Any] = {
            "tradeoff": tradeoff,
            "combined_objective": self._objective.value(problem, assignment),
            "bid_component": self._objective.bid_component(assignment),
            "bid_satisfaction": bid_satisfaction(assignment, self._objective.bids),
        }
        return assignment, stats


def bid_satisfaction(assignment: Assignment, bids: BidMatrix) -> float:
    """Fraction of assigned pairs whose reviewer had expressed a positive bid.

    A simple, widely used health metric for conference assignments: it tells
    the chair how many reviews will land on people who actually asked for
    the paper.
    """
    pairs = list(assignment.pairs())
    if not pairs:
        return 0.0
    positive = sum(1 for reviewer_id, paper_id in pairs if bids.get(reviewer_id, paper_id) > 0)
    return positive / len(pairs)
