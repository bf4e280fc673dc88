"""Assignment-quality metrics used in the paper's evaluation (Section 5).

* **Coverage score** ``c(A)`` — the WGRAP objective itself
  (``WGRAPProblem.assignment_score``).
* **Optimality ratio** ``c(A) / c(AI)`` — quality relative to the ideal
  (workload-free) assignment; a lower bound of the true approximation
  ratio (Figure 10, 17, 18, 21).
* **Superiority ratio** — fraction of papers for which one method's group
  covers the paper at least as well as another method's (Figure 11).
* **Lowest coverage score** — the quality of the worst-served paper
  (Table 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.ideal import IdealAssignment, ideal_assignment
from repro.exceptions import ConfigurationError

__all__ = [
    "optimality_ratio",
    "SuperiorityBreakdown",
    "superiority_ratio",
    "lowest_coverage_score",
]


def optimality_ratio(
    problem: WGRAPProblem,
    assignment: Assignment,
    ideal: IdealAssignment | None = None,
) -> float:
    """``c(A) / c(AI)`` against the ideal per-paper assignment.

    Parameters
    ----------
    problem:
        The WGRAP instance.
    assignment:
        The assignment to evaluate.
    ideal:
        A pre-computed ideal assignment; computing it is the expensive part,
        so callers comparing several methods should compute it once and
        pass it in.
    """
    reference = ideal if ideal is not None else ideal_assignment(problem)
    if reference.score <= 0.0:
        return 1.0
    return problem.assignment_score(assignment) / reference.score


@dataclass(frozen=True)
class SuperiorityBreakdown:
    """Per-paper comparison of two assignments (Figure 11).

    Attributes
    ----------
    wins:
        Papers where the first assignment covers strictly better.
    ties:
        Papers covered equally well (within ``tolerance``).
    losses:
        Papers where the second assignment covers strictly better.
    """

    wins: int
    ties: int
    losses: int

    @property
    def total(self) -> int:
        """Number of papers compared."""
        return self.wins + self.ties + self.losses

    @property
    def superiority(self) -> float:
        """The paper's superiority ratio: wins plus ties over all papers."""
        if self.total == 0:
            return 0.0
        return (self.wins + self.ties) / self.total

    @property
    def strict_superiority(self) -> float:
        """Wins only, over all papers."""
        if self.total == 0:
            return 0.0
        return self.wins / self.total

    @property
    def tie_ratio(self) -> float:
        """Ties over all papers (the dark-grey bar portion in Figure 11)."""
        if self.total == 0:
            return 0.0
        return self.ties / self.total


def superiority_ratio(
    problem: WGRAPProblem,
    first: Assignment,
    second: Assignment,
    tolerance: float = 1e-9,
) -> SuperiorityBreakdown:
    """Compare two assignments paper by paper.

    The paper defines ``ratio(X, Y)`` as the fraction of papers whose group
    under ``X`` scores at least as high as under ``Y``; the returned
    breakdown exposes that number as :attr:`SuperiorityBreakdown.superiority`
    together with the strict-win and tie fractions.
    """
    if tolerance < 0:
        raise ConfigurationError("tolerance must be non-negative")
    wins = ties = losses = 0
    for first_score, second_score in zip(
        problem.paper_scores(first).values(), problem.paper_scores(second).values()
    ):
        if abs(first_score - second_score) <= tolerance:
            ties += 1
        elif first_score > second_score:
            wins += 1
        else:
            losses += 1
    return SuperiorityBreakdown(wins=wins, ties=ties, losses=losses)


def lowest_coverage_score(problem: WGRAPProblem, assignment: Assignment) -> float:
    """Coverage of the worst-served paper, ``min_p c(g_p, p)`` (Table 7)."""
    return min(problem.paper_scores(assignment).values())
