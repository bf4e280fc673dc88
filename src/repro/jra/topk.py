"""Top-k reviewer group retrieval (Figure 15 of the paper).

The paper notes that BBA "can easily be adapted to return the top-k
reviewer sets by replacing bsf by a heap structure".  This module exposes
that capability as a convenience function so journal editors can inspect a
ranked shortlist of candidate groups instead of a single answer.

Every query is one solve over the problem's candidate pool, exact with
BBA or BFS.  Whatever pruning makes it fast lives inside the solver (BBA's
bounds), so nothing here can change an answer.  The engine's heuristic
``pool_size`` is the one restriction that can: it shrinks the candidate
pool before the query reaches this module, trading quality for speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import JRAProblem
from repro.exceptions import ConfigurationError
from repro.jra.base import JRASolver
from repro.jra.bba import BranchAndBoundSolver
from repro.jra.brute_force import BruteForceSolver

__all__ = ["RankedGroup", "find_top_k_groups"]


@dataclass(frozen=True)
class RankedGroup:
    """One entry of a top-k shortlist."""

    rank: int
    reviewer_ids: tuple[str, ...]
    score: float


def _make_solver(method: str | JRASolver, k: int) -> JRASolver:
    if isinstance(method, JRASolver):
        return method
    # Request exactly k groups: asking for more than needed used to force
    # the heap-tracking mode (and its weaker k-th-best pruning bound) even
    # for plain best-group queries, making k=1 shortlists measurably
    # slower than a direct solve for no benefit.
    if method == "bba":
        return BranchAndBoundSolver(top_k=k)
    if method == "bfs":
        return BruteForceSolver(top_k=k)
    raise ConfigurationError(f"unknown method {method!r}; use 'bba' or 'bfs'")


def find_top_k_groups(
    problem: JRAProblem, k: int, method: str | JRASolver = "bba"
) -> list[RankedGroup]:
    """Return the ``k`` best reviewer groups for a single paper.

    Parameters
    ----------
    problem:
        The JRA instance.
    k:
        Number of groups to return (the actual list may be shorter when the
        candidate pool admits fewer than ``k`` distinct groups).
    method:
        ``"bba"`` (default) or ``"bfs"``; both are exact, BBA is the fast
        one.  A configured :class:`~repro.jra.base.JRASolver` (such as the
        engine's registry solver, built with ``top_k=k``) is used as is; a
        solver that keeps no heap answers with its one best group.

    Returns
    -------
    list[RankedGroup]
        Groups in descending score order, ranked from 1.
    """
    if k < 1:
        raise ConfigurationError("k must be at least 1")
    result = _make_solver(method, k).solve(problem)
    ranked_pairs = result.stats.get("top_k", [(result.reviewer_ids, result.score)])
    return [
        RankedGroup(rank=rank, reviewer_ids=tuple(ids), score=float(score))
        for rank, (ids, score) in enumerate(ranked_pairs[:k], start=1)
    ]
