"""Approximation ratios of SDGA (Section 4.3) and the ratio-greedy baseline.

SDGA achieves

* ``1 - (1 - 1/delta_p)^delta_p`` (which tends to ``1 - 1/e``) when the
  reviewer workload ``delta_r`` is divisible by the group size ``delta_p``
  (Theorem 1), and
* ``1 - (1 - 1/delta_p)^(delta_p - 1)`` (at least ``1/2`` for
  ``delta_p >= 2``) in the general case (Theorem 2).

The previously best algorithm (the greedy of Long et al. 2013) guarantees
only ``1/3``.  Figure 7 of the paper plots these curves against
``delta_p``; :func:`approximation_ratio_table` regenerates its series.

The module also hosts :class:`RatioGreedySolver`, a capacity-aware variant
of the pair greedy: selection is by marginal gain *scaled by the fraction
of the reviewer's workload still unused*, which steers early picks away
from reviewers a plain greedy would exhaust — the failure mode that makes
BRGG lose to SDGA in Figure 10.  Like every other constructive solver it
runs on the dense kernels; its object-path reference lives in
``tests/oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRASolver
from repro.cra.repair import complete_assignment
from repro.exceptions import ConfigurationError

__all__ = [
    "GREEDY_RATIO",
    "integral_case_ratio",
    "general_case_ratio",
    "sdga_ratio",
    "RatioPoint",
    "approximation_ratio_table",
    "RatioGreedySolver",
]

#: approximation guarantee of the baseline greedy algorithm of Long et al.
GREEDY_RATIO = 1.0 / 3.0


def integral_case_ratio(group_size: int) -> float:
    """``1 - (1 - 1/delta_p)^delta_p`` — the bound when ``delta_p | delta_r``."""
    _check_group_size(group_size)
    return 1.0 - (1.0 - 1.0 / group_size) ** group_size


def general_case_ratio(group_size: int) -> float:
    """``1 - (1 - 1/delta_p)^(delta_p - 1)`` — the bound in the general case."""
    _check_group_size(group_size)
    return 1.0 - (1.0 - 1.0 / group_size) ** (group_size - 1)


def sdga_ratio(group_size: int, reviewer_workload: int) -> float:
    """The guarantee that applies to a concrete ``(delta_p, delta_r)`` pair."""
    _check_group_size(group_size)
    if reviewer_workload < 1:
        raise ConfigurationError("reviewer_workload must be at least 1")
    if reviewer_workload % group_size == 0:
        return integral_case_ratio(group_size)
    return general_case_ratio(group_size)


@dataclass(frozen=True)
class RatioPoint:
    """One point of the Figure 7 plot."""

    group_size: int
    integral_case: float
    general_case: float
    greedy_baseline: float = GREEDY_RATIO

    @property
    def limit_one_minus_inverse_e(self) -> float:
        """The asymptote ``1 - 1/e`` shown in the figure."""
        return 1.0 - 1.0 / math.e


def approximation_ratio_table(
    min_group_size: int = 2, max_group_size: int = 10
) -> list[RatioPoint]:
    """The series plotted in Figure 7 for ``delta_p`` in the given range."""
    if min_group_size < 2:
        raise ConfigurationError("the ratios are defined for delta_p >= 2")
    if max_group_size < min_group_size:
        raise ConfigurationError("max_group_size must be >= min_group_size")
    return [
        RatioPoint(
            group_size=group_size,
            integral_case=integral_case_ratio(group_size),
            general_case=general_case_ratio(group_size),
        )
        for group_size in range(min_group_size, max_group_size + 1)
    ]


def _check_group_size(group_size: int) -> None:
    if group_size < 2:
        raise ConfigurationError(
            "approximation ratios are defined for group sizes of at least 2"
        )


class RatioGreedySolver(CRASolver):
    """Capacity-aware pair greedy: gain weighted by remaining workload.

    At every step the solver assigns the feasible ``(reviewer, paper)``
    pair maximising

    .. math:: gain(r \\mid G_p) \\cdot \\frac{remaining(r)}{\\delta_r}

    i.e. the marginal coverage gain discounted by how much of the
    reviewer's workload is already consumed.  A reviewer about to saturate
    must beat fresher alternatives by a growing margin, so strong
    generalists are rationed across papers instead of being consumed by
    the first few — the pathology of the unweighted greedy and of BRGG
    (Figure 10/11 of the paper).  Ties break on the smallest
    ``(reviewer, paper)`` index pair, matching the naive greedy's
    convention.
    """

    name = "Ratio-Greedy"

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        dense = problem.dense_view()
        num_papers = dense.num_papers
        num_reviewers = dense.num_reviewers
        workload = float(problem.reviewer_workload)

        assignment = Assignment()
        group_vectors = np.zeros((num_papers, dense.num_topics), dtype=np.float64)
        group_sizes = np.zeros(num_papers, dtype=np.int64)
        loads = np.zeros(num_reviewers, dtype=np.int64)
        infeasible = ~dense.feasible
        assigned = np.zeros((num_reviewers, num_papers), dtype=bool)

        # A pick only changes the chosen paper's group vector, so the gain
        # matrix is maintained incrementally: one full build up front, then
        # exactly one refreshed column per pick (every other column's
        # inputs are unchanged, and the single-column kernel call is
        # bitwise-equal to its row of the batched build).
        gains = np.ascontiguousarray(dense.gain_matrix(group_vectors).T)

        target_pairs = num_papers * dense.group_size
        iterations = 0

        while len(assignment) < target_pairs:
            # The capacity weight: remaining workload fraction per reviewer.
            weight = (workload - loads) / workload
            profits = gains * weight[:, None]
            profits[:, group_sizes >= dense.group_size] = -np.inf
            profits[loads >= dense.reviewer_workload, :] = -np.inf
            profits[infeasible] = -np.inf
            profits[assigned] = -np.inf

            reviewer_idx, paper_idx = np.unravel_index(
                np.argmax(profits), profits.shape
            )
            if not np.isfinite(profits[reviewer_idx, paper_idx]):
                break
            assignment.add(
                problem.reviewer_ids[int(reviewer_idx)],
                problem.paper_ids[int(paper_idx)],
            )
            assigned[reviewer_idx, paper_idx] = True
            group_vectors[paper_idx] = np.maximum(
                group_vectors[paper_idx], dense.reviewer_matrix[reviewer_idx]
            )
            group_sizes[paper_idx] += 1
            loads[reviewer_idx] += 1
            iterations += 1
            if group_sizes[paper_idx] < dense.group_size:
                gains[:, paper_idx] = dense.gain_matrix(
                    group_vectors[paper_idx][None, :],
                    np.array([paper_idx], dtype=np.int64),
                )[0]

        repaired = False
        if len(assignment) < target_pairs:
            assignment = complete_assignment(problem, assignment)
            repaired = True
        return assignment, {
            "iterations": iterations,
            "strategy": "dense",
            "repaired": repaired,
        }
