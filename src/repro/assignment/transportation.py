"""Capacitated one-reviewer-per-paper assignment (the Stage-WGRAP step).

Definition 9 of the paper asks, at every SDGA stage, for an assignment in
which *every paper gets exactly one reviewer* and *every reviewer takes at
most ``ceil(delta_r / delta_p)`` papers*, maximising the stage marginal
gain.  That is a semi-assignment (transportation) problem.  This module
solves it exactly by expanding each reviewer into as many copies as its
per-stage capacity and running the dense Hungarian algorithm.  The test
suite cross-checks the optimum against an independent min-cost-flow
reference (``tests/oracles/flow.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assignment.hungarian import solve_max_assignment
from repro.exceptions import ConfigurationError, InfeasibleProblemError, SolverError

__all__ = ["CapacitatedAssignmentResult", "solve_capacitated_assignment"]

#: profit assigned to forbidden pairs so the Hungarian algorithm avoids them
_FORBIDDEN_PENALTY = -1.0e9


@dataclass(frozen=True)
class CapacitatedAssignmentResult:
    """Result of a capacitated one-per-row assignment.

    Attributes
    ----------
    row_to_col:
        Column chosen for each row (every row is assigned exactly once).
    total_profit:
        Sum of the profits of the chosen cells.
    """

    row_to_col: tuple[int, ...]
    total_profit: float

    def as_pairs(self) -> list[tuple[int, int]]:
        """The selected ``(row, column)`` pairs."""
        return list(enumerate(self.row_to_col))


def solve_capacitated_assignment(
    profit_matrix: np.ndarray,
    column_capacities: np.ndarray,
    forbidden: np.ndarray | None = None,
) -> CapacitatedAssignmentResult:
    """Assign every row to one column, respecting per-column capacities.

    Parameters
    ----------
    profit_matrix:
        ``(rows, cols)`` matrix of assignment profits (e.g. marginal gains).
    column_capacities:
        ``(cols,)`` integer capacities: how many rows each column may take.
    forbidden:
        Optional boolean ``(rows, cols)`` mask; ``True`` marks pairs that
        must not be selected (conflicts of interest).

    Raises
    ------
    InfeasibleProblemError
        If the total capacity is smaller than the number of rows, or if the
        forbidden mask makes some row unassignable.
    """
    profit = np.asarray(profit_matrix, dtype=np.float64)
    capacities = np.asarray(column_capacities, dtype=np.int64)
    if profit.ndim != 2 or profit.size == 0:
        raise ConfigurationError("the profit matrix must be a non-empty 2-D array")
    num_rows, num_cols = profit.shape
    if capacities.shape != (num_cols,):
        raise ConfigurationError(
            "column_capacities must have one entry per column of the profit matrix"
        )
    if np.any(capacities < 0):
        raise ConfigurationError("column capacities must be non-negative")
    if int(capacities.sum()) < num_rows:
        raise InfeasibleProblemError(
            f"total column capacity {int(capacities.sum())} is smaller than the "
            f"number of rows {num_rows}"
        )
    if forbidden is not None:
        forbidden = np.asarray(forbidden, dtype=bool)
        if forbidden.shape != profit.shape:
            raise ConfigurationError("the forbidden mask must match the profit matrix shape")
        if np.any(forbidden.all(axis=1)):
            raise InfeasibleProblemError("some row has every column forbidden")

    masked = profit.copy()
    if forbidden is not None:
        masked[forbidden] = _FORBIDDEN_PENALTY

    # A column never needs more copies than there are rows.
    copies_per_column = np.minimum(capacities, num_rows)
    expanded_columns = np.repeat(np.arange(num_cols), copies_per_column)
    if expanded_columns.size < num_rows:
        raise InfeasibleProblemError(
            "total column capacity is smaller than the number of rows"
        )
    expanded_profit = masked[:, expanded_columns]
    result = solve_max_assignment(expanded_profit)

    row_to_col: list[int] = []
    total_profit = 0.0
    for row, expanded_col in enumerate(result.row_to_col):
        if expanded_col < 0:
            raise SolverError("the Hungarian algorithm left a row unassigned")
        original_col = int(expanded_columns[expanded_col])
        if forbidden is not None and forbidden[row, original_col]:
            raise InfeasibleProblemError(
                "no feasible assignment exists that avoids all forbidden pairs"
            )
        row_to_col.append(original_col)
        total_profit += float(profit[row, original_col])
    return CapacitatedAssignmentResult(
        row_to_col=tuple(row_to_col), total_profit=total_profit
    )

