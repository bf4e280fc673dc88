"""A dense two-phase primal simplex: the LP reference for the ILP solvers.

The ILP baselines in ``src/`` solve their LP relaxations with SciPy's
HiGHS.  This module keeps an independent implementation to cross-check
them: the classic two-phase tableau method with Bland's anti-cycling
rule, favouring clarity and robustness over raw speed, for the *small*
LPs of the reviewer-assignment formulations (hundreds of variables).

:class:`SimplexBranchAndBound` is :class:`~repro.optimize.BranchAndBoundSolver`
with its relaxation seam swapped for this simplex, and
:func:`simplex_driver` runs the JRA :class:`~repro.jra.ilp.ILPSolver` over
it (``unittest.mock.patch.object``, the idiom of
:func:`~tests.oracles.inputs.object_refill`).  They match HiGHS on the
objective value, not on how ties are broken.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np

from repro.exceptions import (
    InfeasibleLinearProgramError,
    IterationLimitError,
    SolverError,
    UnboundedProblemError,
)
from repro.jra import ilp as jra_ilp
from repro.optimize.branch_and_bound import BranchAndBoundSolver
from repro.optimize.model import LinearProgram

__all__ = ["LPSolution", "SimplexBranchAndBound", "simplex_driver", "solve_linear_program"]

_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LPSolution:
    """Optimal solution of a linear program.

    Attributes
    ----------
    values:
        Optimal variable values in the original variable space.
    objective:
        Optimal objective value (maximisation convention).
    """

    values: np.ndarray
    objective: float


def solve_linear_program(
    program: LinearProgram, max_iterations: int | None = None
) -> LPSolution:
    """Solve the LP relaxation of ``program`` (integrality is ignored).

    Parameters
    ----------
    program:
        The linear program (maximisation convention).
    max_iterations:
        Pivot budget; defaults to a generous multiple of the problem size.

    Raises
    ------
    InfeasibleLinearProgramError
        If the feasible region is empty.
    UnboundedProblemError
        If the objective is unbounded above.
    IterationLimitError
        If the pivot budget is exhausted (should not happen with Bland's
        rule unless the budget is unrealistically small).
    """
    (
        constraint_matrix,
        rhs,
        cost,
        lower_shift,
        num_original,
    ) = _to_standard_form(program)

    num_constraints, num_variables = constraint_matrix.shape
    if max_iterations is None:
        max_iterations = 200 * (num_constraints + num_variables + 10)

    tableau, basis = _phase_one(constraint_matrix, rhs, max_iterations)
    solution_vector = _phase_two(tableau, basis, cost, max_iterations, num_variables)

    original_values = solution_vector[:num_original] + lower_shift
    objective = float(np.dot(program.objective, original_values))
    return LPSolution(values=original_values, objective=objective)


# ----------------------------------------------------------------------
# Standard-form conversion
# ----------------------------------------------------------------------
def _to_standard_form(
    program: LinearProgram,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Convert the general model into ``A x = b, x >= 0`` with ``b >= 0``.

    Variables are shifted by their (finite) lower bounds; finite upper
    bounds become extra inequality rows; inequality rows receive slack
    variables.  Returns the equality system, the phase-2 cost vector (for
    the maximisation objective, extended with zeros for slacks), the
    lower-bound shift and the number of original variables.
    """
    num_original = program.num_variables
    lower = np.where(np.isfinite(program.lower_bounds), program.lower_bounds, 0.0)
    if np.any(~np.isfinite(program.lower_bounds)):
        # Free variables are uncommon in assignment models; a simple and
        # correct treatment is to anchor them at zero and rely on the
        # constraints, which all our formulations satisfy.
        lower = np.where(np.isfinite(program.lower_bounds), program.lower_bounds, 0.0)

    upper_rows = [program.upper_matrix] if program.upper_rhs.size else []
    upper_rhs = [program.upper_rhs] if program.upper_rhs.size else []

    finite_upper = np.isfinite(program.upper_bounds)
    if np.any(finite_upper):
        bound_rows = np.eye(num_original)[finite_upper]
        bound_rhs = program.upper_bounds[finite_upper]
        upper_rows.append(bound_rows)
        upper_rhs.append(bound_rhs)

    if upper_rows:
        inequality_matrix = np.vstack(upper_rows)
        inequality_rhs = np.concatenate(upper_rhs)
    else:
        inequality_matrix = np.zeros((0, num_original), dtype=np.float64)
        inequality_rhs = np.zeros(0, dtype=np.float64)

    # Shift variables by their lower bounds: x = y + lower, y >= 0.
    inequality_rhs = inequality_rhs - inequality_matrix @ lower
    equality_rhs = program.equality_rhs - (
        program.equality_matrix @ lower if program.equality_rhs.size else 0.0
    )

    num_inequalities = inequality_matrix.shape[0]
    num_equalities = program.equality_matrix.shape[0]
    total_vars = num_original + num_inequalities

    rows = []
    if num_inequalities:
        slack_block = np.eye(num_inequalities)
        rows.append(np.hstack([inequality_matrix, slack_block]))
    if num_equalities:
        rows.append(
            np.hstack(
                [program.equality_matrix, np.zeros((num_equalities, num_inequalities))]
            )
        )
    if rows:
        constraint_matrix = np.vstack(rows)
        rhs = np.concatenate([inequality_rhs, equality_rhs]) if num_equalities else inequality_rhs
        if not num_inequalities:
            rhs = equality_rhs
    else:
        constraint_matrix = np.zeros((0, total_vars), dtype=np.float64)
        rhs = np.zeros(0, dtype=np.float64)

    # Make every right-hand side non-negative.
    negative = rhs < 0
    constraint_matrix[negative] *= -1.0
    rhs = np.where(negative, -rhs, rhs)

    cost = np.zeros(total_vars, dtype=np.float64)
    cost[:num_original] = program.objective
    return constraint_matrix, rhs, cost, lower, num_original


# ----------------------------------------------------------------------
# Two-phase simplex on the tableau
# ----------------------------------------------------------------------
def _phase_one(
    constraint_matrix: np.ndarray, rhs: np.ndarray, max_iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Find a basic feasible solution by minimising artificial variables."""
    num_constraints, num_variables = constraint_matrix.shape
    if num_constraints == 0:
        # No constraints at all: the tableau is trivially feasible.
        tableau = np.zeros((0, num_variables + 1), dtype=np.float64)
        return tableau, np.zeros(0, dtype=np.int64)

    tableau = np.hstack(
        [constraint_matrix, np.eye(num_constraints), rhs.reshape(-1, 1)]
    ).astype(np.float64)
    basis = np.arange(num_variables, num_variables + num_constraints, dtype=np.int64)

    # Phase-1 objective: minimise the sum of artificials, i.e. maximise its
    # negation.  The reduced-cost row is expressed in terms of the basis.
    phase_one_cost = np.zeros(num_variables + num_constraints, dtype=np.float64)
    phase_one_cost[num_variables:] = -1.0

    _run_simplex(tableau, basis, phase_one_cost, max_iterations)

    artificial_value = float(tableau[:, -1][basis >= num_variables].sum())
    if artificial_value > 1e-7:
        raise InfeasibleLinearProgramError("the linear program has no feasible solution")

    # Pivot any artificial variables still in the basis out of it (they must
    # carry value zero at this point); if a row has no eligible pivot the
    # row is redundant and can be zeroed.
    for row in range(num_constraints):
        if basis[row] < num_variables:
            continue
        candidates = np.flatnonzero(np.abs(tableau[row, :num_variables]) > _TOLERANCE)
        if candidates.size:
            _pivot(tableau, basis, row, int(candidates[0]))
        else:
            tableau[row, :] = 0.0

    # Drop the artificial columns, keep the rhs.
    reduced = np.hstack([tableau[:, :num_variables], tableau[:, -1:].copy()])
    return reduced, basis


def _phase_two(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    max_iterations: int,
    num_variables: int,
) -> np.ndarray:
    """Optimise the true objective starting from a feasible tableau."""
    if tableau.shape[0] == 0:
        # Unconstrained problem: optimum is at the (shifted) origin unless
        # some cost coefficient is positive, in which case it is unbounded.
        if np.any(cost > _TOLERANCE):
            raise UnboundedProblemError("the linear program is unbounded")
        return np.zeros(num_variables, dtype=np.float64)

    _run_simplex(tableau, basis, cost, max_iterations)

    solution = np.zeros(num_variables, dtype=np.float64)
    for row, variable in enumerate(basis):
        if variable < num_variables:
            solution[variable] = tableau[row, -1]
    return solution


def _run_simplex(
    tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, max_iterations: int
) -> None:
    """Primal simplex pivoting (maximisation) with Bland's rule, in place."""
    num_rows = tableau.shape[0]
    num_cols = tableau.shape[1] - 1

    for _ in range(max_iterations):
        # Reduced costs: c_j - c_B^T B^{-1} A_j, computed from the tableau.
        basic_costs = cost[basis]
        reduced_costs = cost[:num_cols] - basic_costs @ tableau[:, :num_cols]
        reduced_costs[np.abs(reduced_costs) < _TOLERANCE] = 0.0

        entering_candidates = np.flatnonzero(reduced_costs > _TOLERANCE)
        if entering_candidates.size == 0:
            return
        entering = int(entering_candidates[0])  # Bland's rule: smallest index

        column = tableau[:, entering]
        positive = column > _TOLERANCE
        if not np.any(positive):
            raise UnboundedProblemError("the linear program is unbounded")
        ratios = np.full(num_rows, np.inf, dtype=np.float64)
        ratios[positive] = tableau[positive, -1] / column[positive]
        best_ratio = ratios.min()
        # Bland's rule on the leaving variable: among the minimising rows,
        # pick the one whose basic variable has the smallest index.
        tie_rows = np.flatnonzero(np.abs(ratios - best_ratio) < 1e-12)
        leaving = int(tie_rows[np.argmin(basis[tie_rows])])

        _pivot(tableau, basis, leaving, entering)

    raise IterationLimitError("simplex exceeded its iteration budget")


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, column: int) -> None:
    """Gauss-Jordan pivot on ``(row, column)``, updating the basis."""
    pivot_value = tableau[row, column]
    tableau[row, :] /= pivot_value
    other_rows = np.arange(tableau.shape[0]) != row
    tableau[other_rows, :] -= np.outer(tableau[other_rows, column], tableau[row, :])
    basis[row] = column


class SimplexBranchAndBound(BranchAndBoundSolver):
    """The branch-and-bound driver with simplex relaxations instead of HiGHS."""

    @staticmethod
    def _solve_lp(program: LinearProgram) -> tuple[np.ndarray, float] | None:
        try:
            solution = solve_linear_program(program)
        except InfeasibleLinearProgramError:
            return None
        except UnboundedProblemError as error:
            raise SolverError(
                "the LP relaxation is unbounded; 0-1 programs must have bounded objectives"
            ) from error
        return solution.values, solution.objective


@contextmanager
def simplex_driver() -> Iterator[None]:
    """Run :class:`~repro.jra.ilp.ILPSolver` over :class:`SimplexBranchAndBound`."""
    with mock.patch.object(jra_ilp, "ILPDriver", SimplexBranchAndBound):
        yield
