"""Branch-and-bound for 0-1 mixed-integer programs.

This replaces the ``lp_solve`` library the paper used for its ILP
baselines.  The driver explores a best-bound search tree, solving the LP
relaxation at each node with SciPy's HiGHS (``scipy.optimize.linprog``,
the stand-in for the third-party LP library the original authors used)
and branching on the most fractional binary variable.  SciPy is imported
inside the relaxation solve, so importing this module stays SciPy-free.
The test suite cross-checks the driver against a dense two-phase simplex
reference (``tests/oracles/simplex.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import InfeasibleLinearProgramError
from repro.optimize.model import LinearProgram

__all__ = ["ILPSolution", "BranchAndBoundSolver"]

_INTEGRALITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ILPSolution:
    """Result of a branch-and-bound run.

    Attributes
    ----------
    values:
        Best integral solution found (variable values).
    objective:
        Its objective value.
    is_optimal:
        True when the search tree was exhausted (the solution is provably
        optimal); false when a node or time limit stopped the search early.
    nodes_explored:
        Number of branch-and-bound nodes whose relaxation was solved.
    """

    values: np.ndarray
    objective: float
    is_optimal: bool
    nodes_explored: int


@dataclass(order=True)
class _Node:
    # best-bound search: nodes with the highest relaxation bound first
    sort_key: float
    fixed: dict[int, float] = field(compare=False)


class BranchAndBoundSolver:
    """Solve a 0-1 mixed-integer :class:`LinearProgram` by branch and bound.

    Parameters
    ----------
    node_limit:
        Maximum number of relaxations to solve before giving up and
        returning the incumbent.
    time_limit:
        Wall-clock budget in seconds (``None`` for unlimited).
    """

    def __init__(self, node_limit: int = 100_000, time_limit: float | None = None) -> None:
        self._node_limit = node_limit
        self._time_limit = time_limit

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, program: LinearProgram) -> ILPSolution:
        """Maximise ``program`` subject to its 0-1 integrality constraints."""
        deadline = None if self._time_limit is None else time.monotonic() + self._time_limit
        integer_indices = np.flatnonzero(program.integer_mask)

        incumbent_values: np.ndarray | None = None
        incumbent_objective = -np.inf
        nodes_explored = 0
        exhausted = True

        # A simple LIFO/priority hybrid: nodes are kept sorted by their
        # parent relaxation bound so the most promising subtree is explored
        # first (best-bound search).
        frontier: list[_Node] = [_Node(sort_key=np.inf, fixed={})]

        while frontier:
            if nodes_explored >= self._node_limit:
                exhausted = False
                break
            if deadline is not None and time.monotonic() > deadline:
                exhausted = False
                break

            frontier.sort(key=lambda node: node.sort_key, reverse=True)
            node = frontier.pop(0)

            # Bound pruning: the parent's relaxation already caps this subtree.
            if node.sort_key <= incumbent_objective + 1e-9:
                continue

            relaxation = self._solve_relaxation(program, node.fixed)
            nodes_explored += 1
            if relaxation is None:
                continue  # infeasible subtree
            values, objective = relaxation
            if objective <= incumbent_objective + 1e-9:
                continue  # cannot beat the incumbent

            fractional = self._most_fractional(values, integer_indices)
            if fractional is None:
                # Integral solution: new incumbent.
                incumbent_values = values
                incumbent_objective = objective
                continue

            for fixed_value in (1.0, 0.0):
                child_fixed = dict(node.fixed)
                child_fixed[fractional] = fixed_value
                frontier.append(_Node(sort_key=objective, fixed=child_fixed))

        if incumbent_values is None:
            raise InfeasibleLinearProgramError(
                "no feasible integral solution was found"
            )
        return ILPSolution(
            values=incumbent_values,
            objective=incumbent_objective,
            is_optimal=exhausted,
            nodes_explored=nodes_explored,
        )

    # ------------------------------------------------------------------
    # Relaxations
    # ------------------------------------------------------------------
    def _solve_relaxation(
        self, program: LinearProgram, fixed: dict[int, float]
    ) -> tuple[np.ndarray, float] | None:
        """Solve the LP relaxation with some variables fixed; None if infeasible."""
        lower = program.lower_bounds.copy()
        upper = program.upper_bounds.copy()
        for index, value in fixed.items():
            lower[index] = value
            upper[index] = value

        restricted = LinearProgram(
            objective=program.objective,
            upper_matrix=program.upper_matrix,
            upper_rhs=program.upper_rhs,
            equality_matrix=program.equality_matrix,
            equality_rhs=program.equality_rhs,
            lower_bounds=lower,
            upper_bounds=upper,
            integer_mask=program.integer_mask,
            variable_names=program.variable_names,
        )
        return self._solve_lp(restricted)

    @staticmethod
    def _solve_lp(program: LinearProgram) -> tuple[np.ndarray, float] | None:
        """HiGHS optimum ``(values, objective)`` of ``program``; None if none."""
        from scipy.optimize import linprog

        bounds = [
            (float(low), None if np.isinf(high) else float(high))
            for low, high in zip(program.lower_bounds, program.upper_bounds)
        ]
        result = linprog(
            c=-program.objective,  # linprog minimises
            A_ub=program.upper_matrix if program.upper_rhs.size else None,
            b_ub=program.upper_rhs if program.upper_rhs.size else None,
            A_eq=program.equality_matrix if program.equality_rhs.size else None,
            b_eq=program.equality_rhs if program.equality_rhs.size else None,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            return None
        return np.asarray(result.x, dtype=np.float64), float(-result.fun)

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------
    @staticmethod
    def _most_fractional(values: np.ndarray, integer_indices: np.ndarray) -> int | None:
        """Index of the binary variable farthest from integrality, or None."""
        if integer_indices.size == 0:
            return None
        fractional_parts = np.abs(values[integer_indices] - np.round(values[integer_indices]))
        worst = int(np.argmax(fractional_parts))
        if fractional_parts[worst] <= _INTEGRALITY_TOLERANCE:
            return None
        return int(integer_indices[worst])
