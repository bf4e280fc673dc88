"""A small declarative builder for linear and 0-1 integer programs.

The ILP baselines of the paper (Section 3 for JRA, Section 5.2 for CRA)
need a way to phrase "maximise a linear objective subject to linear
constraints, some variables binary".  :class:`ModelBuilder` collects
variables, constraints and an objective, and produces a
:class:`LinearProgram` value object that the branch-and-bound driver of
:mod:`repro.optimize.branch_and_bound` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["Sense", "LinearProgram", "ModelBuilder"]


class Sense(str, Enum):
    """Direction of a linear constraint."""

    LESS_EQUAL = "<="
    GREATER_EQUAL = ">="
    EQUAL = "=="


@dataclass(frozen=True)
class LinearProgram:
    """An immutable linear (or 0-1 mixed-integer) program.

    The convention is *maximisation*:

    .. math:: \\max c^T x \\;\\text{s.t.}\\; A_{ub} x \\le b_{ub},\\;
              A_{eq} x = b_{eq},\\; l \\le x \\le u

    ``integer_mask[j]`` marks variable ``j`` as 0-1 integer (its bounds must
    then lie inside ``[0, 1]``).
    """

    objective: np.ndarray
    upper_matrix: np.ndarray
    upper_rhs: np.ndarray
    equality_matrix: np.ndarray
    equality_rhs: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    integer_mask: np.ndarray
    variable_names: tuple[str, ...] = ()

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return int(self.objective.size)

    @property
    def num_constraints(self) -> int:
        """Total number of constraints (inequalities plus equalities)."""
        return int(self.upper_rhs.size + self.equality_rhs.size)

    def objective_value(self, solution: np.ndarray) -> float:
        """Evaluate the objective at a candidate solution."""
        return float(np.dot(self.objective, np.asarray(solution, dtype=np.float64)))

    def is_feasible(self, solution: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Check a candidate solution against every constraint and bound."""
        x = np.asarray(solution, dtype=np.float64)
        if x.shape != (self.num_variables,):
            return False
        if np.any(x < self.lower_bounds - tolerance):
            return False
        if np.any(x > self.upper_bounds + tolerance):
            return False
        if self.upper_rhs.size and np.any(self.upper_matrix @ x > self.upper_rhs + tolerance):
            return False
        if self.equality_rhs.size and np.any(
            np.abs(self.equality_matrix @ x - self.equality_rhs) > tolerance
        ):
            return False
        if np.any(np.abs(x[self.integer_mask] - np.round(x[self.integer_mask])) > tolerance):
            return False
        return True


@dataclass
class _Constraint:
    coefficients: dict[int, float]
    sense: Sense
    rhs: float


class ModelBuilder:
    """Incrementally build a :class:`LinearProgram`.

    Example
    -------
    >>> builder = ModelBuilder()
    >>> x = builder.add_variable("x", lower=0.0, upper=1.0, integer=True)
    >>> y = builder.add_variable("y", lower=0.0)
    >>> builder.add_constraint({x: 1.0, y: 2.0}, Sense.LESS_EQUAL, 3.0)
    >>> builder.set_objective({x: 5.0, y: 1.0})
    >>> program = builder.build()
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._integer: list[bool] = []
        self._constraints: list[_Constraint] = []
        self._objective: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str | None = None,
        lower: float = 0.0,
        upper: float = float("inf"),
        integer: bool = False,
    ) -> int:
        """Add a variable and return its index."""
        if upper < lower:
            raise ConfigurationError(
                f"variable upper bound {upper} is below lower bound {lower}"
            )
        if integer and (lower < -1e-9 or upper > 1.0 + 1e-9):
            raise ConfigurationError(
                "integer variables must be 0-1 (bounds within [0, 1])"
            )
        index = len(self._names)
        self._names.append(name or f"x{index}")
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._integer.append(bool(integer))
        return index

    def add_binary_variable(self, name: str | None = None) -> int:
        """Add a 0-1 variable and return its index."""
        return self.add_variable(name=name, lower=0.0, upper=1.0, integer=True)

    @property
    def num_variables(self) -> int:
        """Number of variables added so far."""
        return len(self._names)

    # ------------------------------------------------------------------
    # Constraints and objective
    # ------------------------------------------------------------------
    def add_constraint(
        self, coefficients: dict[int, float], sense: Sense | str, rhs: float
    ) -> None:
        """Add a linear constraint ``sum(coefficients) <sense> rhs``."""
        sense = Sense(sense)
        for index in coefficients:
            self._check_index(index)
        self._constraints.append(
            _Constraint(coefficients=dict(coefficients), sense=sense, rhs=float(rhs))
        )

    def set_objective(self, coefficients: dict[int, float]) -> None:
        """Set the (maximisation) objective coefficients."""
        for index in coefficients:
            self._check_index(index)
        self._objective = dict(coefficients)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> LinearProgram:
        """Produce the immutable :class:`LinearProgram`."""
        num_vars = self.num_variables
        if num_vars == 0:
            raise ConfigurationError("a model needs at least one variable")

        objective = np.zeros(num_vars, dtype=np.float64)
        for index, value in self._objective.items():
            objective[index] = value

        upper_rows: list[np.ndarray] = []
        upper_rhs: list[float] = []
        equality_rows: list[np.ndarray] = []
        equality_rhs: list[float] = []
        for constraint in self._constraints:
            row = np.zeros(num_vars, dtype=np.float64)
            for index, value in constraint.coefficients.items():
                row[index] = value
            if constraint.sense is Sense.LESS_EQUAL:
                upper_rows.append(row)
                upper_rhs.append(constraint.rhs)
            elif constraint.sense is Sense.GREATER_EQUAL:
                upper_rows.append(-row)
                upper_rhs.append(-constraint.rhs)
            else:
                equality_rows.append(row)
                equality_rhs.append(constraint.rhs)

        def _stack(rows: list[np.ndarray]) -> np.ndarray:
            if rows:
                return np.vstack(rows)
            return np.zeros((0, num_vars), dtype=np.float64)

        return LinearProgram(
            objective=objective,
            upper_matrix=_stack(upper_rows),
            upper_rhs=np.asarray(upper_rhs, dtype=np.float64),
            equality_matrix=_stack(equality_rows),
            equality_rhs=np.asarray(equality_rhs, dtype=np.float64),
            lower_bounds=np.asarray(self._lower, dtype=np.float64),
            upper_bounds=np.asarray(self._upper, dtype=np.float64),
            integer_mask=np.asarray(self._integer, dtype=bool),
            variable_names=tuple(self._names),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._names):
            raise ConfigurationError(f"unknown variable index {index}")
