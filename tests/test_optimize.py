"""Unit tests for the LP/ILP substrate (model builder, simplex, branch & bound)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    InfeasibleLinearProgramError,
    UnboundedProblemError,
)
from repro.optimize.branch_and_bound import BranchAndBoundSolver
from repro.optimize.model import LinearProgram, ModelBuilder, Sense
from tests.oracles.simplex import SimplexBranchAndBound, solve_linear_program


def _knapsack_program(values, weights, capacity):
    builder = ModelBuilder()
    items = [builder.add_binary_variable(f"item{i}") for i in range(len(values))]
    builder.add_constraint(
        {item: float(weights[i]) for i, item in enumerate(items)},
        Sense.LESS_EQUAL,
        float(capacity),
    )
    builder.set_objective({item: float(values[i]) for i, item in enumerate(items)})
    return builder.build(), items


class TestModelBuilder:
    def test_variable_bounds_validation(self):
        builder = ModelBuilder()
        with pytest.raises(ConfigurationError):
            builder.add_variable(lower=2.0, upper=1.0)
        with pytest.raises(ConfigurationError):
            builder.add_variable(lower=0.0, upper=5.0, integer=True)

    def test_constraint_with_unknown_variable(self):
        builder = ModelBuilder()
        builder.add_variable()
        with pytest.raises(ConfigurationError):
            builder.add_constraint({3: 1.0}, Sense.LESS_EQUAL, 1.0)

    def test_build_requires_variables(self):
        with pytest.raises(ConfigurationError):
            ModelBuilder().build()

    def test_greater_equal_converted_to_less_equal(self):
        builder = ModelBuilder()
        x = builder.add_variable("x")
        builder.add_constraint({x: 1.0}, ">=", 2.0)
        builder.set_objective({x: -1.0})
        program = builder.build()
        assert program.upper_matrix[0, 0] == -1.0
        assert program.upper_rhs[0] == -2.0

    def test_program_feasibility_check(self):
        program, _ = _knapsack_program([1, 2], [1, 1], 1)
        assert program.is_feasible(np.array([1.0, 0.0]))
        assert not program.is_feasible(np.array([1.0, 1.0]))  # capacity violated
        assert not program.is_feasible(np.array([0.5, 0.0]))  # integrality violated
        assert not program.is_feasible(np.array([0.0]))  # wrong shape
        assert program.objective_value(np.array([0.0, 1.0])) == pytest.approx(2.0)
        assert program.num_variables == 2
        assert program.num_constraints == 1


class TestSimplex:
    def test_simple_maximisation(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2 -> optimum 10 at (2, 2)
        builder = ModelBuilder()
        x = builder.add_variable("x")
        y = builder.add_variable("y")
        builder.add_constraint({x: 1.0, y: 1.0}, Sense.LESS_EQUAL, 4.0)
        builder.add_constraint({x: 1.0}, Sense.LESS_EQUAL, 2.0)
        builder.set_objective({x: 3.0, y: 2.0})
        solution = solve_linear_program(builder.build())
        assert solution.objective == pytest.approx(10.0)
        assert solution.values == pytest.approx(np.array([2.0, 2.0]))

    def test_equality_constraints(self):
        # max x + y s.t. x + y == 3, x <= 1 -> optimum 3
        builder = ModelBuilder()
        x = builder.add_variable("x", upper=1.0)
        y = builder.add_variable("y")
        builder.add_constraint({x: 1.0, y: 1.0}, Sense.EQUAL, 3.0)
        builder.set_objective({x: 1.0, y: 1.0})
        solution = solve_linear_program(builder.build())
        assert solution.objective == pytest.approx(3.0)
        assert solution.values[0] <= 1.0 + 1e-9

    def test_infeasible_program(self):
        builder = ModelBuilder()
        x = builder.add_variable("x", upper=1.0)
        builder.add_constraint({x: 1.0}, Sense.GREATER_EQUAL, 2.0)
        builder.set_objective({x: 1.0})
        with pytest.raises(InfeasibleLinearProgramError):
            solve_linear_program(builder.build())

    def test_unbounded_program(self):
        builder = ModelBuilder()
        x = builder.add_variable("x")
        builder.set_objective({x: 1.0})
        with pytest.raises(UnboundedProblemError):
            solve_linear_program(builder.build())

    def test_variable_lower_bound_shift(self):
        # max -x s.t. x >= 2 (via bound)  -> optimum at x = 2
        builder = ModelBuilder()
        x = builder.add_variable("x", lower=2.0, upper=10.0)
        builder.set_objective({x: -1.0})
        solution = solve_linear_program(builder.build())
        assert solution.values[0] == pytest.approx(2.0)
        assert solution.objective == pytest.approx(-2.0)

    def test_matches_scipy_on_random_lps(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(4)
        for trial in range(10):
            num_vars, num_cons = 4, 3
            objective = rng.random(num_vars)
            matrix = rng.random((num_cons, num_vars))
            rhs = rng.random(num_cons) * 2.0 + 0.5
            builder = ModelBuilder()
            variables = [builder.add_variable(upper=3.0) for _ in range(num_vars)]
            for row in range(num_cons):
                builder.add_constraint(
                    {variables[col]: float(matrix[row, col]) for col in range(num_vars)},
                    Sense.LESS_EQUAL,
                    float(rhs[row]),
                )
            builder.set_objective(
                {variables[col]: float(objective[col]) for col in range(num_vars)}
            )
            ours = solve_linear_program(builder.build())
            reference = linprog(
                c=-objective,
                A_ub=matrix,
                b_ub=rhs,
                bounds=[(0.0, 3.0)] * num_vars,
                method="highs",
            )
            assert ours.objective == pytest.approx(-reference.fun, rel=1e-6, abs=1e-8)


class TestBranchAndBound:
    @pytest.mark.parametrize(
        "driver", [SimplexBranchAndBound, BranchAndBoundSolver], ids=["simplex", "highs"]
    )
    def test_knapsack_optimum(self, driver):
        program, _ = _knapsack_program(
            values=[10, 13, 18, 31, 7, 15], weights=[2, 3, 4, 6, 1, 3], capacity=10
        )
        solver = driver()
        solution = solver.solve(program)
        assert solution.objective == pytest.approx(53.0)  # items of value 31 + 15 + 7
        assert solution.is_optimal

    def test_knapsack_matches_dynamic_programming(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            values = rng.integers(1, 20, size=7).tolist()
            weights = rng.integers(1, 8, size=7).tolist()
            capacity = int(sum(weights) * 0.5)
            program, _ = _knapsack_program(values, weights, capacity)
            solution = BranchAndBoundSolver().solve(program)

            # Reference: classic dynamic program.
            best = np.zeros(capacity + 1)
            for value, weight in zip(values, weights):
                for remaining in range(capacity, weight - 1, -1):
                    best[remaining] = max(best[remaining], best[remaining - weight] + value)
            assert solution.objective == pytest.approx(float(best[capacity]))

    def test_infeasible_integer_program(self):
        builder = ModelBuilder()
        x = builder.add_binary_variable("x")
        builder.add_constraint({x: 1.0}, Sense.GREATER_EQUAL, 2.0)
        builder.set_objective({x: 1.0})
        with pytest.raises(InfeasibleLinearProgramError):
            SimplexBranchAndBound().solve(builder.build())

    def test_node_limit_returns_incumbent(self):
        program, _ = _knapsack_program(
            values=list(range(1, 13)), weights=[3] * 12, capacity=18
        )
        solution = BranchAndBoundSolver(node_limit=3).solve(program)
        assert solution.nodes_explored <= 3
        # The incumbent is feasible even if not proven optimal.
        assert program.is_feasible(solution.values)

    def test_pure_lp_handled_without_branching(self):
        builder = ModelBuilder()
        x = builder.add_variable("x", upper=2.5)
        builder.set_objective({x: 2.0})
        solution = SimplexBranchAndBound().solve(builder.build())
        assert solution.objective == pytest.approx(5.0)
        assert solution.nodes_explored == 1
