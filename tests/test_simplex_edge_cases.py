"""Additional edge-case tests for the simplex solver and the ILP driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InfeasibleLinearProgramError
from repro.optimize.branch_and_bound import BranchAndBoundSolver
from repro.optimize.model import ModelBuilder, Sense
from tests.oracles.simplex import SimplexBranchAndBound, solve_linear_program


class TestDegenerateAndRedundantPrograms:
    def test_redundant_constraints_do_not_confuse_the_solver(self):
        builder = ModelBuilder()
        x = builder.add_variable("x", upper=4.0)
        y = builder.add_variable("y", upper=4.0)
        builder.add_constraint({x: 1.0, y: 1.0}, Sense.LESS_EQUAL, 5.0)
        builder.add_constraint({x: 2.0, y: 2.0}, Sense.LESS_EQUAL, 10.0)  # same, scaled
        builder.add_constraint({x: 1.0, y: 1.0}, Sense.LESS_EQUAL, 7.0)   # slack
        builder.set_objective({x: 1.0, y: 1.0})
        solution = solve_linear_program(builder.build())
        assert solution.objective == pytest.approx(5.0)

    def test_degenerate_vertex(self):
        # Multiple constraints meet at the optimum (0, 2): Bland's rule must
        # not cycle.
        builder = ModelBuilder()
        x = builder.add_variable("x")
        y = builder.add_variable("y")
        builder.add_constraint({x: 1.0, y: 1.0}, Sense.LESS_EQUAL, 2.0)
        builder.add_constraint({x: 2.0, y: 1.0}, Sense.LESS_EQUAL, 2.0)
        builder.add_constraint({y: 1.0}, Sense.LESS_EQUAL, 2.0)
        builder.set_objective({y: 3.0, x: 1.0})
        solution = solve_linear_program(builder.build())
        assert solution.objective == pytest.approx(6.0)
        assert solution.values[1] == pytest.approx(2.0)

    def test_equality_only_program(self):
        builder = ModelBuilder()
        x = builder.add_variable("x")
        y = builder.add_variable("y")
        builder.add_constraint({x: 1.0, y: 1.0}, Sense.EQUAL, 4.0)
        builder.add_constraint({x: 1.0, y: -1.0}, Sense.EQUAL, 2.0)
        builder.set_objective({x: 1.0, y: 2.0})
        solution = solve_linear_program(builder.build())
        assert solution.values == pytest.approx(np.array([3.0, 1.0]))
        assert solution.objective == pytest.approx(5.0)

    def test_contradictory_equalities_are_infeasible(self):
        builder = ModelBuilder()
        x = builder.add_variable("x")
        builder.add_constraint({x: 1.0}, Sense.EQUAL, 1.0)
        builder.add_constraint({x: 1.0}, Sense.EQUAL, 2.0)
        builder.set_objective({x: 1.0})
        with pytest.raises(InfeasibleLinearProgramError):
            solve_linear_program(builder.build())

    def test_zero_objective(self):
        builder = ModelBuilder()
        x = builder.add_variable("x", upper=1.0)
        builder.add_constraint({x: 1.0}, Sense.LESS_EQUAL, 1.0)
        builder.set_objective({})
        solution = solve_linear_program(builder.build())
        assert solution.objective == pytest.approx(0.0)


class TestBranchAndBoundEdgeCases:
    def test_all_variables_fixed_by_constraints(self):
        builder = ModelBuilder()
        x = builder.add_binary_variable("x")
        y = builder.add_binary_variable("y")
        builder.add_constraint({x: 1.0}, Sense.EQUAL, 1.0)
        builder.add_constraint({y: 1.0}, Sense.EQUAL, 0.0)
        builder.set_objective({x: 2.0, y: 5.0})
        solution = SimplexBranchAndBound().solve(builder.build())
        assert solution.objective == pytest.approx(2.0)
        assert solution.values == pytest.approx(np.array([1.0, 0.0]))

    def test_equality_cardinality_constraint(self):
        # Pick exactly two of four items: a miniature of the JRA group-size
        # constraint.
        builder = ModelBuilder()
        items = [builder.add_binary_variable(f"x{i}") for i in range(4)]
        builder.add_constraint({i: 1.0 for i in items}, Sense.EQUAL, 2.0)
        builder.set_objective({items[0]: 1.0, items[1]: 5.0, items[2]: 3.0, items[3]: 4.0})
        solution = BranchAndBoundSolver().solve(builder.build())
        assert solution.objective == pytest.approx(9.0)
        chosen = {index for index, value in enumerate(solution.values) if value > 0.5}
        assert chosen == {1, 3}

    def test_simplex_and_highs_backends_agree_on_random_knapsacks(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            values = rng.integers(1, 15, size=6)
            weights = rng.integers(1, 6, size=6)
            capacity = float(weights.sum()) * 0.4
            builder = ModelBuilder()
            items = [builder.add_binary_variable(f"x{i}") for i in range(6)]
            builder.add_constraint(
                {item: float(weights[i]) for i, item in enumerate(items)},
                Sense.LESS_EQUAL,
                capacity,
            )
            builder.set_objective(
                {item: float(values[i]) for i, item in enumerate(items)}
            )
            program = builder.build()
            simplex = SimplexBranchAndBound().solve(program)
            highs = BranchAndBoundSolver().solve(program)
            assert simplex.objective == pytest.approx(highs.objective)
