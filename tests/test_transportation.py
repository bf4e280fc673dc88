"""Unit tests for the capacitated one-per-row assignment (Stage-WGRAP step)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment.transportation import solve_capacitated_assignment
from repro.exceptions import ConfigurationError, InfeasibleProblemError
from tests.oracles.flow import flow_capacitated_assignment


class TestValidation:
    def test_rejects_empty_matrix(self):
        with pytest.raises(ConfigurationError):
            solve_capacitated_assignment(np.zeros((0, 2)), np.array([1, 1]))

    def test_rejects_capacity_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            solve_capacitated_assignment(np.ones((2, 3)), np.array([1, 1]))

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError):
            solve_capacitated_assignment(np.ones((1, 2)), np.array([-1, 2]))

    def test_rejects_insufficient_capacity(self):
        with pytest.raises(InfeasibleProblemError):
            solve_capacitated_assignment(np.ones((3, 2)), np.array([1, 1]))

    def test_rejects_bad_forbidden_shape(self):
        with pytest.raises(ConfigurationError):
            solve_capacitated_assignment(
                np.ones((2, 2)), np.array([2, 2]), forbidden=np.zeros((1, 2), dtype=bool)
            )

    def test_rejects_fully_forbidden_row(self):
        forbidden = np.array([[True, True], [False, False]])
        with pytest.raises(InfeasibleProblemError):
            solve_capacitated_assignment(np.ones((2, 2)), np.array([2, 2]), forbidden=forbidden)


class TestOptimality:
    def test_unit_capacities_reduce_to_assignment(self):
        profit = np.array([[1.0, 5.0], [5.0, 1.0]])
        result = solve_capacitated_assignment(profit, np.array([1, 1]))
        assert result.row_to_col == (1, 0)
        assert result.total_profit == pytest.approx(10.0)

    def test_capacity_allows_column_reuse(self):
        profit = np.array([[5.0, 1.0], [5.0, 1.0], [5.0, 1.0]])
        result = solve_capacitated_assignment(profit, np.array([3, 3]))
        assert result.row_to_col == (0, 0, 0)
        assert result.total_profit == pytest.approx(15.0)

    def test_capacity_forces_spreading(self):
        profit = np.array([[5.0, 1.0], [5.0, 1.0], [5.0, 1.0]])
        result = solve_capacitated_assignment(profit, np.array([2, 2]))
        assert sorted(result.row_to_col).count(0) == 2
        assert result.total_profit == pytest.approx(11.0)

    def test_forbidden_pairs_avoided(self):
        profit = np.array([[10.0, 1.0], [10.0, 1.0]])
        forbidden = np.array([[True, False], [False, False]])
        result = solve_capacitated_assignment(profit, np.array([1, 1]), forbidden=forbidden)
        assert result.row_to_col == (1, 0)
        assert result.total_profit == pytest.approx(11.0)

    def test_as_pairs(self):
        result = solve_capacitated_assignment(np.ones((2, 1)), np.array([2]))
        assert result.as_pairs() == [(0, 0), (1, 0)]


class TestBackendsAgree:
    @pytest.mark.parametrize("shape,capacity", [((4, 3), 2), ((6, 4), 3), ((5, 5), 1)])
    def test_hungarian_and_flow_give_equal_objectives(self, shape, capacity):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        profit = rng.random(shape)
        capacities = np.full(shape[1], capacity)
        forbidden = rng.random(shape) < 0.1
        forbidden[forbidden.all(axis=1)] = False  # keep every row assignable
        hungarian = solve_capacitated_assignment(profit, capacities, forbidden=forbidden)
        flow = flow_capacitated_assignment(profit, capacities, forbidden=forbidden)
        assert hungarian.total_profit == pytest.approx(flow.total_profit)

    def test_capacity_constraint_respected(self):
        rng = np.random.default_rng(9)
        profit = rng.random((8, 3))
        capacities = np.array([3, 3, 2])
        result = solve_capacitated_assignment(profit, capacities)
        counts = np.bincount(np.array(result.row_to_col), minlength=3)
        assert np.all(counts <= capacities)
