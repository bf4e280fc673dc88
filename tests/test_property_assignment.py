"""Property-based tests for the linear-assignment substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from scipy.optimize import linear_sum_assignment

from repro.assignment.hungarian import solve_assignment, solve_max_assignment
from repro.assignment.transportation import solve_capacitated_assignment
from tests.oracles.flow import flow_capacitated_assignment


def cost_matrices(max_rows=7, max_cols=7):
    shapes = st.tuples(
        st.integers(min_value=1, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    )
    return shapes.flatmap(
        lambda shape: npst.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.floats(min_value=0.0, max_value=100.0,
                               allow_nan=False, allow_infinity=False),
        )
    )


@settings(max_examples=80, deadline=None)
@given(cost_matrices())
def test_hungarian_matches_scipy_optimum(cost):
    ours = solve_assignment(cost)
    rows, cols = linear_sum_assignment(cost)
    assert np.isclose(ours.total_cost, cost[rows, cols].sum(), atol=1e-8)


@settings(max_examples=80, deadline=None)
@given(cost_matrices())
def test_hungarian_matching_is_valid(cost):
    result = solve_assignment(cost)
    assigned_cols = [col for col in result.row_to_col if col >= 0]
    # Every column used at most once, every row at most one column.
    assert len(assigned_cols) == len(set(assigned_cols))
    assert len(assigned_cols) == min(cost.shape)
    # The reported cost equals the sum of the selected cells.
    recomputed = sum(cost[row, col] for row, col in enumerate(result.row_to_col) if col >= 0)
    assert np.isclose(result.total_cost, recomputed)


@settings(max_examples=80, deadline=None)
@given(cost_matrices())
def test_max_assignment_is_negated_min_assignment(profit):
    maximised = solve_max_assignment(profit)
    minimised = solve_assignment(-profit)
    assert np.isclose(maximised.total_cost, -minimised.total_cost, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
def test_capacitated_backends_agree_and_respect_capacities(rows, cols, capacity, seed):
    rng = np.random.default_rng(seed)
    profit = rng.random((rows, cols))
    capacities = rng.integers(0, capacity + 1, size=cols)
    if capacities.sum() < rows:
        capacities[rng.integers(0, cols)] += rows - capacities.sum()

    hungarian = solve_capacitated_assignment(profit, capacities)
    flow = flow_capacitated_assignment(profit, capacities)
    assert np.isclose(hungarian.total_profit, flow.total_profit, atol=1e-8)

    usage = np.bincount(np.array(hungarian.row_to_col), minlength=cols)
    assert np.all(usage <= capacities)
    assert len(hungarian.row_to_col) == rows
