"""Unit tests for the successive-shortest-path min-cost-flow solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment.hungarian import solve_assignment
from repro.exceptions import ConfigurationError, SolverError
from tests.oracles.flow import MinCostFlowSolver


class TestConstruction:
    def test_requires_nodes(self):
        with pytest.raises(ConfigurationError):
            MinCostFlowSolver(0)

    def test_add_node(self):
        solver = MinCostFlowSolver(2)
        new_node = solver.add_node()
        assert new_node == 2
        assert solver.num_nodes == 3

    def test_add_edge_validation(self):
        solver = MinCostFlowSolver(2)
        with pytest.raises(ConfigurationError):
            solver.add_edge(0, 5, capacity=1.0, cost=0.0)
        with pytest.raises(ConfigurationError):
            solver.add_edge(0, 1, capacity=-1.0, cost=0.0)

    def test_source_equals_sink_rejected(self):
        solver = MinCostFlowSolver(2)
        solver.add_edge(0, 1, capacity=1.0, cost=1.0)
        with pytest.raises(ConfigurationError):
            solver.solve(0, 0, required_flow=1.0)


class TestSimpleNetworks:
    def test_single_path(self):
        solver = MinCostFlowSolver(3)
        solver.add_edge(0, 1, capacity=2.0, cost=1.0)
        solver.add_edge(1, 2, capacity=2.0, cost=2.0)
        result = solver.solve(0, 2, required_flow=2.0)
        assert result.flow_value == pytest.approx(2.0)
        assert result.total_cost == pytest.approx(6.0)

    def test_prefers_cheaper_path(self):
        solver = MinCostFlowSolver(4)
        cheap = solver.add_edge(0, 1, capacity=1.0, cost=1.0)
        solver.add_edge(1, 3, capacity=1.0, cost=1.0)
        expensive = solver.add_edge(0, 2, capacity=1.0, cost=10.0)
        solver.add_edge(2, 3, capacity=1.0, cost=10.0)
        result = solver.solve(0, 3, required_flow=1.0)
        assert result.total_cost == pytest.approx(2.0)
        assert result.edge_flows[cheap] == pytest.approx(1.0)
        assert result.edge_flows[expensive] == pytest.approx(0.0)

    def test_splits_across_paths_when_needed(self):
        solver = MinCostFlowSolver(4)
        solver.add_edge(0, 1, capacity=1.0, cost=1.0)
        solver.add_edge(1, 3, capacity=1.0, cost=1.0)
        solver.add_edge(0, 2, capacity=1.0, cost=3.0)
        solver.add_edge(2, 3, capacity=1.0, cost=3.0)
        result = solver.solve(0, 3, required_flow=2.0)
        assert result.total_cost == pytest.approx(2.0 + 6.0)

    def test_negative_costs_are_supported(self):
        solver = MinCostFlowSolver(3)
        solver.add_edge(0, 1, capacity=1.0, cost=-5.0)
        solver.add_edge(1, 2, capacity=1.0, cost=1.0)
        result = solver.solve(0, 2, required_flow=1.0)
        assert result.total_cost == pytest.approx(-4.0)

    def test_infeasible_flow_raises(self):
        solver = MinCostFlowSolver(3)
        solver.add_edge(0, 1, capacity=1.0, cost=0.0)
        solver.add_edge(1, 2, capacity=1.0, cost=0.0)
        with pytest.raises(SolverError):
            solver.solve(0, 2, required_flow=2.0)

    def test_allow_partial_returns_max_flow(self):
        solver = MinCostFlowSolver(3)
        solver.add_edge(0, 1, capacity=1.0, cost=0.0)
        solver.add_edge(1, 2, capacity=1.0, cost=0.0)
        result = solver.solve(0, 2, required_flow=5.0, allow_partial=True)
        assert result.flow_value == pytest.approx(1.0)


class TestAgainstHungarian:
    def test_assignment_via_flow_matches_hungarian(self):
        """A unit-capacity bipartite min-cost flow is a linear assignment."""
        rng = np.random.default_rng(5)
        for size in (3, 4, 6):
            cost = rng.random((size, size)) * 4.0
            hungarian = solve_assignment(cost)

            source, sink = 0, 2 * size + 1
            solver = MinCostFlowSolver(2 * size + 2)
            for row in range(size):
                solver.add_edge(source, 1 + row, capacity=1.0, cost=0.0)
                for col in range(size):
                    solver.add_edge(
                        1 + row, 1 + size + col, capacity=1.0, cost=float(cost[row, col])
                    )
            for col in range(size):
                solver.add_edge(1 + size + col, sink, capacity=1.0, cost=0.0)
            flow = solver.solve(source, sink, required_flow=float(size))
            assert flow.total_cost == pytest.approx(hungarian.total_cost)
