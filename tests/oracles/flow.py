"""A successive-shortest-path min-cost flow: the reference for the
assignment steps that ``src/`` solves with the Hungarian algorithm and
HiGHS.

The paper mentions min-cost-flow assignment (Ahuja et al.) as an
alternative to the Hungarian algorithm for SDGA's per-stage linear
assignment.  :class:`MinCostFlowSolver` implements successive shortest
paths with a Bellman-Ford (SPFA) routine, which handles real-valued and
negative edge costs directly — convenient because assignment *profits*
are encoded as negated costs.  It is pure Python, meant for the small
graphs of the test instances.

On top of it:

* :func:`flow_capacitated_assignment` — the Stage-WGRAP step of
  :func:`~repro.assignment.transportation.solve_capacitated_assignment`
  as a flow network;
* :class:`SDGAFlow` — SDGA with every stage solved by that network
  (the stage solver is swapped with ``unittest.mock.patch.object``, the
  idiom of :func:`~tests.oracles.inputs.object_refill`);
* :class:`PairwiseILPFlow` — the pairwise ILP with its LP seam replaced
  by the equivalent flow;
* :func:`has_feasible_assignment` — whether a WGRAP instance admits any
  assignment at all, decided as a max flow.

They match the fast paths on the objective value, not on how ties are
broken.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any
from unittest import mock

import numpy as np

from repro.assignment.transportation import CapacitatedAssignmentResult
from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra import sdga
from repro.cra.ilp import PairwiseILPSolver
from repro.exceptions import ConfigurationError, InfeasibleProblemError, SolverError

__all__ = [
    "Edge",
    "FlowResult",
    "MinCostFlowSolver",
    "PairwiseILPFlow",
    "SDGAFlow",
    "flow_capacitated_assignment",
    "has_feasible_assignment",
]


@dataclass
class Edge:
    """A directed edge in the flow network (internal representation)."""

    target: int
    capacity: float
    cost: float
    flow: float = 0.0
    #: index of the reverse edge in the adjacency list of ``target``
    reverse_index: int = -1

    @property
    def residual_capacity(self) -> float:
        """Remaining capacity on this edge."""
        return self.capacity - self.flow


@dataclass(frozen=True)
class FlowResult:
    """Outcome of a min-cost-flow computation."""

    flow_value: float
    total_cost: float
    #: flow on every *forward* edge, keyed by the handle returned by add_edge
    edge_flows: dict[int, float] = field(default_factory=dict)


class MinCostFlowSolver:
    """Build a directed network and push min-cost flow through it.

    Typical use for an assignment-shaped problem::

        solver = MinCostFlowSolver(num_nodes)
        handle = solver.add_edge(source, reviewer, capacity=workload, cost=0.0)
        ...
        result = solver.solve(source, sink, required_flow)

    Edge handles returned by :meth:`add_edge` identify forward edges in
    :attr:`FlowResult.edge_flows`.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ConfigurationError("a flow network needs at least one node")
        self._num_nodes = num_nodes
        self._graph: list[list[Edge]] = [[] for _ in range(num_nodes)]
        #: handle -> (node, index in adjacency list) for forward edges
        self._handles: list[tuple[int, int]] = []

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network."""
        return self._num_nodes

    def add_node(self) -> int:
        """Add a node and return its index."""
        self._graph.append([])
        self._num_nodes += 1
        return self._num_nodes - 1

    def add_edge(self, source: int, target: int, capacity: float, cost: float) -> int:
        """Add a directed edge and return its handle.

        Raises
        ------
        ConfigurationError
            If an endpoint is out of range or the capacity is negative.
        """
        for node in (source, target):
            if not 0 <= node < self._num_nodes:
                raise ConfigurationError(f"node {node} out of range")
        if capacity < 0:
            raise ConfigurationError("edge capacity must be non-negative")
        forward = Edge(target=target, capacity=float(capacity), cost=float(cost))
        backward = Edge(target=source, capacity=0.0, cost=-float(cost))
        forward.reverse_index = len(self._graph[target])
        backward.reverse_index = len(self._graph[source])
        self._graph[source].append(forward)
        self._graph[target].append(backward)
        handle = len(self._handles)
        self._handles.append((source, len(self._graph[source]) - 1))
        return handle

    def solve(
        self,
        source: int,
        sink: int,
        required_flow: float,
        allow_partial: bool = False,
    ) -> FlowResult:
        """Send ``required_flow`` units from ``source`` to ``sink`` at min cost.

        Parameters
        ----------
        source, sink:
            Endpoints of the flow.
        required_flow:
            Amount of flow to push.
        allow_partial:
            When false (the default) a :class:`SolverError` is raised if the
            network cannot carry the requested amount; when true the maximum
            feasible amount (at minimum cost) is returned instead.
        """
        if source == sink:
            raise ConfigurationError("source and sink must differ")
        remaining = float(required_flow)
        total_cost = 0.0
        pushed = 0.0

        while remaining > 1e-12:
            distances, parent_edge = self._shortest_paths(source)
            if distances[sink] == float("inf"):
                if allow_partial:
                    break
                raise SolverError(
                    f"network cannot carry the requested flow: pushed {pushed} "
                    f"of {required_flow}"
                )
            # Find the bottleneck along the augmenting path.
            bottleneck = remaining
            node = sink
            while node != source:
                from_node, edge_index = parent_edge[node]
                edge = self._graph[from_node][edge_index]
                bottleneck = min(bottleneck, edge.residual_capacity)
                node = from_node
            # Apply the augmentation.
            node = sink
            while node != source:
                from_node, edge_index = parent_edge[node]
                edge = self._graph[from_node][edge_index]
                edge.flow += bottleneck
                self._graph[node][edge.reverse_index].flow -= bottleneck
                node = from_node
            total_cost += bottleneck * distances[sink]
            pushed += bottleneck
            remaining -= bottleneck

        edge_flows = {
            handle: self._graph[node][index].flow
            for handle, (node, index) in enumerate(self._handles)
        }
        return FlowResult(flow_value=pushed, total_cost=total_cost, edge_flows=edge_flows)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _shortest_paths(
        self, source: int
    ) -> tuple[list[float], list[tuple[int, int]]]:
        """SPFA shortest paths over residual edges (handles negative costs)."""
        infinity = float("inf")
        distances = [infinity] * self._num_nodes
        parent_edge: list[tuple[int, int]] = [(-1, -1)] * self._num_nodes
        in_queue = [False] * self._num_nodes
        distances[source] = 0.0
        queue: deque[int] = deque([source])
        in_queue[source] = True

        while queue:
            node = queue.popleft()
            in_queue[node] = False
            node_distance = distances[node]
            for edge_index, edge in enumerate(self._graph[node]):
                if edge.residual_capacity <= 1e-12:
                    continue
                candidate = node_distance + edge.cost
                if candidate < distances[edge.target] - 1e-12:
                    distances[edge.target] = candidate
                    parent_edge[edge.target] = (node, edge_index)
                    if not in_queue[edge.target]:
                        queue.append(edge.target)
                        in_queue[edge.target] = True
        return distances, parent_edge


def flow_capacitated_assignment(
    profit_matrix: np.ndarray,
    column_capacities: np.ndarray,
    forbidden: np.ndarray | None = None,
) -> CapacitatedAssignmentResult:
    """Every row to one column under per-column capacities, as a min-cost flow."""
    profit = np.asarray(profit_matrix, dtype=np.float64)
    capacities = np.asarray(column_capacities, dtype=np.int64)
    if forbidden is not None:
        forbidden = np.asarray(forbidden, dtype=bool)
    num_rows, num_cols = profit.shape
    source = 0
    row_offset = 1
    col_offset = 1 + num_rows
    sink = 1 + num_rows + num_cols
    solver = MinCostFlowSolver(num_nodes=sink + 1)

    for row in range(num_rows):
        solver.add_edge(source, row_offset + row, capacity=1.0, cost=0.0)

    pair_handles: dict[int, tuple[int, int]] = {}
    for row in range(num_rows):
        for col in range(num_cols):
            if forbidden is not None and forbidden[row, col]:
                continue
            handle = solver.add_edge(
                row_offset + row,
                col_offset + col,
                capacity=1.0,
                cost=-float(profit[row, col]),
            )
            pair_handles[handle] = (row, col)

    for col in range(num_cols):
        solver.add_edge(
            col_offset + col, sink, capacity=float(capacities[col]), cost=0.0
        )

    try:
        flow = solver.solve(source, sink, required_flow=float(num_rows))
    except SolverError as error:
        raise InfeasibleProblemError(
            "no feasible assignment exists under the given capacities and conflicts"
        ) from error

    row_to_col = np.full(num_rows, -1, dtype=np.int64)
    total_profit = 0.0
    for handle, (row, col) in pair_handles.items():
        if flow.edge_flows.get(handle, 0.0) > 0.5:
            row_to_col[row] = col
            total_profit += float(profit[row, col])
    if np.any(row_to_col < 0):
        raise SolverError("the flow network left a row unassigned")
    return CapacitatedAssignmentResult(
        row_to_col=tuple(int(col) for col in row_to_col), total_profit=total_profit
    )


def has_feasible_assignment(problem: WGRAPProblem) -> bool:
    """Whether some assignment meets every group size, workload and conflict.

    :class:`~repro.core.problem.WGRAPProblem` validates only necessary
    counts (total capacity, enough non-conflicted reviewers per paper);
    with capacity exactly equal to demand, conflicts can still leave no
    assignment at all.  The network is :class:`PairwiseILPFlow`'s without
    costs: the instance is feasible exactly when its max flow fills every
    paper's ``delta_p`` slots.
    """
    num_papers, num_reviewers = problem.num_papers, problem.num_reviewers
    source = 0
    paper_offset = 1
    reviewer_offset = 1 + num_papers
    sink = 1 + num_papers + num_reviewers
    solver = MinCostFlowSolver(num_nodes=sink + 1)
    for paper_idx, paper_id in enumerate(problem.paper_ids):
        solver.add_edge(
            source, paper_offset + paper_idx, capacity=float(problem.group_size), cost=0.0
        )
        for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
            if problem.is_feasible_pair(reviewer_id, paper_id):
                solver.add_edge(
                    paper_offset + paper_idx,
                    reviewer_offset + reviewer_idx,
                    capacity=1.0,
                    cost=0.0,
                )
    for reviewer_idx in range(num_reviewers):
        solver.add_edge(
            reviewer_offset + reviewer_idx,
            sink,
            capacity=float(problem.reviewer_workload),
            cost=0.0,
        )
    demand = num_papers * problem.group_size
    flow = solver.solve(source, sink, required_flow=float(demand), allow_partial=True)
    return flow.flow_value > demand - 0.5


class SDGAFlow(sdga.StageDeepeningGreedySolver):
    """SDGA with every Stage-WGRAP step solved as a min-cost flow."""

    def _solve(self, problem):
        with mock.patch.object(
            sdga, "solve_capacitated_assignment", flow_capacitated_assignment
        ):
            return super()._solve(problem)


class PairwiseILPFlow(PairwiseILPSolver):
    """The pairwise ILP with its LP solved as the equivalent min-cost flow.

    The constraint matrix is totally unimodular, so the flow's integral
    optimum is the LP's: papers draw ``delta_p`` units from the source,
    reviewers pass at most ``delta_r`` to the sink, and each feasible pair
    is a unit edge costing the negated pair score.
    """

    def _solve_lp(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        scores = problem.pair_score_matrix()
        num_reviewers, num_papers = scores.shape
        source = 0
        paper_offset = 1
        reviewer_offset = 1 + num_papers
        sink = 1 + num_papers + num_reviewers
        solver = MinCostFlowSolver(num_nodes=sink + 1)

        for paper_idx in range(num_papers):
            solver.add_edge(
                source, paper_offset + paper_idx, capacity=float(problem.group_size), cost=0.0
            )
        pair_handles: dict[int, tuple[int, int]] = {}
        for paper_idx, paper_id in enumerate(problem.paper_ids):
            for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
                if not problem.is_feasible_pair(reviewer_id, paper_id):
                    continue
                handle = solver.add_edge(
                    paper_offset + paper_idx,
                    reviewer_offset + reviewer_idx,
                    capacity=1.0,
                    cost=-float(scores[reviewer_idx, paper_idx]),
                )
                pair_handles[handle] = (reviewer_idx, paper_idx)
        for reviewer_idx in range(num_reviewers):
            solver.add_edge(
                reviewer_offset + reviewer_idx,
                sink,
                capacity=float(problem.reviewer_workload),
                cost=0.0,
            )

        flow = solver.solve(
            source, sink, required_flow=float(num_papers * problem.group_size)
        )
        assignment = Assignment()
        for handle, (reviewer_idx, paper_idx) in pair_handles.items():
            if flow.edge_flows.get(handle, 0.0) > 0.5:
                assignment.add(
                    problem.reviewer_ids[reviewer_idx], problem.paper_ids[paper_idx]
                )
        return assignment, {"flow_cost": flow.total_cost}
