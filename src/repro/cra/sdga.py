"""Stage Deepening Greedy Algorithm (SDGA) — Section 4.2, Algorithm 2.

SDGA splits the conference assignment into exactly ``delta_p`` stages.  At
every stage, *each paper receives exactly one additional reviewer* and each
reviewer takes at most ``ceil(delta_r / delta_p)`` new papers; the stage is
therefore a capacitated linear-assignment problem (Stage-WGRAP,
Definition 9) whose profit for pair ``(r, p)`` is the marginal coverage
gain of adding ``r`` to the group that ``p`` accumulated in earlier stages.

Solving every stage optimally yields the paper's approximation guarantee:
``1 - (1 - 1/delta_p)^delta_p >= 1 - 1/e`` when ``delta_p`` divides
``delta_r`` (Theorem 1) and at least ``1/2`` otherwise (Theorem 2) — a
substantial improvement over the 1/3 guarantee of the pair-greedy baseline.

The per-stage assignment can be solved by either the Hungarian backend
(default, dense) or the min-cost-flow backend; both are exact, so the
choice does not affect the result, only the running time (see the backend
ablation benchmark).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.assignment.transportation import solve_capacitated_assignment
from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRASolver
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["StageDeepeningGreedySolver"]


class StageDeepeningGreedySolver(CRASolver):
    """The paper's SDGA: ``delta_p`` optimal one-reviewer-per-paper stages.

    Parameters
    ----------
    backend:
        ``"hungarian"`` (default) or ``"flow"`` — which exact assignment
        solver handles each stage.
    """

    name = "SDGA"

    def __init__(self, backend: str = "hungarian") -> None:
        self._backend = backend

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        assignment = Assignment()
        stage_gains: list[float] = []
        for stage in range(problem.group_size):
            with TRACER.span("sdga.stage", stage=stage) as stage_span:
                gain = self._run_stage(problem, assignment)
                stage_span.set(gain=round(gain, 6))
            stage_gains.append(gain)
        return assignment, {
            "stages": problem.group_size,
            "stage_gains": stage_gains,
            "backend": self._backend,
        }

    # ------------------------------------------------------------------
    # One Stage-WGRAP step
    # ------------------------------------------------------------------
    def _run_stage(self, problem: WGRAPProblem, assignment: Assignment) -> float:
        """Assign one more reviewer to every paper, in place; returns the gain."""
        gains, forbidden, capacities = self._stage_inputs(problem, assignment)
        result = solve_capacitated_assignment(
            gains, capacities, forbidden=forbidden, backend=self._backend
        )
        for paper_idx, reviewer_idx in enumerate(result.row_to_col):
            assignment.add(
                problem.reviewer_ids[reviewer_idx], problem.paper_ids[paper_idx]
            )
        return float(result.total_profit)

    @staticmethod
    def _stage_inputs(
        problem: WGRAPProblem, assignment: Assignment
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build the per-stage gain matrix, forbidden mask and capacities.

        * Gains are marginal coverage gains relative to the groups formed in
          earlier stages (Equation 5), from one batched
          :meth:`~repro.core.dense.DenseProblem.gain_matrix` kernel.  The
          first stage (empty groups, where the gain of a reviewer *is*
          their pair score) is served straight from the shared — and,
          across mutations, delta-maintained — pair-score matrix, so a
          freshly mutated problem starts its first stage without any
          scoring work (bitwise-equal shortcut, see
          :meth:`~repro.core.dense.DenseProblem.stage_inputs`).
        * Forbidden pairs are conflicts of interest (the compiled
          feasibility mask) and reviewers already in the paper's group.
        * Per-reviewer capacity is the stage workload
          ``ceil(delta_r / delta_p)``, additionally clipped by the remaining
          global workload so the general (non-integral) case never exceeds
          ``delta_r`` in total; when the clip leaves too little headroom for
          one reviewer per paper (possible in the non-integral case's final
          stage), the global remainder is the binding constraint
          (Section 4.3.2) and is used instead.
        """
        return problem.dense_view().stage_inputs(assignment, stage_capped=True)
