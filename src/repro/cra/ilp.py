"""Pairwise ILP baseline for CRA (the ARAP objective).

The paper's "ILP" competitor in the conference experiments optimises the
*sum of individual pair scores* — i.e. the assignment-based RAP objective
of Definition 5 — subject to the group-size and workload constraints.  It
does not look at the group as a whole, which is exactly why it can give an
interdisciplinary paper a group of narrow experts.

The constraint matrix of this formulation is the incidence matrix of a
bipartite graph (plus identity rows for the pair bounds), which is totally
unimodular; the LP relaxation therefore has an integral optimal vertex, and
we obtain the exact ILP optimum with a plain LP solve.  The LP goes to
SciPy's HiGHS simplex, the stand-in for the ``lp_solve`` library used by
the paper (imported inside the solve, so importing this module stays
SciPy-free).  The test suite cross-checks the objective value against a
min-cost-flow reference (``tests/oracles/flow.py``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRASolver
from repro.cra.repair import complete_assignment
from repro.exceptions import SolverError

__all__ = ["PairwiseILPSolver"]


class PairwiseILPSolver(CRASolver):
    """Exact optimiser of the pairwise (ARAP) objective."""

    name = "ILP"

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        assignment, stats = self._solve_lp(problem)
        if any(
            assignment.group_size(paper_id) < problem.group_size
            for paper_id in problem.paper_ids
        ):
            assignment = complete_assignment(problem, assignment)
            stats["repaired"] = True
        return assignment, stats

    # ------------------------------------------------------------------
    # HiGHS (LP with an integral optimal vertex)
    # ------------------------------------------------------------------
    def _solve_lp(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        from scipy.optimize import linprog
        from scipy.sparse import lil_matrix

        scores = problem.pair_score_matrix()  # (R, P)
        num_reviewers, num_papers = scores.shape
        num_variables = num_reviewers * num_papers

        def variable(reviewer_idx: int, paper_idx: int) -> int:
            return reviewer_idx * num_papers + paper_idx

        objective = -scores.reshape(-1)  # linprog minimises

        # Equality: every paper receives exactly delta_p reviewers.
        equality = lil_matrix((num_papers, num_variables))
        for paper_idx in range(num_papers):
            for reviewer_idx in range(num_reviewers):
                equality[paper_idx, variable(reviewer_idx, paper_idx)] = 1.0
        equality_rhs = np.full(num_papers, float(problem.group_size))

        # Inequality: every reviewer takes at most delta_r papers.
        inequality = lil_matrix((num_reviewers, num_variables))
        for reviewer_idx in range(num_reviewers):
            for paper_idx in range(num_papers):
                inequality[reviewer_idx, variable(reviewer_idx, paper_idx)] = 1.0
        inequality_rhs = np.full(num_reviewers, float(problem.reviewer_workload))

        bounds = []
        for reviewer_idx in range(num_reviewers):
            reviewer_id = problem.reviewer_ids[reviewer_idx]
            for paper_idx in range(num_papers):
                paper_id = problem.paper_ids[paper_idx]
                upper = 1.0 if problem.is_feasible_pair(reviewer_id, paper_id) else 0.0
                bounds.append((0.0, upper))

        result = linprog(
            c=objective,
            A_ub=inequality.tocsr(),
            b_ub=inequality_rhs,
            A_eq=equality.tocsr(),
            b_eq=equality_rhs,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            raise SolverError(f"HiGHS failed to solve the pairwise ILP: {result.message}")

        values = np.asarray(result.x).reshape(num_reviewers, num_papers)
        assignment = self._round_solution(problem, values)
        return assignment, {
            "lp_objective": float(-result.fun),
            "max_fractionality": float(np.abs(values - np.round(values)).max()),
        }

    @staticmethod
    def _round_solution(problem: WGRAPProblem, values: np.ndarray) -> Assignment:
        """Turn an (integral up to tolerance) LP solution into an assignment.

        Ties and tiny fractional residues are resolved by taking, for every
        paper, the ``delta_p`` feasible reviewers with the largest variable
        values.
        """
        assignment = Assignment()
        for paper_idx, paper_id in enumerate(problem.paper_ids):
            order = np.argsort(-values[:, paper_idx], kind="stable")
            taken = 0
            for reviewer_idx in order:
                if taken >= problem.group_size:
                    break
                reviewer_id = problem.reviewer_ids[int(reviewer_idx)]
                if values[reviewer_idx, paper_idx] <= 1e-6:
                    break
                if not problem.is_feasible_pair(reviewer_id, paper_id):
                    continue
                if assignment.load(reviewer_id) >= problem.reviewer_workload:
                    continue
                assignment.add(reviewer_id, paper_id)
                taken += 1
        return assignment
