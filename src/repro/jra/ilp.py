"""Integer Linear Programming baseline for JRA.

The paper's second exact baseline formulates JRA as an ILP and solves it
with ``lp_solve``.  We reproduce the formulation and solve it with HiGHS's
MIP solver (``scipy.optimize.milp``).

Formulation
-----------
For reviewers ``r`` and topics ``t`` with per-topic contribution
``cov[t, r] = f(r[t], p[t])`` (``f`` being the scoring function's
contribution, e.g. ``min`` for weighted coverage):

* binary ``x_r``          — reviewer ``r`` is selected,
* continuous ``w_{t,r}``  — reviewer ``r`` is the designated coverer of ``t``,
* continuous ``z_t``      — achieved contribution on topic ``t``.

maximise ``sum_t z_t`` subject to::

    sum_r x_r            = delta_p
    w_{t,r}             <= x_r            for all t, r
    sum_r w_{t,r}       <= 1              for all t
    z_t                 <= sum_r w_{t,r} * cov[t, r]   for all t

Because every scoring function in the library is monotone in the reviewer
expertise, the designated-coverer trick reproduces the group aggregation
``f(max_{r in g} r[t], p[t])`` exactly, so the ILP optimum equals the JRA
optimum (divided by the paper's topic mass, which is a constant).

HiGHS's defaults end a search that is within 1e-4 (relative) or 1e-6
(absolute) of its bound, or that no node can beat by more than the MIP
feasibility tolerance (1e-6), and its presolve reductions are made within
tolerances of their own; on a low-scoring paper each of these can prove a
group optimal that lies a fraction of a percent below the optimum.  The
solve therefore asks for zero gaps, a 1e-9 MIP feasibility tolerance and
no presolve, which proves the group optimal to within about 1e-9 of
``sum_t z_t``.  SciPy is imported inside the solve, so importing this
module stays SciPy-free.

This baseline is intentionally slow on large instances — that is exactly
what Figures 9 and 14 of the paper demonstrate — so the solver accepts node
and time limits.
"""

from __future__ import annotations

import warnings
from typing import Any

import numpy as np

from repro.core.problem import JRAProblem
from repro.exceptions import SolverError
from repro.jra.base import JRASolver

__all__ = ["ILPSolver"]


class ILPSolver(JRASolver):
    """Exact (given enough budget) ILP solver for JRA.

    Parameters
    ----------
    node_limit, time_limit:
        Search budget; when exhausted the best incumbent found so far is
        returned and the result is flagged as not proven optimal.  A budget
        that ends before HiGHS finds any group raises :class:`SolverError`.
    """

    name = "ILP"

    def __init__(self, node_limit: int = 50_000, time_limit: float | None = None) -> None:
        self._node_limit = node_limit
        self._time_limit = time_limit

    def _solve(
        self, problem: JRAProblem
    ) -> tuple[tuple[str, ...], float, bool, dict[str, Any]]:
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp

        paper_vector = problem.paper_vector
        num_reviewers = problem.num_reviewers
        num_topics = problem.num_topics
        num_designations = num_topics * num_reviewers
        denominator = float(paper_vector.sum())
        group_size = float(problem.group_size)

        # Per-topic contribution of every reviewer: cov[t, r].
        coverage = problem.scoring.topic_contribution(
            problem.reviewer_matrix, paper_vector[None, :]
        ).T  # (T, R)

        # Columns: x (R), then w topic by topic (T * R), then z (T).  Row t
        # of ``per_topic`` sums the w of topic t.
        per_topic = sparse.kron(
            sparse.identity(num_topics), np.ones((1, num_reviewers)), format="csr"
        )
        rows = sparse.bmat(
            [
                # sum_r x_r = delta_p
                [np.ones((1, num_reviewers)), None, None],
                # w_{t,r} - x_r <= 0
                [
                    -sparse.kron(np.ones((num_topics, 1)), sparse.identity(num_reviewers)),
                    sparse.identity(num_designations),
                    None,
                ],
                # sum_r w_{t,r} <= 1
                [None, per_topic, None],
                # z_t - sum_r w_{t,r} * cov[t, r] <= 0
                [None, -per_topic.multiply(coverage.reshape(1, -1)), sparse.identity(num_topics)],
            ],
            format="csr",
        )
        family_sizes = [1, num_designations, num_topics, num_topics]
        upper_bounds = np.concatenate(
            (np.ones(num_reviewers + num_designations), np.maximum(coverage.max(axis=1), 0.0))
        )
        options: dict[str, Any] = {
            "mip_rel_gap": 0.0,
            "mip_abs_gap": 0.0,
            "mip_feasibility_tolerance": 1e-9,
            "presolve": False,
            "node_limit": self._node_limit,
        }
        if self._time_limit is not None:
            options["time_limit"] = self._time_limit
        with warnings.catch_warnings():
            # milp passes HiGHS options it does not name itself (the abs gap
            # and the feasibility tolerance) on unchanged, with a warning.
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            result = milp(
                # milp minimises: maximise sum_t z_t
                c=np.repeat([0.0, -1.0], [num_reviewers + num_designations, num_topics]),
                integrality=np.repeat([1, 0], [num_reviewers, num_designations + num_topics]),
                bounds=Bounds(0.0, upper_bounds),
                constraints=LinearConstraint(
                    rows,
                    np.repeat([group_size, -np.inf, -np.inf, -np.inf], family_sizes),
                    np.repeat([group_size, 0.0, 1.0, 0.0], family_sizes),
                ),
                options=options,
            )
        if result.x is None:
            raise SolverError(f"HiGHS found no JRA group: {result.message}")

        selected = np.flatnonzero(result.x[:num_reviewers] > 0.5)
        reviewer_ids = tuple(problem.reviewer_ids[index] for index in selected)
        objective = float(-result.fun)
        stats: dict[str, Any] = {
            "nodes_explored": int(result.mip_node_count),
            "objective_numerator": objective,
        }
        if denominator > 0.0:
            stats["objective_normalised"] = objective / denominator
        return reviewer_ids, problem.group_score(reviewer_ids), result.status == 0, stats
