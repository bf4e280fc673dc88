"""Reference implementations the solvers in ``src/`` are diffed against.

``src/`` holds one implementation per algorithm: the fast path on the
compiled :class:`~repro.core.dense.DenseProblem` view.  This package
holds, for every registered solver that has one, an object-path
reference that uses only the object API (per-paper ``group_vector`` +
``gain_vector`` calls, per-pair ``is_feasible_pair`` checks, conflict-set
lookups, ``paper_score``/``assignment_score``).  ``tests/conformance``
requires fast path == reference, bitwise, on its whole grid.

The scorers have a reference too: :mod:`tests.oracles.scoring` holds the
object-path ``group_vector``, ``paper_score`` and ``assignment_score``
that ``src/`` replaced with ``ScoringFunction.coverage`` and the compiled
view's batched kernel.  The solver references score through it, and
``tests/conformance/test_scoring_conformance.py`` diffs every scorer in
``src/`` against it, bitwise, on the mutation chains.

Each reference subclasses the registry solver and overrides a private
method: the whole ``_solve`` / ``_refine`` where the search itself
differs (the greedies, local search), or just the input builder where
only the staging differs (SDGA's ``_stage_inputs``, SRA's ``_scorer`` and
``_refill_inputs``, SM's ``_preferences``, BRGG's ``_conflict_exclusions``
and ``_group_solver``, BBA's ``_advance_front``).  The repair pass's
module-level refill builder is swapped with ``unittest.mock.patch.object``
(:func:`~tests.oracles.inputs.object_refill`).  Nothing in ``src/`` can
select a reference.

:func:`reference_solver` builds the reference for a registry name with
the registry factory's defaults; :data:`REFERENCES` lists them.

The substrates have a reference too, which stays off :data:`REFERENCES`:
:mod:`tests.oracles.flow` (a min-cost flow for the Hungarian stage
assignment and the pairwise ILP's HiGHS LP) matches on objective values,
not on how ties are broken.

BBA has a second reference off :data:`REFERENCES`:
:class:`CursorBoundBBAOracle` overrides ``_completion_bound`` to skip the
submodular completion bound, which leaves the paper's cursor-bound-only
search (Algorithm 1).  It must give the same groups, scores and ranked
``top_k`` lists as BBA, bitwise, from at least as many nodes.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import Any

from repro.cra.base import CRASolver
from repro.cra.brgg import BestReviewerGroupGreedySolver
from repro.cra.local_search import SDGAWithLocalSearchSolver
from repro.cra.repair import RefillRepairSolver
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.cra.sra import SDGAWithRefinementSolver, StochasticRefiner
from repro.cra.stable_matching import StableMatchingSolver
from repro.extensions.bidding import BidAwareSDGASolver
from repro.jra.bba import BranchAndBoundSolver
from repro.service.registry import solver_spec
from tests.oracles import scoring
from tests.oracles.greedy import LazyHeapGreedy, NaiveGreedyOracle, RatioGreedyOracle
from tests.oracles.inputs import (
    advance_front_loops,
    conflict_exclusions_object,
    object_refill,
    preferences_object,
    stage_inputs_object,
)
from tests.oracles.local_search import LocalSearchOracle

__all__ = [
    "REFERENCES",
    "BBAOracle",
    "BRGGOracle",
    "BidSDGAOracle",
    "CursorBoundBBAOracle",
    "LazyHeapGreedy",
    "LocalSearchOracle",
    "NaiveGreedyOracle",
    "RatioGreedyOracle",
    "RepairOracle",
    "SDGAOracle",
    "StableMatchingOracle",
    "StochasticRefinerOracle",
    "reference_solver",
]


class _ObjectRefill:
    """Mixin: the solve's repair pass builds its refill inputs on the object path."""

    def _solve(self, problem):
        with object_refill():
            return super()._solve(problem)


class RepairOracle(_ObjectRefill, RefillRepairSolver):
    """Repair's reference: the refill rounds on object-path inputs."""


class SDGAOracle(StageDeepeningGreedySolver):
    """SDGA's reference: object-path stage inputs."""

    _stage_inputs = staticmethod(stage_inputs_object)


class BidSDGAOracle(BidAwareSDGASolver):
    """Bid-SDGA's reference: object-path coverage gains under the bid term."""

    _stage_inputs = staticmethod(stage_inputs_object)


class StochasticRefinerOracle(StochasticRefiner):
    """SRA's refinement with object-path scores and refill inputs.

    The removal sampling is shared with the fast path: it reads only the
    cached pair-score matrix and the problem's id order.
    """

    @staticmethod
    def _scorer(problem):
        return functools.partial(scoring.assignment_score, problem)

    @staticmethod
    def _refill_inputs(problem, assignment):
        return stage_inputs_object(problem, assignment, stage_capped=False)


class StableMatchingOracle(_ObjectRefill, StableMatchingSolver):
    """SM's reference: preference lists by Python sorts and per-pair checks."""

    _preferences = staticmethod(preferences_object)


class BBAOracle(BranchAndBoundSolver):
    """BBA's reference: the per-topic cursor loops (identical search tree)."""

    _advance_front = staticmethod(advance_front_loops)


class CursorBoundBBAOracle(BBAOracle):
    """BBA pruning with the per-topic cursor bound alone (Equation 3)."""

    @staticmethod
    def _completion_bound(*_args):
        return None


class BRGGOracle(_ObjectRefill, BestReviewerGroupGreedySolver):
    """BRGG's reference: conflict-set exclusions and the cursor-loop BBA."""

    _conflict_exclusions = staticmethod(conflict_exclusions_object)
    _group_solver = BBAOracle


def _sdga_sra(convergence_window: int = 10, seed: int | None = 7) -> CRASolver:
    return SDGAWithRefinementSolver(
        refiner=StochasticRefinerOracle(convergence_window=convergence_window, seed=seed),
        base_solver=SDGAOracle(),
    )


def _sdga_ls() -> CRASolver:
    return SDGAWithLocalSearchSolver(refiner=LocalSearchOracle(), base_solver=SDGAOracle())


#: ``(kind, canonical registry name) -> reference factory``; each takes the
#: registry factory's defaults.
REFERENCES: dict[tuple[str, str], Callable[..., Any]] = {
    ("cra", "BRGG"): BRGGOracle,
    ("cra", "Bid-SDGA"): BidSDGAOracle,
    ("cra", "Greedy"): NaiveGreedyOracle,
    ("cra", "Ratio-Greedy"): RatioGreedyOracle,
    ("cra", "Repair"): RepairOracle,
    ("cra", "SDGA"): SDGAOracle,
    ("cra", "SDGA-LS"): _sdga_ls,
    ("cra", "SDGA-SRA"): _sdga_sra,
    ("cra", "SM"): StableMatchingOracle,
    ("jra", "BBA"): BBAOracle,
}


def reference_solver(kind: str, name: str, **options: Any) -> Any:
    """The reference for a registry solver name (any registered alias).

    ``options`` go to the reference's constructor (``top_k=3`` for BBA,
    ``seed=...`` for SDGA-SRA), so an option the reference cannot honour
    raises instead of being ignored.  Raises ``KeyError`` for solvers
    without a reference.
    """
    return REFERENCES[(kind, solver_spec(kind, name).name)](**options)
