"""String-keyed solver registry for the assignment engine.

The scoring functions of :mod:`repro.core.scoring` are already looked up by
name through a registry; this module gives the CRA and JRA solvers the same
treatment so that *requests* — CLI flags, JSON-lines messages, snapshot
metadata — can name solvers by string without every entry point hard-coding
its own ``if name == ...`` ladder.

Every solver ships with a factory that accepts free-form keyword options
and ignores the ones it does not understand, so one request schema
(``{"solver": "SDGA-SRA", "options": {...}}``) can configure any solver.
Canonical names are the short names the paper uses (``"SDGA"``, ``"BBA"``,
...); lookups are case-insensitive and accept the registered aliases:

>>> from repro.service.registry import available_solvers, create_solver, solver_spec
>>> available_solvers("jra")
['BBA', 'BFS', 'CP', 'CP-FIRST', 'ILP']
>>> solver_spec("cra", "sra").name          # alias, case-insensitive
'SDGA-SRA'
>>> create_solver("jra", "bba").name        # a configured solver instance
'BBA'
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.cra.base import CRASolver
from repro.cra.brgg import BestReviewerGroupGreedySolver
from repro.cra.exact import ExhaustiveSolver
from repro.cra.greedy import GreedySolver
from repro.cra.ilp import PairwiseILPSolver
from repro.cra.local_search import LocalSearchRefiner, SDGAWithLocalSearchSolver
from repro.cra.ratio import RatioGreedySolver
from repro.cra.repair import RefillRepairSolver
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.cra.sra import SDGAWithRefinementSolver, StochasticRefiner
from repro.cra.stable_matching import StableMatchingSolver
from repro.exceptions import ConfigurationError, UnknownSolverError
from repro.jra.base import JRASolver
from repro.jra.bba import BranchAndBoundSolver
from repro.jra.brute_force import BruteForceSolver
from repro.jra.cp import ConstraintProgrammingSolver
from repro.jra.ilp import ILPSolver

__all__ = [
    "SolverSpec",
    "register_solver",
    "create_solver",
    "solver_spec",
    "available_solvers",
    "available_solver_specs",
]


@dataclass(frozen=True)
class SolverSpec:
    """One registry entry.

    Attributes
    ----------
    name:
        Canonical (paper) name of the solver.
    kind:
        ``"cra"`` (conference assignment) or ``"jra"`` (journal assignment).
    factory:
        Callable building a configured solver instance from keyword options.
    description:
        One-line human description shown by discovery helpers.
    aliases:
        Extra lookup names (canonical name included automatically).
    tags:
        Capability markers consumed by the documentation tests and the
        conformance harness (which diffs every solver's fast path against
        its ``tests/oracles`` reference, bitwise, without needing a tag):

        * ``"delta"`` — the solver consumes delta-maintained state (the
          shared pair-score matrix, the patched feasibility mask), so it
          must — and is checked to — produce bitwise-identical results on
          a mutated problem chain and on a cold recompile;
        * ``"exponential"`` — worst-case exponential running time; the
          full-registry portfolio line-up
          (:func:`repro.parallel.portfolio.full_portfolio`) excludes it.
    """

    name: str
    kind: str
    factory: Callable[..., Any]
    description: str = ""
    aliases: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()


_KINDS = ("cra", "jra")
_REGISTRY: dict[tuple[str, str], SolverSpec] = {}


def register_solver(spec: SolverSpec) -> SolverSpec:
    """Register a solver spec under its canonical name and aliases."""
    if spec.kind not in _KINDS:
        raise ConfigurationError(f"unknown solver kind {spec.kind!r}; use one of {_KINDS}")
    for alias in {spec.name, *spec.aliases}:
        _REGISTRY[(spec.kind, alias.lower())] = spec
    return spec


def solver_spec(kind: str, name: str) -> SolverSpec:
    """Look up the spec for a solver name (case-insensitive).

    Raises
    ------
    UnknownSolverError
        When no solver of that kind is registered under the name.
    """
    try:
        return _REGISTRY[(kind, name.strip().lower())]
    except KeyError:
        raise UnknownSolverError(
            f"unknown {kind.upper()} solver {name!r}; "
            f"available: {', '.join(available_solvers(kind))}"
        ) from None


def create_solver(kind: str, name: str, **options: Any) -> Any:
    """Instantiate a registered solver by name.

    ``options`` are forwarded to the solver's factory; options the factory
    does not understand are ignored, so callers can pass one configuration
    blob to any solver.
    """
    return solver_spec(kind, name).factory(**options)


def available_solvers(kind: str | None = None) -> list[str]:
    """Sorted canonical names of the registered solvers.

    Pass ``kind`` (``"cra"`` or ``"jra"``) to restrict the listing.
    """
    return sorted({spec.name for spec in available_solver_specs(kind)})


def available_solver_specs(kind: str | None = None) -> list[SolverSpec]:
    """The registered solver specs, unique and sorted by canonical name.

    This is the discovery hook behind ``docs/solvers.md`` and the solver
    reference test: everything a spec declares (name, aliases,
    description) is available to generate or validate documentation.
    """
    unique: dict[str, SolverSpec] = {}
    for (spec_kind, _), spec in _REGISTRY.items():
        if kind is None or spec_kind == kind:
            unique[f"{spec.kind}:{spec.name}"] = spec
    return sorted(unique.values(), key=lambda spec: (spec.kind, spec.name))


# ----------------------------------------------------------------------
# Built-in conference (CRA) solvers
# ----------------------------------------------------------------------
def _make_sm(**_: Any) -> CRASolver:
    return StableMatchingSolver()


def _make_ilp_cra(**_: Any) -> CRASolver:
    return PairwiseILPSolver()


def _make_brgg(**_: Any) -> CRASolver:
    return BestReviewerGroupGreedySolver()


def _make_greedy(**_: Any) -> CRASolver:
    return GreedySolver()


def _make_ratio_greedy(**_: Any) -> CRASolver:
    return RatioGreedySolver()


def _make_repair(**_: Any) -> CRASolver:
    return RefillRepairSolver()


def _make_sdga(**_: Any) -> CRASolver:
    return StageDeepeningGreedySolver()


def _make_sdga_sra(
    convergence_window: int = 10, seed: int | None = 7, **_: Any
) -> CRASolver:
    return SDGAWithRefinementSolver(
        refiner=StochasticRefiner(convergence_window=convergence_window, seed=seed),
        base_solver=StageDeepeningGreedySolver(),
    )


def _make_sdga_ls(**_: Any) -> CRASolver:
    return SDGAWithLocalSearchSolver(
        refiner=LocalSearchRefiner(), base_solver=StageDeepeningGreedySolver()
    )


def _make_bid_sdga(bids: Any = None, tradeoff: float = 0.5, **_: Any) -> CRASolver:
    # Imported here: repro.extensions sits above the service layer and
    # importing it eagerly would create a cycle through the engine.
    from repro.extensions.bidding import BidAwareObjective, BidAwareSDGASolver, BidMatrix

    if bids is None:
        matrix = BidMatrix()
    elif isinstance(bids, BidMatrix):
        matrix = bids
    elif isinstance(bids, Mapping):
        matrix = BidMatrix(bids)
    else:  # an iterable of (reviewer_id, paper_id, value) triples (JSON form)
        matrix = BidMatrix()
        for reviewer_id, paper_id, value in bids:
            matrix.set(str(reviewer_id), str(paper_id), float(value))
    return BidAwareSDGASolver(
        objective=BidAwareObjective(bids=matrix, tradeoff=float(tradeoff))
    )


def _make_exhaustive(**_: Any) -> CRASolver:
    return ExhaustiveSolver()


register_solver(
    SolverSpec(
        name="SM",
        kind="cra",
        factory=_make_sm,
        description="stable-matching baseline (Long et al.)",
        aliases=("stable-matching",),
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="ILP",
        kind="cra",
        factory=_make_ilp_cra,
        description="pairwise ILP baseline (the ARAP objective)",
        tags=("delta", "exponential"),
    )
)
register_solver(
    SolverSpec(
        name="BRGG",
        kind="cra",
        factory=_make_brgg,
        description="best reviewer group greedy baseline",
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="Greedy",
        kind="cra",
        factory=_make_greedy,
        description="1/3-approximation pair greedy (Long et al. 2013)",
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="Ratio-Greedy",
        kind="cra",
        factory=_make_ratio_greedy,
        description="capacity-aware pair greedy (gain x remaining-workload fraction)",
        aliases=("ratio",),
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="Repair",
        kind="cra",
        factory=_make_repair,
        description="repair/refill pass run from an empty assignment",
        aliases=("refill",),
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="SDGA",
        kind="cra",
        factory=_make_sdga,
        description="stage deepening greedy algorithm (the paper's 1/2-approx)",
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="SDGA-SRA",
        kind="cra",
        factory=_make_sdga_sra,
        description="SDGA plus stochastic refinement (the paper's best method)",
        aliases=("SRA",),
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="SDGA-LS",
        kind="cra",
        factory=_make_sdga_ls,
        description="SDGA plus deterministic local-search refinement",
        aliases=("LS",),
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="Bid-SDGA",
        kind="cra",
        factory=_make_bid_sdga,
        description="SDGA on the combined coverage + reviewer-bid objective",
        aliases=("bidding",),
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="Exhaustive",
        kind="cra",
        factory=_make_exhaustive,
        description="exact exponential search (tiny instances only)",
        aliases=("exact",),
        tags=("exponential",),
    )
)


# ----------------------------------------------------------------------
# Built-in journal (JRA) solvers
# ----------------------------------------------------------------------
def _make_bba(top_k: int = 1, **_: Any) -> JRASolver:
    return BranchAndBoundSolver(top_k=top_k)


def _make_bfs(top_k: int = 1, **_: Any) -> JRASolver:
    return BruteForceSolver(top_k=top_k)


def _make_ilp_jra(time_limit: float | None = None, **_: Any) -> JRASolver:
    return ILPSolver(time_limit=time_limit)


def _make_cp(**_: Any) -> JRASolver:
    return ConstraintProgrammingSolver()


def _make_cp_first(**_: Any) -> JRASolver:
    return ConstraintProgrammingSolver(first_solution_only=True)


register_solver(
    SolverSpec(
        name="BBA",
        kind="jra",
        factory=_make_bba,
        description="exact branch-and-bound (the paper's fast JRA solver)",
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="BFS",
        kind="jra",
        factory=_make_bfs,
        description="exhaustive enumeration baseline",
        aliases=("brute-force",),
        tags=("delta",),
    )
)
register_solver(
    SolverSpec(
        name="ILP",
        kind="jra",
        factory=_make_ilp_jra,
        description="ILP on HiGHS's MIP solver (scipy.optimize.milp)",
    )
)
register_solver(
    SolverSpec(
        name="CP",
        kind="jra",
        factory=_make_cp,
        description="generic constraint-programming search",
    )
)
register_solver(
    SolverSpec(
        name="CP-FIRST",
        kind="jra",
        factory=_make_cp_first,
        description="constraint programming, first feasible solution only",
    )
)
