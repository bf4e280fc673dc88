"""The long-lived assignment engine.

The batch entry points of the library rebuild the whole problem — and with
it the full ``(R, P)`` score matrix — on every call.  That is fine for a
one-shot experiment and wasteful for a service: the paper itself frames
Journal Reviewer Assignment as an *online* query ("a paper arrives, find
its best group now"), and a production review system fields a stream of
such queries interleaved with mutations (late submissions, reviewer
drop-outs, bid updates).

:class:`AssignmentEngine` is the resident core that amortises the shared
work across requests:

* it owns one :class:`~repro.core.problem.WGRAPProblem` chain, whose
  score matrix is carried across mutations by delta — one scored column
  per late paper, zero re-scoring per withdrawal — instead of rebuilt,
  and subscribes to its mutation events so the reviewer rankings of
  :class:`~repro.service.cache.ScoreMatrixCache` follow the chain;
* journal queries reuse cached per-paper JRA sub-problems, and each
  sub-problem keeps the ranked answers solved on it (one solve per
  distinct question, :func:`repro.jra.topk.find_top_k_groups`, exact with
  the default BBA) until a withdrawal or a conflict edit drops it; bid
  updates and late papers keep every answer.  The heuristic ``pool_size``
  can first shrink the candidate pool to the cache's top reviewers for
  the paper;
* :meth:`AssignmentEngine.evaluate` reuses its ratio-free summary until
  the next mutation or assignment install;
* conference solves, incremental mutations and evaluation all go through
  the string-keyed solver registry, so requests can name solvers.

Requests reach the engine through
:meth:`~repro.service.session.EngineSession.dispatch`, from every front
end; this module is the synchronous engine underneath it.
"""

from __future__ import annotations

import time
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.assignment import Assignment
from repro.core.entities import Paper
from repro.core.problem import JRAProblem, ProblemMutation, WGRAPProblem
from repro.cra.base import CRAResult
from repro.cra.repair import complete_assignment
from repro.data.io import (
    EngineSnapshot,
    engine_snapshot_to_dict,
    entry_dicts,
    load_engine_snapshot,
    save_engine_snapshot,
)
from repro.exceptions import (
    ConfigurationError,
    InfeasibleAssignmentError,
    InfeasibleProblemError,
)
from repro.extensions.bidding import BidAwareObjective, BidAwareSDGASolver, BidMatrix, bid_satisfaction
from repro.fault import get_failpoints
from repro.jra.topk import RankedGroup, find_top_k_groups
from repro.metrics.quality import lowest_coverage_score, optimality_ratio
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import get_tracer
from repro.parallel.config import ParallelConfig
from repro.parallel.portfolio import DEFAULT_PORTFOLIO, PortfolioOutcome, run_portfolio
from repro.service.cache import ScoreMatrixCache
from repro.service.registry import SolverSpec, create_solver, solver_spec

if TYPE_CHECKING:  # pragma: no cover - the store loads only when one is opened
    from repro.store.sqlite import SqliteProblemStore

TRACER = get_tracer()

__all__ = ["AssignmentEngine", "EngineDelta", "JournalAnswer"]


@dataclass(frozen=True)
class EngineDelta:
    """What changed when the engine applied one mutation.

    Returning the delta (instead of a rebuilt problem/assignment pair)
    lets callers — the incremental-maintenance API, the serving front end,
    downstream notification fan-out — propagate exactly the affected
    state.
    """

    kind: str
    affected_papers: tuple[str, ...]
    added_pairs: tuple[tuple[str, str], ...]
    removed_pairs: tuple[tuple[str, str], ...]
    problem: WGRAPProblem
    assignment: Assignment | None

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable summary for the serving front end."""
        return {
            "kind": self.kind,
            "affected_papers": list(self.affected_papers),
            "added_pairs": [list(pair) for pair in self.added_pairs],
            "removed_pairs": [list(pair) for pair in self.removed_pairs],
            "num_papers": self.problem.num_papers,
            "num_reviewers": self.problem.num_reviewers,
        }


@dataclass(frozen=True)
class JournalAnswer:
    """Outcome of one journal (single-paper) query.

    Attributes
    ----------
    paper_id:
        The queried paper.
    groups:
        The best group(s), ranked from 1; length 1 unless ``top_k > 1``.
    shortlist:
        Highest-scoring individual reviewers from the cached score matrix
        (empty for inline papers that are not part of the problem).
    cache_hit:
        Whether the JRA sub-problem came from the engine's cache (the
        groups themselves may have been stored on it by an earlier query
        of the same question; ``engine.journal_answer_hits`` counts those).
    solver:
        Canonical name of the solver that answered the query.
    elapsed_seconds:
        Wall-clock time spent answering.
    """

    paper_id: str
    groups: tuple[RankedGroup, ...]
    shortlist: tuple[tuple[str, float], ...]
    cache_hit: bool
    solver: str
    elapsed_seconds: float

    @property
    def best(self) -> RankedGroup:
        """The rank-1 group."""
        return self.groups[0]

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable summary for the serving front end."""
        return {
            "paper_id": self.paper_id,
            "groups": [
                {
                    "rank": group.rank,
                    "reviewer_ids": list(group.reviewer_ids),
                    "score": group.score,
                }
                for group in self.groups
            ],
            "shortlist": [[reviewer_id, score] for reviewer_id, score in self.shortlist],
            "cache_hit": self.cache_hit,
            "solver": self.solver,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class _JRAEntry:
    """One cached JRA sub-problem and the answers already solved on it.

    ``answers`` maps ``(canonical solver name, top_k)`` to the ranked
    groups.  Both are dropped together, by
    :meth:`AssignmentEngine._drop_jra_cache`.
    """

    problem: JRAProblem
    answers: dict[tuple[str, int], tuple[RankedGroup, ...]] = field(default_factory=dict)


class AssignmentEngine:
    """A resident WGRAP problem with cached scoring and incremental updates.

    Parameters
    ----------
    problem:
        The loaded problem instance.  The engine subscribes to its mutation
        events; mutations made through the engine *or* directly through
        :meth:`WGRAPProblem.with_additional_paper` /
        :meth:`WGRAPProblem.without_reviewer` keep the caches consistent.
    assignment:
        Optional current assignment (copied, never mutated in place).
    bids:
        Optional reviewer bids carried into bid-aware solves.
    parallel:
        Optional :class:`~repro.parallel.ParallelConfig`.  Score-matrix
        builds big enough to clear its serial threshold go through the
        sharded worker-pool kernel (results stay bitwise-identical), and
        :meth:`solve_portfolio` races its solvers across that many worker
        processes.

    Notes
    -----
    Mutating methods are not transactional against arbitrary failures, but
    the two built-in mutations either pre-validate everything before
    touching state (:meth:`add_paper`) or roll the engine back on an
    infeasible repair (:meth:`withdraw_reviewer`).

    Assignments the engine produced itself (solves, staffed additions,
    validated repairs) are trusted across subsequent mutations instead of
    being re-validated on every request — an ``O(P * delta_p)`` saving per
    mutation on the serving hot path.  An externally supplied assignment
    (constructor, snapshot) is validated once, the first time a mutation
    needs the guarantee.  Mutating :attr:`assignment` in place from the
    outside voids that warranty.
    """

    #: default solver names (overridable per request)
    DEFAULT_CRA_SOLVER = "SDGA-SRA"
    DEFAULT_JRA_SOLVER = "BBA"

    #: counter keys pre-registered under ``engine.*`` so ``stats()`` keeps
    #: a stable shape even before the first request of each kind
    _COUNTER_KEYS = (
        "solves",
        "portfolio_solves",
        "journal_queries",
        "journal_cache_hits",
        "journal_answer_hits",
        "add_paper",
        "remove_reviewer",
        "bid_updates",
        "evaluations",
    )

    def __init__(
        self,
        problem: WGRAPProblem,
        assignment: Assignment | None = None,
        bids: BidMatrix | None = None,
        parallel: ParallelConfig | None = None,
        registry: MetricsRegistry | None = None,
        store: "SqliteProblemStore | None" = None,
    ) -> None:
        self._problem = problem
        self._root_problem = problem
        self._assignment = assignment.copy() if assignment is not None else None
        #: conflict-set version at which the installed assignment was last
        #: known-feasible, or ``None`` — engine-produced assignments
        #: (solves, staffed mutations, validated repairs) are marked valid;
        #: externally supplied ones are validated once, on the first
        #: mutation that needs the guarantee.  Keying on the conflict
        #: version means live conflict edits automatically force a
        #: re-validation (a newly added conflict can invalidate any
        #: assigned pair).
        self._assignment_valid_at: int | None = None
        self._bids = bids if bids is not None else BidMatrix()
        self._parallel = parallel
        #: optional durable problem store; attached first so its row
        #: deltas follow the same mutation chain and the matrix builds in
        #: its blocks.
        self._store = store
        if store is not None:
            store.attach(problem)
        self._cache = ScoreMatrixCache(problem, parallel=parallel)
        #: (paper id, group size, pool_size) -> sub-problem and its answers
        self._jra_cache: dict[tuple[str, int, int | None], _JRAEntry] = {}
        #: conflict version the JRA sub-problem cache is valid for
        self._jra_cache_version = problem.conflicts.version
        #: the ratio-free summary of :meth:`evaluate`, until the next
        #: mutation or assignment install
        self._evaluation: dict[str, Any] | None = None
        self._revision = 0
        # All counters live in the metrics registry under ``engine.*``;
        # ``stats()`` derives the historical flat keys from them.
        self._registry = registry if registry is not None else MetricsRegistry()
        for key in self._COUNTER_KEYS:
            self._registry.counter(f"engine.{key}")
        self._last_solver: str | None = None
        self._last_score: float | None = None
        # The problem must not keep the engine (and its dense score matrix)
        # alive: subscribe through a weak reference, and let the wrapper
        # unsubscribe itself once the engine has been collected.
        engine_ref = weakref.ref(self)

        def listener(mutation: ProblemMutation) -> None:
            engine = engine_ref()
            if engine is None:
                mutation.source.remove_mutation_listener(listener)
                mutation.result.remove_mutation_listener(listener)
                return
            engine._on_mutation(mutation)

        self._listener = listener
        problem.add_mutation_listener(listener)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def problem(self) -> WGRAPProblem:
        """The current problem instance (replaced on every mutation)."""
        return self._problem

    @property
    def assignment(self) -> Assignment | None:
        """The current assignment, or ``None`` before the first solve."""
        return self._assignment

    @property
    def bids(self) -> BidMatrix:
        """Accumulated reviewer bids."""
        return self._bids

    @property
    def cache(self) -> ScoreMatrixCache:
        """The score-matrix cache (exposed for instrumentation)."""
        return self._cache

    @property
    def parallel(self) -> ParallelConfig | None:
        """The worker-pool config, or ``None`` for fully serial operation."""
        return self._parallel

    @property
    def store(self) -> "SqliteProblemStore | None":
        """The durable problem store, or ``None`` for in-RAM engines."""
        return self._store

    @property
    def store_path(self) -> Any:
        """Where the attached store persists (``None`` without one)."""
        return self._store.path if self._store is not None else None

    def sync_store(self) -> None:
        """Commit pending store deltas (checkpoint = store sync)."""
        if self._store is not None:
            self._store.sync()

    @property
    def revision(self) -> int:
        """Monotonic counter, bumped once per applied mutation."""
        return self._revision

    @property
    def last_solver(self) -> str | None:
        """Name of the solver behind the current assignment, if any."""
        return self._last_solver

    @property
    def last_score(self) -> float | None:
        """Objective value of the last completed solve, if any."""
        return self._last_score

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The engine's metrics namespace (``engine.*`` plus absorbed stats)."""
        return self._registry

    def _count(self, key: str, amount: int = 1) -> None:
        self._registry.counter(f"engine.{key}").inc(amount)

    def _observe(self, name: str, seconds: float) -> None:
        self._registry.histogram(name).observe(seconds)

    def warm(self) -> "AssignmentEngine":
        """Materialise the score matrix now instead of on the first query."""
        self._cache.matrix()
        return self

    def _mark_assignment_valid(self) -> None:
        """Record that the installed assignment is feasible *now*."""
        self._assignment_valid_at = self._problem.conflicts.version

    def _assignment_known_valid(self) -> bool:
        """Whether the feasibility guarantee still stands.

        A moved conflict version voids it: a newly added conflict can
        invalidate any assigned pair, so the next mutation re-validates in
        full (and raises, exactly like the historical unconditional
        validation did).
        """
        return self._assignment_valid_at == self._problem.conflicts.version

    def detach(self) -> None:
        """Unsubscribe from the problem's mutation events.

        Call this when discarding a short-lived engine wrapped around a
        caller-owned problem, so the problem does not keep notifying (and
        referencing) a dead engine.  Both the problem the engine was
        constructed around and the current (possibly derived) instance are
        unsubscribed.
        """
        self._root_problem.remove_mutation_listener(self._listener)
        self._problem.remove_mutation_listener(self._listener)

    def _on_mutation(self, mutation: ProblemMutation) -> None:
        self._cache.apply_mutation(mutation)
        self._problem = mutation.result
        self._revision += 1
        self._count(mutation.kind)
        # The feasibility guarantee does not survive a problem swap; the
        # engine's own mutation paths re-establish it after their targeted
        # validation, while mutations made directly through the problem API
        # leave it void until the next full validation.
        self._assignment_valid_at = None
        self._evaluation = None
        if mutation.kind == "remove_reviewer":
            # Candidate pools changed for every paper.  A late paper changes
            # no cached sub-problem; conflict edits are caught by _answer.
            self._drop_jra_cache()

    def _drop_jra_cache(self) -> None:
        """Forget every cached JRA sub-problem and the answers solved on it.

        The one invalidation path of the journal answers: a withdrawal
        (committed or rolled back) and a moved conflict version change
        candidate pools.  The chain shares one conflict set, so its
        version moves on every edit, whichever chain member it was made
        through.  A late paper or a bid update changes no cached
        sub-problem, so every answer survives them.
        """
        self._jra_cache.clear()
        self._jra_cache_version = self._problem.conflicts.version

    # ------------------------------------------------------------------
    # Conference solve
    # ------------------------------------------------------------------
    def solve(
        self,
        solver: str | None = None,
        bid_tradeoff: float | None = None,
        **options: Any,
    ) -> CRAResult:
        """Run a conference-assignment solver and install its assignment.

        Parameters
        ----------
        solver:
            Registry name (``"SDGA"``, ``"SDGA-SRA"``, ``"Greedy"``, ...).
        bid_tradeoff:
            When set (and bids have been recorded), the solve maximises the
            combined coverage+bid objective with this trade-off ``lambda``
            using the bid-aware SDGA of :mod:`repro.extensions.bidding`.
        options:
            Forwarded to the solver factory (e.g. ``seed``,
            ``convergence_window`` for SDGA-SRA).
        """
        get_failpoints().hit("solver_call")
        started = time.perf_counter()
        name = solver or self.DEFAULT_CRA_SOLVER
        if bid_tradeoff is not None:
            instance = BidAwareSDGASolver(
                BidAwareObjective(bids=self._bids, tradeoff=bid_tradeoff)
            )
            canonical = instance.name
        else:
            spec = solver_spec("cra", name)
            instance = spec.factory(**options)
            canonical = spec.name
        with TRACER.span("engine.solve", solver=canonical) as span:
            result = instance.solve(self._problem)
            span.set(score=round(result.score, 6))
        self._assignment = result.assignment
        self._evaluation = None
        self._mark_assignment_valid()
        self._last_solver = canonical
        self._last_score = result.score
        self._count("solves")
        self._observe("engine.solve.seconds", time.perf_counter() - started)
        return result

    def solve_portfolio(
        self,
        solvers: tuple[str, ...] | list[str] | None = None,
        deadline: float | None = None,
        **options: Any,
    ) -> PortfolioOutcome:
        """Race several CRA solvers and install the best assignment.

        The race runs through :func:`repro.parallel.run_portfolio` with the
        engine's parallel config: with multiple workers the solvers run in
        separate processes (the resident problem is shipped in its JSON
        dict form, so the engine's mutation listeners never cross the
        process boundary); with one worker the line-up runs in order,
        respecting the deadline between members.

        Parameters
        ----------
        solvers:
            Registry names; defaults to
            :data:`repro.parallel.DEFAULT_PORTFOLIO`.
        deadline:
            Optional wall-clock budget in seconds.
        options:
            Forwarded to every solver factory.
        """
        started = time.perf_counter()
        with TRACER.span("engine.portfolio") as span:
            outcome = run_portfolio(
                self._problem,
                solvers=tuple(solvers) if solvers is not None else DEFAULT_PORTFOLIO,
                deadline=deadline,
                config=self._parallel,
                **options,
            )
            span.set(best=outcome.best_solver)
        self._assignment = outcome.best.assignment
        self._evaluation = None
        self._mark_assignment_valid()
        self._last_solver = outcome.best_solver
        self._last_score = outcome.best.score
        self._count("portfolio_solves")
        self._observe("engine.portfolio.seconds", time.perf_counter() - started)
        return outcome

    # ------------------------------------------------------------------
    # Journal queries
    # ------------------------------------------------------------------
    def journal_query(
        self,
        paper: str | Paper,
        group_size: int | None = None,
        top_k: int = 1,
        solver: str | None = None,
        pool_size: int | None = None,
        shortlist_size: int = 5,
    ) -> JournalAnswer:
        """Answer one online JRA query against the resident pool.

        Parameters
        ----------
        paper:
            A paper id of the loaded problem, or an inline :class:`Paper`
            that is scored against the pool without joining the problem.
        group_size:
            Override of the problem's ``delta_p``.
        top_k:
            Return the ``k`` best groups instead of only the optimum
            (supported by the BBA and BFS solvers).
        solver:
            Registry name of the JRA solver (default BBA).
        pool_size:
            When set, restrict the candidate pool to the top ``pool_size``
            reviewers of the cached score index — a large speed-up for big
            pools at a usually negligible quality cost.  Only available for
            papers of the problem (the cache has no column for inline
            papers).
        shortlist_size:
            How many individually top-scoring reviewers to report alongside
            the optimal group (0 disables the shortlist).
        """
        with TRACER.span("engine.journal_query") as span:
            answer = self._journal_query(
                paper,
                group_size=group_size,
                top_k=top_k,
                solver=solver,
                pool_size=pool_size,
                shortlist_size=shortlist_size,
            )
            span.set(paper=answer.paper_id, cache_hit=answer.cache_hit)
        self._observe("engine.journal.seconds", answer.elapsed_seconds)
        return answer

    def _journal_query(
        self,
        paper: str | Paper,
        group_size: int | None = None,
        top_k: int = 1,
        solver: str | None = None,
        pool_size: int | None = None,
        shortlist_size: int = 5,
    ) -> JournalAnswer:
        started = time.perf_counter()
        spec = solver_spec("jra", solver or self.DEFAULT_JRA_SOLVER)
        if top_k < 1:
            raise ConfigurationError("top_k must be at least 1")

        inline = isinstance(paper, Paper)
        if inline and paper.id in self._problem.paper_ids:
            # The caller inlined a known paper; serve the problem's copy
            # from the cache instead.
            inline = False
            paper = paper.id
        if inline:
            paper_obj = paper
            paper_id = paper_obj.id
        else:
            paper_id = str(paper)
            paper_obj = self._problem.paper_by_id(paper_id)  # raises KeyError

        size = group_size if group_size is not None else self._problem.group_size
        if inline:
            if pool_size is not None:
                raise ConfigurationError(
                    "pool_size pruning needs a cached score column; "
                    "add the paper to the problem first"
                )
            # Not part of the problem, so nothing is stored for it; conflicts
            # declared for its id still apply.
            jra = self._problem.to_jra(paper_obj, size)
            groups = tuple(find_top_k_groups(jra, top_k, spec.factory(top_k=top_k)))
            cache_hit = answer_hit = False
        else:
            groups, cache_hit, answer_hit = self._answer(
                paper_obj, size, pool_size, spec, top_k
            )

        shortlist: tuple[tuple[str, float], ...] = ()
        if shortlist_size > 0 and not inline:
            shortlist = tuple(self._cache.top_reviewers(paper_id, shortlist_size))

        self._count("journal_queries")
        if cache_hit:
            self._count("journal_cache_hits")
        if answer_hit:
            self._count("journal_answer_hits")
        return JournalAnswer(
            paper_id=paper_id,
            groups=groups,
            shortlist=shortlist,
            cache_hit=cache_hit,
            solver=spec.name,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _answer(
        self,
        paper: Paper,
        group_size: int,
        pool_size: int | None,
        spec: SolverSpec,
        top_k: int,
    ) -> tuple[tuple[RankedGroup, ...], bool, bool]:
        """The ranked groups of one question about a paper of the problem.

        Returns the groups, whether the JRA sub-problem was reused, and
        whether the groups were.  A question is solved once and stored on
        the paper's cache entry.
        """
        # Conflict edits on the live container change candidate pools,
        # and a stale sub-problem would silently keep serving the old
        # exclusions — drop the whole cache when the version moved
        # (bounded memory: entries for dead versions never linger).
        if self._jra_cache_version != self._problem.conflicts.version:
            self._drop_jra_cache()
        key = (paper.id, group_size, pool_size)
        entry = self._jra_cache.get(key)
        cache_hit = entry is not None
        if entry is None:
            entry = _JRAEntry(self._build_jra(paper, group_size, pool_size))
            self._jra_cache[key] = entry
        question = (spec.name, top_k)
        groups = entry.answers.get(question)
        if groups is not None:
            return groups, cache_hit, True
        groups = tuple(find_top_k_groups(entry.problem, top_k, spec.factory(top_k=top_k)))
        entry.answers[question] = groups
        return groups, cache_hit, False

    def _build_jra(
        self, paper: Paper, group_size: int, pool_size: int | None
    ) -> JRAProblem:
        excluded: set[str] = set(
            self._problem.conflicts.reviewers_conflicting_with(paper.id)
        )
        if pool_size is not None:
            if pool_size < group_size:
                raise ConfigurationError(
                    f"pool_size ({pool_size}) must be at least the group size "
                    f"({group_size})"
                )
            keep = {
                reviewer_id
                for reviewer_id, _ in self._cache.top_reviewers(paper.id, pool_size)
            }
            excluded |= {
                reviewer_id
                for reviewer_id in self._problem.reviewer_ids
                if reviewer_id not in keep
            }
        return JRAProblem(
            paper=paper,
            reviewers=self._problem.reviewers,
            group_size=group_size,
            excluded_reviewers=excluded,
            scoring=self._problem.scoring,
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_paper(
        self,
        paper: Paper,
        reviewer_workload: int | None = None,
        solver: str | None = None,
        pool_size: int | None = None,
    ) -> EngineDelta:
        """Append a late submission; staff it when an assignment exists.

        Staffing never touches existing groups: the new paper gets an exact
        JRA group drawn from the reviewers with spare capacity (this is the
        paper's journal sub-problem applied inside a conference).  The
        problem's score matrix gains one scored column — the full matrix is
        *not* recomputed.

        ``pool_size`` restricts the staffing candidates to the top
        ``pool_size`` reviewers by score on the new paper (one ``R x T``
        scoring pass — the matrix column does not exist yet), mirroring
        the journal-query knob of the same name: at service scale an exact
        search over a 50-reviewer shortlist is orders of magnitude faster
        than over the whole pool, at a usually negligible quality cost.

        Raises
        ------
        ConfigurationError
            If the paper id already exists in the problem.
        InfeasibleProblemError
            If fewer than ``delta_p`` reviewers have spare capacity.
        """
        started = time.perf_counter()
        with TRACER.span("engine.add_paper", paper=paper.id):
            delta = self._add_paper(
                paper,
                reviewer_workload=reviewer_workload,
                solver=solver,
                pool_size=pool_size,
            )
        self._observe("engine.add_paper.seconds", time.perf_counter() - started)
        return delta

    def _add_paper(
        self,
        paper: Paper,
        reviewer_workload: int | None = None,
        solver: str | None = None,
        pool_size: int | None = None,
    ) -> EngineDelta:
        problem = self._problem
        if paper.id in problem.paper_ids:
            raise ConfigurationError(f"paper {paper.id!r} is already part of the problem")
        workload = (
            reviewer_workload if reviewer_workload is not None else problem.reviewer_workload
        )

        group_ids: tuple[str, ...] = ()
        pair_score_column: Any = None
        if self._assignment is not None:
            if not self._assignment_known_valid():
                problem.validate_assignment(self._assignment, require_complete=True)
                self._mark_assignment_valid()
            if workload < problem.reviewer_workload:
                # A tightened workload can invalidate *existing* loads; catch
                # that here, before anything is committed (the historical
                # full post-validation raised only after the mutation).
                overloaded = [
                    reviewer_id
                    for reviewer_id in problem.reviewer_ids
                    if self._assignment.load(reviewer_id) > workload
                ]
                if overloaded:
                    raise InfeasibleAssignmentError(
                        "lowering reviewer_workload to "
                        f"{workload} would overload reviewers "
                        f"{overloaded[:5]!r}"
                    )
            exhausted = {
                reviewer_id
                for reviewer_id in problem.reviewer_ids
                if self._assignment.load(reviewer_id) >= workload
            }
            # Conflicts can be declared for a paper id before the paper
            # arrives; keep only entries naming reviewers still in the pool
            # so the availability count below stays exact.
            known = set(problem.reviewer_ids)
            excluded = exhausted | (
                set(problem.conflicts.reviewers_conflicting_with(paper.id)) & known
            )
            available = problem.num_reviewers - len(excluded)
            if available < problem.group_size:
                raise InfeasibleProblemError(
                    f"only {available} reviewers have spare capacity for the new "
                    "paper; increase reviewer_workload to absorb it"
                )
            if pool_size is not None and available > pool_size:
                if pool_size < problem.group_size:
                    raise ConfigurationError(
                        f"pool_size ({pool_size}) must be at least the group "
                        f"size ({problem.group_size})"
                    )
                # One scoring pass serves both the shortlist and, through
                # with_additional_paper below, the delta column append.
                pair_score_column = problem.scoring.score_matrix(
                    problem.reviewer_matrix,
                    np.asarray(paper.vector.values, dtype=np.float64)[None, :],
                )[:, 0]
                ranking = np.argsort(-pair_score_column, kind="stable")
                keep: set[str] = set()
                for row in ranking:
                    reviewer_id = problem.reviewer_ids[int(row)]
                    if reviewer_id in excluded:
                        continue
                    keep.add(reviewer_id)
                    if len(keep) == pool_size:
                        break
                excluded = {
                    reviewer_id
                    for reviewer_id in problem.reviewer_ids
                    if reviewer_id not in keep
                }
            jra = JRAProblem(
                paper=paper,
                reviewers=problem.reviewers,
                group_size=problem.group_size,
                excluded_reviewers=excluded,
                scoring=problem.scoring,
            )
            staffing = create_solver("jra", solver or self.DEFAULT_JRA_SOLVER)
            group_ids = staffing.solve(jra).reviewer_ids

        # All checks passed; commit the mutation (the delta layer appends
        # the paper's scored column to the matrix) and staff the paper.
        mutated = problem.with_additional_paper(
            paper, workload, pair_score_column=pair_score_column
        )
        if self._assignment is not None:
            for reviewer_id in group_ids:
                self._assignment.add(reviewer_id, paper.id)
            # Targeted validation: the pre-state was engine-validated and
            # staffing only added the new paper's group, so checking those
            # delta_p pairs (instead of re-walking all P * delta_p) keeps
            # the guarantee at delta cost.
            self._validate_staffed_group(mutated, paper.id, group_ids, workload)
            self._mark_assignment_valid()
        return EngineDelta(
            kind="add_paper",
            affected_papers=(paper.id,),
            added_pairs=tuple((reviewer_id, paper.id) for reviewer_id in sorted(group_ids)),
            removed_pairs=(),
            problem=mutated,
            assignment=self._assignment,
        )

    def _validate_staffed_group(
        self,
        problem: WGRAPProblem,
        paper_id: str,
        group_ids: tuple[str, ...],
        workload: int,
    ) -> None:
        """Check the freshly staffed group against the derived problem.

        Raises :class:`~repro.exceptions.InfeasibleAssignmentError` exactly
        like the full :meth:`WGRAPProblem.validate_assignment` would for a
        defect in these pairs.
        """
        violations: list[str] = []
        if self._assignment.group_size(paper_id) != problem.group_size:
            violations.append(
                f"paper {paper_id!r} has {self._assignment.group_size(paper_id)} "
                f"reviewers, expected delta_p={problem.group_size}"
            )
        for reviewer_id in group_ids:
            if problem.conflicts.is_conflict(reviewer_id, paper_id):
                violations.append(
                    f"conflict of interest: reviewer {reviewer_id!r} on paper "
                    f"{paper_id!r}"
                )
            if self._assignment.load(reviewer_id) > workload:
                violations.append(
                    f"reviewer {reviewer_id!r} has {self._assignment.load(reviewer_id)} "
                    f"papers, more than delta_r={workload}"
                )
        if violations:
            raise InfeasibleAssignmentError("; ".join(violations))

    def withdraw_reviewer(self, reviewer_id: str) -> EngineDelta:
        """Remove a reviewer; re-staff their papers when an assignment exists.

        The vacated slots are refilled by the repair pass (a capacitated
        assignment maximising marginal coverage, with augmenting swaps when
        capacity is tight).  The problem's score matrix drops one row — no
        re-scoring happens at all.  If the remaining pool cannot cover the
        vacated slots the engine state is rolled back before the error
        propagates.

        Raises
        ------
        KeyError
            If the reviewer is not part of the problem.
        InfeasibleProblemError
            If the remaining pool cannot cover the vacated slots.
        """
        started = time.perf_counter()
        with TRACER.span("engine.withdraw_reviewer", reviewer=reviewer_id):
            delta = self._withdraw_reviewer(reviewer_id)
        self._observe("engine.withdraw_reviewer.seconds", time.perf_counter() - started)
        return delta

    def _withdraw_reviewer(self, reviewer_id: str) -> EngineDelta:
        problem = self._problem
        problem.reviewer_index(reviewer_id)  # raises KeyError for unknown reviewers
        if self._assignment is not None and not self._assignment_known_valid():
            problem.validate_assignment(self._assignment, require_complete=True)
            self._mark_assignment_valid()

        affected = (
            tuple(sorted(self._assignment.papers_of(reviewer_id)))
            if self._assignment is not None
            else ()
        )
        before_pairs = (
            set(self._assignment.pairs()) if self._assignment is not None else set()
        )

        mutated = problem.without_reviewer(reviewer_id)
        if self._assignment is None:
            return EngineDelta(
                kind="remove_reviewer",
                affected_papers=affected,
                added_pairs=(),
                removed_pairs=(),
                problem=mutated,
                assignment=None,
            )

        stripped = Assignment(
            pair for pair in self._assignment.pairs() if pair[0] != reviewer_id
        )
        try:
            repaired = complete_assignment(mutated, stripped)
            mutated.validate_assignment(repaired, require_complete=True)
        except Exception:
            # Roll the engine back to the pre-mutation problem — including
            # the revision, counters and row-removal stat the listener
            # already bumped.  The restored problem still holds its own
            # score matrix; only the rankings follow it back.
            mutated.remove_mutation_listener(self._listener)
            self._problem = problem
            self._cache.invalidate(problem)
            self._cache.stats.rows_removed -= 1
            if self._store is not None:
                # The store's listener already applied the withdrawal;
                # re-attaching to the pre-mutation problem rebases it.
                self._store.attach(problem)
            self._drop_jra_cache()
            self._revision -= 1
            self._count("remove_reviewer", -1)
            raise

        after_pairs = set(repaired.pairs())
        self._assignment = repaired
        self._mark_assignment_valid()
        return EngineDelta(
            kind="remove_reviewer",
            affected_papers=affected,
            added_pairs=tuple(sorted(after_pairs - before_pairs)),
            removed_pairs=tuple(sorted(before_pairs - after_pairs)),
            problem=mutated,
            assignment=repaired,
        )

    def update_bids(self, bids: Any) -> int:
        """Merge ``(reviewer_id, paper_id, value)`` bid triples.

        Unknown reviewer or paper ids (:class:`KeyError`) and values
        :meth:`BidMatrix.set` refuses (:class:`ConfigurationError`) are
        rejected before anything is applied, so a bad batch never
        half-commits.  Returns the number of bids recorded.
        """
        triples = [(str(r), str(p), float(v)) for r, p, v in bids]
        for reviewer_id, paper_id, value in triples:
            self._problem.reviewer_index(reviewer_id)
            self._problem.paper_index(paper_id)
            BidMatrix.check(reviewer_id, paper_id, value)
        for reviewer_id, paper_id, value in triples:
            self._bids.set(reviewer_id, paper_id, value)
        if self._store is not None:
            # Mirror into durable storage so from_store() restores them.
            self._store.record_bids(triples)
        self._count("bid_updates", len(triples))
        return len(triples)

    # ------------------------------------------------------------------
    # Evaluation, stats, snapshots
    # ------------------------------------------------------------------
    def evaluate(
        self, include_ratio: bool = True, include_per_paper: bool = False
    ) -> dict[str, Any]:
        """Score the current assignment under the problem's scoring function.

        The summary (score, mean and lowest coverage, counts, solver) is
        computed once and reused until the next mutation or assignment
        install.  The optimality ratio, the per-paper block and the bid
        satisfaction are computed on every call, since conflict edits and
        bids change without a mutation.

        Raises
        ------
        ConfigurationError
            When no assignment has been produced or loaded yet.
        """
        if self._assignment is None:
            raise ConfigurationError(
                "the engine has no assignment yet; run a solve first"
            )
        problem = self._problem
        if self._evaluation is None:
            score = problem.assignment_score(self._assignment)
            self._evaluation = {
                "score": score,
                "mean_coverage": score / problem.num_papers,
                "lowest_coverage": lowest_coverage_score(problem, self._assignment),
                "num_papers": problem.num_papers,
                "num_reviewers": problem.num_reviewers,
                "num_pairs": len(self._assignment),
                "solver": self._last_solver,
            }
        payload = dict(self._evaluation)
        if include_ratio:
            payload["optimality_ratio"] = optimality_ratio(problem, self._assignment)
        if include_per_paper:
            payload["per_paper"] = problem.paper_scores(self._assignment)
        if len(self._bids):
            payload["bid_satisfaction"] = bid_satisfaction(self._assignment, self._bids)
        self._count("evaluations")
        return payload

    def _flat_counters(self) -> dict[str, int]:
        """The historical flat counter keys, derived from the registry."""
        from repro.obs.metrics import Counter

        return {
            name[len("engine."):]: metric.value
            for name, metric in self._registry.items()
            if isinstance(metric, Counter) and name.startswith("engine.")
        }

    def _refresh_absorbed_gauges(self) -> None:
        """Mirror the cache and view-maintenance counters into the registry.

        ``CacheStats`` and ``ViewStats`` stay the single source of truth
        (solvers and the delta layer keep bumping them directly); at
        export time their values land in the registry as ``cache.*`` /
        ``delta.*`` gauges so one namespace carries everything.  Only a
        bound store adds ``store.*`` gauges; a store-less engine has none.
        """
        for key, value in self._cache.stats.as_dict().items():
            self._registry.gauge(f"cache.{key}").set(value)
        for key, value in self._problem.view_stats.as_dict().items():
            self._registry.gauge(f"delta.{key}").set(value)
        store = self._store
        if store is None:
            return
        for key, value in store.describe().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue  # skip kind/path/meta/indexes — gauges are scalars
            self._registry.gauge(f"store.{key}").set(value)
        blocks = store.matrix_backend()
        if blocks is not None:
            for key, value in blocks.describe().items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                self._registry.gauge(f"store.blocks_{key}").set(value)

    def metrics_snapshot(self) -> dict[str, Any]:
        """One JSON-serialisable metrics namespace for this engine.

        Counters and histogram summaries (p50/p95/p99) from the engine's
        registry, the absorbed ``cache.*``/``delta.*`` gauges, plus the
        process-global ``solver.*`` timings.
        """
        self._refresh_absorbed_gauges()
        merged = get_registry().snapshot()
        merged.update(self._registry.snapshot())
        return merged

    def metrics_prometheus(self) -> str:
        """The same namespace in Prometheus text exposition format."""
        self._refresh_absorbed_gauges()
        return get_registry().to_prometheus() + self._registry.to_prometheus()

    def stats(self) -> dict[str, Any]:
        """Engine counters plus the cache's and the view layer's summaries.

        The ``delta`` block carries the compiled-view maintenance counters
        (``delta_applies``, ``recompiles``, ``conflict_patches``) and the
        exact-pruning outcomes (``prune_certified``, ``prune_fallbacks``)
        accumulated across the whole mutation chain the engine has served.
        The ``store`` block is the bound store's ``describe()``, or just
        ``{"kind": "memory"}`` without one.  The historical flat keys are
        kept; the ``metrics`` block is the full registry snapshot (latency
        histograms included).
        """
        return {
            "revision": self._revision,
            "has_assignment": self._assignment is not None,
            "last_solver": self._last_solver,
            "last_score": self._last_score,
            "num_bids": len(self._bids),
            "jra_problems_cached": len(self._jra_cache),
            "journal_answers_cached": sum(
                len(entry.answers) for entry in self._jra_cache.values()
            ),
            "parallel_workers": (
                self._parallel.resolved_workers() if self._parallel is not None else 1
            ),
            **self._flat_counters(),
            "cache": self._cache.describe(),
            "delta": self._problem.view_stats.as_dict(),
            "store": (
                self._store.describe() if self._store is not None else {"kind": "memory"}
            ),
            "metrics": self.metrics_snapshot(),
        }

    def to_snapshot(self, entries: Callable[..., Any] = entry_dicts) -> dict[str, Any]:
        """JSON-serialisable snapshot of the resumable engine state.

        ``entries`` builds the reviewer and paper lists
        (:func:`repro.data.io.entry_dicts`).
        """
        return engine_snapshot_to_dict(
            problem=self._problem,
            assignment=self._assignment,
            bids=tuple(self._bids.pairs()),
            metadata={
                "revision": self._revision,
                "last_solver": self._last_solver,
                "last_score": self._last_score,
            },
            entries=entries,
        )

    def save_snapshot(self, path: Any) -> Any:
        """Write the snapshot to ``path``; returns the path written."""
        return save_engine_snapshot(self.to_snapshot(), path)

    @classmethod
    def from_snapshot(
        cls, snapshot: EngineSnapshot, parallel: ParallelConfig | None = None
    ) -> "AssignmentEngine":
        """Rebuild an engine from a deserialised snapshot."""
        bids = BidMatrix(
            {
                (reviewer_id, paper_id): value
                for reviewer_id, paper_id, value in snapshot.bids
            }
        )
        engine = cls(
            snapshot.problem,
            assignment=snapshot.assignment,
            bids=bids,
            parallel=parallel,
        )
        engine._last_solver = snapshot.metadata.get("last_solver")
        engine._last_score = snapshot.metadata.get("last_score")
        # The revision counter is part of the resumable state: a recovered
        # engine must report the same revision as one that never crashed.
        engine._revision = int(snapshot.metadata.get("revision", 0))
        return engine

    @classmethod
    def load(cls, path: Any, parallel: ParallelConfig | None = None) -> "AssignmentEngine":
        """Rebuild an engine from a snapshot file."""
        return cls.from_snapshot(load_engine_snapshot(path), parallel=parallel)

    @classmethod
    def from_store(
        cls,
        store: "SqliteProblemStore",
        *,
        assignment: Assignment | None = None,
        bids: Any = None,
        metadata: dict[str, Any] | None = None,
        parallel: ParallelConfig | None = None,
    ) -> "AssignmentEngine":
        """Build an engine over a durable problem store.

        The problem is materialised from the store, bids default to the
        store's persisted ones, and the engine keeps the store attached:
        mutations become transactional row deltas, committed at
        :meth:`sync_store` (which is what checkpoints call).
        """
        problem = store.load_problem()
        if bids is None:
            bids = store.load_bids()
        bid_matrix = BidMatrix(
            {
                (reviewer_id, paper_id): value
                for reviewer_id, paper_id, value in bids
            }
        )
        engine = cls(
            problem,
            assignment=assignment,
            bids=bid_matrix,
            parallel=parallel,
            store=store,
        )
        metadata = metadata or {}
        engine._last_solver = metadata.get("last_solver")
        engine._last_score = metadata.get("last_score")
        engine._revision = int(metadata.get("revision", 0))
        return engine

    def __repr__(self) -> str:
        return (
            f"AssignmentEngine(P={self._problem.num_papers}, "
            f"R={self._problem.num_reviewers}, revision={self._revision}, "
            f"assignment={'yes' if self._assignment is not None else 'no'})"
        )
