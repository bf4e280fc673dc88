"""Delta maintenance of compiled views + exact pruned candidate generation.

PR 3's :mod:`repro.core.dense` made a *single* solve fast by compiling the
problem into index space once.  This module makes the *mutate -> resolve*
loop fast, in the spirit of incremental view maintenance (answer each
update with work proportional to the delta, not the database):

* **Delta-derived views** — when :meth:`WGRAPProblem.with_additional_paper
  <repro.core.problem.WGRAPProblem.with_additional_paper>` /
  :meth:`~repro.core.problem.WGRAPProblem.without_reviewer` construct a
  derived problem, the source's compiled :class:`~repro.core.dense.DenseProblem`
  and its cached pair-score matrix are carried over by delta: a late paper
  appends one column to the shared pair-score matrix, ``paper_totals`` and
  the feasibility mask (``R`` scoring evaluations instead of ``R * P``); a
  withdrawn reviewer drops one row with **zero** re-scoring.  Every carried
  array is bitwise-equal to what a cold recompile would produce — the
  object path stays the oracle, pinned by ``tests/test_delta_view.py``.
  The *scoring* work — the dominant ``O(R * P * T)`` term — is strictly
  delta-proportional; the index-space arrays themselves are carried by
  cheap copies (the pair-score matrix — the chain's only one, see
  :func:`built_score_matrix` — amortised through a chain-shared
  :class:`ScoreArena` or the store's :class:`ScoreBlocks`, the boolean
  mask and topic matrices by plain ``O(R * P / 8)`` / ``O(P * T)``
  memcpys that are orders of magnitude below the re-scoring they
  replace).
* **In-place conflict patches** — the live
  :class:`~repro.core.constraints.ConflictOfInterest` container keeps a
  changelog; a compiled view that has fallen behind replays the tail of
  that log directly into its ``(R, P)`` feasibility mask instead of
  recompiling (work proportional to the number of edits).
* **Exact pruned candidate generation** — per-paper reviewer shortlists
  ordered by an *admissible* upper bound on marginal gain (the pair score:
  submodularity gives ``gain(r | G) <= gain(r | {}) = c(r, p)`` for every
  scoring function whose per-topic contribution is monotone and
  non-negative, which the registry contract requires).  A column argmax is
  answered by evaluating exact gains for only the top of the shortlist and
  *certifying* the result against the next candidate's bound; whenever the
  bound cannot certify the argmax the generator falls back to the full
  column, so the answer is always bitwise-identical to the unpruned scan.

All maintenance work is counted on a :class:`ViewStats` object shared
along the whole mutation chain of a problem, which the assignment engine
exposes through its ``stats`` request (``delta_applies``, ``recompiles``,
``conflict_patches``, ``prune_certified``, ``prune_fallbacks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dense import DenseProblem
from repro.obs.trace import get_tracer

TRACER = get_tracer()

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.core.entities import Paper
    from repro.core.problem import WGRAPProblem
    from repro.parallel.config import ParallelConfig
    from repro.store.blocks import MemmapScoreStore

__all__ = [
    "PRUNE_MARGIN",
    "ScoreArena",
    "ScoreBlocks",
    "ViewStats",
    "PrunedCandidateGenerator",
    "appended_score_column",
    "built_score_matrix",
    "dense_view_with_paper",
    "dense_view_without_reviewer",
    "dropped_score_row",
    "patch_conflicts_in_place",
]

#: Safety margin used by every certification test.  The admissible bound
#: holds exactly in real arithmetic; in float64 both sides carry a few
#: ulps of rounding from the topic-axis reduction (relative error O(T *
#: eps) ~ 1e-14 for the T ~ 30 workloads of the paper).  Certifying only a
#: strictly larger-by-margin winner keeps the pruned result bitwise-equal
#: to the full scan even when rounding nudges a bound below a true gain;
#: anything closer than the margin falls back to the full column.
PRUNE_MARGIN = 1e-9


@dataclass
class ViewStats:
    """Counters describing how compiled views were maintained.

    One instance is shared along a problem's whole mutation chain (like
    mutation listeners), so a long-lived engine reads cumulative numbers.

    Attributes
    ----------
    recompiles:
        Full :class:`~repro.core.dense.DenseProblem` compilations.
    delta_applies:
        Mutations absorbed by delta derivation (caches carried over to the
        derived problem instead of being rebuilt from scratch).
    conflict_patches:
        In-place feasibility-mask repairs from the conflict changelog.
    prune_certified:
        Candidate-generator answers certified by the admissible bound
        (exact without evaluating the full column).
    prune_fallbacks:
        Candidate-generator answers where the bound could not certify the
        argmax and the full column was evaluated.
    full_builds, scored_cells:
        Cold builds of the chain's pair-score matrix, and the cells scored
        for it (``R * P`` per build, ``R`` per late paper).  Reported by
        :class:`~repro.service.cache.CacheStats`, not by :meth:`as_dict`.
    """

    recompiles: int = 0
    delta_applies: int = 0
    conflict_patches: int = 0
    prune_certified: int = 0
    prune_fallbacks: int = 0
    full_builds: int = 0
    scored_cells: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for the engine's ``stats`` request)."""
        return {
            "recompiles": self.recompiles,
            "delta_applies": self.delta_applies,
            "conflict_patches": self.conflict_patches,
            "prune_certified": self.prune_certified,
            "prune_fallbacks": self.prune_fallbacks,
        }


# ----------------------------------------------------------------------
# The pair-score matrix: one cold build per chain, then delta-derived
# ----------------------------------------------------------------------
class ScoreArena:
    """A shared, geometrically grown backing buffer for pair-score matrices.

    Appending a column to a C-ordered ``(R, P)`` matrix with
    ``np.concatenate`` copies all ``R * P`` cells.  Along a mutation chain
    that turns every late paper into a full-matrix copy, so the chain
    shares one over-allocated buffer instead: each problem's matrix is the
    read-only view of the first ``used`` columns, and appending writes one
    column into the reserved tail.  A column is claimed in place only when
    the parent owns the buffer *tip* (``used`` equals the parent's column
    count); deriving twice from the same parent — a branched chain — falls
    back to a fresh buffer, so sibling problems can never see each other's
    columns.
    """

    __slots__ = ("buffer", "used")

    def __init__(self, buffer: np.ndarray, used: int) -> None:
        self.buffer = buffer
        self.used = used


class ScoreBlocks:
    """The memmap store and generation behind a problem's pair-score view.

    The view is the store's *live* mapping only while its generation is
    current and the store holds exactly its columns; only then do appends
    and row drops write into the blocks directly.  Any other view (a
    branched chain, a rolled-back withdrawal) is first copied into a fresh
    generation, so no view ever maps a column a sibling appended.
    """

    __slots__ = ("store", "generation")

    def __init__(self, store: "MemmapScoreStore") -> None:
        self.store = store
        self.generation = store.generation

    def live_store(self, scores: np.ndarray) -> "MemmapScoreStore":
        """The store, with ``scores`` as its live mapping."""
        store = self.store
        if self.generation != store.generation or scores.shape[1] != store.cols:
            store.write_all(scores)
        return store


def built_score_matrix(
    problem: "WGRAPProblem", parallel: "ParallelConfig | None" = None
) -> tuple[np.ndarray, ScoreBlocks | None]:
    """Score ``problem``'s whole ``(R, P)`` matrix from scratch.

    The chain's matrix picks its medium here: block-by-block into the
    problem's :attr:`~repro.core.problem.WGRAPProblem.score_blocks` when
    a store has bound them (peak RAM one column block), else one RAM
    array.
    Returns the read-only matrix and its :class:`ScoreBlocks` or ``None``.
    """
    num_reviewers, num_papers = problem.num_reviewers, problem.num_papers
    papers = problem.paper_matrix
    # ``parallel`` only when set, keeping the serial call shape tests wrap.
    options = {} if parallel is None else {"parallel": parallel}
    score = partial(problem.scoring.score_matrix, problem.reviewer_matrix, **options)
    with TRACER.span("cache.full_build", reviewers=num_reviewers, papers=num_papers):
        blocks = problem.score_blocks
        if blocks is None:
            scores, medium = score(papers), None
            scores.setflags(write=False)
        else:
            blocks.build(num_reviewers, num_papers, lambda j0, j1: score(papers[j0:j1]))
            scores, medium = blocks.view(writable=False), ScoreBlocks(blocks)
    stats = problem.view_stats
    stats.full_builds += 1
    stats.scored_cells += num_reviewers * num_papers
    return scores, medium


def appended_score_column(
    problem: "WGRAPProblem",
    parent_scores: np.ndarray,
    parent_medium: ScoreArena | ScoreBlocks | None,
    paper: "Paper",
    column: np.ndarray | None = None,
) -> tuple[np.ndarray, ScoreArena | ScoreBlocks]:
    """The pair-score matrix of ``problem`` with the new paper's column scored.

    ``parent_scores`` is the source problem's cached ``(R, P)`` matrix; the
    result appends one freshly scored ``(R, 1)`` column — ``R`` evaluations
    instead of ``R * (P + 1)``.  The column goes through
    :func:`repro.parallel.sharding.score_appended_columns` (the same
    scoring kernel a cold rebuild uses), and that kernel's topic reduction
    is per-column, so the appended matrix is bitwise-equal to a full
    re-score of the derived problem.  A caller that already scored the
    column through the same kernel — e.g. the engine's staffing-shortlist
    pass — can hand it in via ``column`` so the pairs are scored exactly
    once per mutation (and counted once).  The column goes to the parent's
    medium: its :class:`ScoreBlocks`, or a :class:`ScoreArena` shared along
    the chain, so the full-matrix copy is paid only when the arena must
    grow (or the chain branched), not on every append.
    """
    from repro.parallel.sharding import score_appended_columns

    if column is None:
        column = score_appended_columns(
            problem.scoring,
            problem.reviewer_matrix,
            np.asarray(paper.vector.values, dtype=np.float64)[None, :],
        )
    else:
        column = np.asarray(column, dtype=np.float64).reshape(
            problem.num_reviewers, 1
        )
    problem.view_stats.scored_cells += problem.num_reviewers
    if isinstance(parent_medium, ScoreBlocks):
        store = parent_medium.live_store(parent_scores)
        store.append_column(column[:, 0])
        return store.view(writable=False), ScoreBlocks(store)
    num_reviewers, num_papers = parent_scores.shape
    arena = parent_medium
    if (
        arena is None
        or arena.used != num_papers
        or arena.buffer.shape[0] != num_reviewers
        or arena.buffer.shape[1] <= num_papers
    ):
        capacity = num_papers + 1 + max(16, (num_papers + 1) // 8)
        data = np.empty((num_reviewers, capacity), dtype=np.float64)
        data[:, :num_papers] = parent_scores
        arena = ScoreArena(data, num_papers)
    arena.buffer[:, num_papers] = column[:, 0]
    arena.used = num_papers + 1
    scores = arena.buffer[:, : num_papers + 1]
    scores.setflags(write=False)
    return scores, arena


def dropped_score_row(
    parent_scores: np.ndarray,
    parent_medium: ScoreArena | ScoreBlocks | None,
    row: int,
) -> tuple[np.ndarray, ScoreBlocks | None]:
    """The pair-score matrix without reviewer ``row``, in the parent's medium.

    Pair scores are independent across reviewers: no re-scoring at all.
    """
    if isinstance(parent_medium, ScoreBlocks):
        store = parent_medium.live_store(parent_scores)
        store.drop_row(row)
        return store.view(writable=False), ScoreBlocks(store)
    scores = np.delete(parent_scores, row, axis=0)
    scores.setflags(write=False)
    return scores, None


# ----------------------------------------------------------------------
# Delta-derived dense views
# ----------------------------------------------------------------------
def _blank_view(problem: "WGRAPProblem") -> DenseProblem:
    """An uninitialised view shell bound to ``problem`` (no compilation)."""
    view = DenseProblem.__new__(DenseProblem)
    view.problem = problem
    view.num_reviewers = problem.num_reviewers
    view.num_papers = problem.num_papers
    view.num_topics = problem.num_topics
    view.group_size = problem.group_size
    view.reviewer_workload = problem.reviewer_workload
    view.stage_workload = problem.stage_workload
    view.versions = problem.versions
    view.view_stats = problem.view_stats
    view._id_rank = None
    view._empty_stage_exact = None
    return view


def dense_view_with_paper(
    parent: DenseProblem, problem: "WGRAPProblem", paper: "Paper"
) -> DenseProblem:
    """Derive the compiled view of ``source.with_additional_paper(paper)``.

    The reviewer-side arrays (and the id ranks) are shared with the parent
    view outright; the paper-side arrays gain one appended entry; the
    feasibility mask gains one column built from the new paper's conflicts
    only.  Every array matches a full compile of ``problem`` bitwise.
    """
    with TRACER.span("delta.append_paper", paper=paper.id):
        return _dense_view_with_paper(parent, problem, paper)


def _dense_view_with_paper(
    parent: DenseProblem, problem: "WGRAPProblem", paper: "Paper"
) -> DenseProblem:
    view = _blank_view(problem)
    view.reviewer_matrix = parent.reviewer_matrix
    view.reviewer_pos = parent.reviewer_pos
    view._id_rank = parent._id_rank

    paper_row = np.asarray(paper.vector.values, dtype=np.float64)[None, :]
    paper_matrix = np.concatenate([parent.paper_matrix, paper_row], axis=0)
    view.paper_matrix = np.ascontiguousarray(paper_matrix)
    # The appended total goes through the same per-row reduction a full
    # compile's paper_matrix.sum(axis=1) performs.
    tail_total = view.paper_matrix[-1:].sum(axis=1)
    view.paper_totals = np.concatenate([parent.paper_totals, tail_total])
    view.zero_mass = view.paper_totals <= 0.0
    view.safe_totals = np.where(view.zero_mass, 1.0, view.paper_totals)

    view.paper_pos = dict(parent.paper_pos)
    view.paper_pos[paper.id] = view.num_papers - 1

    column = np.ones((view.num_reviewers, 1), dtype=bool)
    for reviewer_id in problem.conflicts.reviewers_conflicting_with(paper.id):
        row = view.reviewer_pos.get(reviewer_id)
        if row is not None:
            column[row, 0] = False
    feasible = np.concatenate([parent.feasible, column], axis=1)
    feasible.setflags(write=False)
    view.feasible = feasible
    return view


def dense_view_without_reviewer(
    parent: DenseProblem, problem: "WGRAPProblem", reviewer_id: str
) -> DenseProblem:
    """Derive the compiled view of ``source.without_reviewer(reviewer_id)``.

    The paper-side arrays are shared with the parent view; the reviewer
    matrix and the feasibility mask drop one row (no re-scoring, pair
    relations are independent across reviewers); the id ranks are rebuilt
    lazily since relative ranks shift past the removed reviewer.
    """
    with TRACER.span("delta.drop_reviewer", reviewer=reviewer_id):
        return _dense_view_without_reviewer(parent, problem, reviewer_id)


def _dense_view_without_reviewer(
    parent: DenseProblem, problem: "WGRAPProblem", reviewer_id: str
) -> DenseProblem:
    row = parent.reviewer_pos[reviewer_id]
    view = _blank_view(problem)
    view.paper_matrix = parent.paper_matrix
    view.paper_totals = parent.paper_totals
    view.safe_totals = parent.safe_totals
    view.zero_mass = parent.zero_mass
    view.paper_pos = parent.paper_pos

    view.reviewer_matrix = np.ascontiguousarray(
        np.delete(parent.reviewer_matrix, row, axis=0)
    )
    view.reviewer_pos = {rid: i for i, rid in enumerate(problem.reviewer_ids)}
    feasible = np.delete(parent.feasible, row, axis=0)
    feasible.setflags(write=False)
    view.feasible = feasible
    return view


def patch_conflicts_in_place(
    view: DenseProblem, changes: tuple[tuple[str, str, bool], ...], version: int
) -> DenseProblem:
    """Replay conflict edits directly into a view's feasibility mask.

    ``changes`` is the tail of the conflict changelog past the version the
    view compiled against (see :meth:`ConflictOfInterest.changes_since
    <repro.core.constraints.ConflictOfInterest.changes_since>`); each entry
    flips one cell of the ``(R, P)`` mask, so the repair costs the number
    of edits instead of an ``R x P`` recompile.  Edits naming entities the
    view does not know are ignored (they cannot appear in an assignment of
    this problem anyway).  The view object — and therefore every array a
    caller obtained from it earlier — stays the same; only the mask cells
    change.
    """
    with TRACER.span("delta.conflict_patch", edits=len(changes)):
        return _patch_conflicts_in_place(view, changes, version)


def _patch_conflicts_in_place(
    view: DenseProblem, changes: tuple[tuple[str, str, bool], ...], version: int
) -> DenseProblem:
    feasible = view.feasible
    feasible.setflags(write=True)
    try:
        reviewer_pos = view.reviewer_pos
        paper_pos = view.paper_pos
        for reviewer_id, paper_id, is_conflict in changes:
            row = reviewer_pos.get(reviewer_id)
            column = paper_pos.get(paper_id)
            if row is not None and column is not None:
                feasible[row, column] = not is_conflict
    finally:
        feasible.setflags(write=False)
    view.versions = view.versions._replace(conflicts=version)
    view.view_stats.conflict_patches += 1
    return view


# ----------------------------------------------------------------------
# Exact pruned candidate generation
# ----------------------------------------------------------------------
class PrunedCandidateGenerator:
    """Exact column argmax over marginal gains via top-k shortlists.

    For every paper the generator maintains an *admissible upper bound*
    per reviewer on the marginal gain of joining the paper's group:

    * initially the pair score (submodularity:
      ``gain(r | G) <= gain(r | {}) = c(r, p)`` for monotone,
      non-negative per-topic contributions);
    * after a reviewer's gain has been evaluated exactly, that value —
      groups only ever grow, and submodularity makes gains non-increasing
      in the group, so the last exact evaluation stays an upper bound
      (the CELF lazy-evaluation invariant, here batched and certified).

    A column argmax evaluates exact gains for only the ``width`` eligible
    candidates with the largest bounds and *certifies* the winner against
    the largest unevaluated bound; when certification fails (winner within
    :data:`PRUNE_MARGIN` of the bound) the full column is evaluated
    instead — so the answer is always bitwise-identical to masking the
    full :meth:`DenseProblem.gains_for_paper
    <repro.core.dense.DenseProblem.gains_for_paper>` column and taking its
    ``max``/``argmax`` (first-row tie order included), which is exactly
    the contract ``tests/test_property_pruning.py`` pins.

    The bound-tightening invariant requires each paper's group vector to
    be *non-decreasing* across calls (greedy semantics: members are only
    ever added).  Use one generator per constructive solve; for searches
    that shrink groups, create a fresh generator.

    Parameters
    ----------
    dense:
        The compiled view to generate candidates for.
    width:
        Shortlist width per evaluation; ``None`` picks a default scaled to
        the group size.  A width of ``num_reviewers`` disables pruning
        while keeping the identical code path.
    """

    def __init__(self, dense: DenseProblem, width: int | None = None) -> None:
        self._dense = dense
        self._scores = dense.pair_scores()
        if width is None:
            width = max(16, 4 * dense.group_size)
        self._width = max(1, min(int(width), dense.num_reviewers))
        #: a full-width generator prunes nothing; it keeps the identical
        #: code path but stays silent in the prune counters
        self._counting = self._width < dense.num_reviewers
        #: per-paper upper bounds on the current marginal gains
        self._bounds: dict[int, np.ndarray] = {}

    @property
    def width(self) -> int:
        """The shortlist width in use."""
        return self._width

    def _column_bounds(self, paper_idx: int) -> np.ndarray:
        bounds = self._bounds.get(paper_idx)
        if bounds is None:
            bounds = np.array(self._scores[:, paper_idx])
            self._bounds[paper_idx] = bounds
        return bounds

    def column_argmax(
        self, paper_idx: int, group_vector: np.ndarray, eligible: np.ndarray
    ) -> tuple[float, int]:
        """Exact ``(max gain, argmax row)`` over the eligible reviewers.

        Returns ``(-inf, -1)`` when no reviewer is eligible.  Ties are
        broken by the smallest row index, matching ``argmax`` on the full
        masked column.
        """
        dense = self._dense
        bounds = self._column_bounds(paper_idx)
        masked = np.where(eligible, bounds, -np.inf)
        if eligible.size > self._width:
            split = np.argpartition(-masked, self._width)
            head = split[: self._width]
            head = head[np.isfinite(masked[head])]
            tail_bound = float(masked[split[self._width :]].max())
        else:
            head = np.flatnonzero(eligible)
            tail_bound = float("-inf")
        if head.size == 0:
            return float("-inf"), -1
        gains = dense.gains_for_rows(group_vector, paper_idx, head)
        # The exact values are valid bounds for every later (larger) group.
        bounds[head] = gains
        best = float(gains.max())
        if not np.isfinite(tail_bound) or best > tail_bound + PRUNE_MARGIN:
            if self._counting:
                dense.view_stats.prune_certified += 1
            return best, int(head[gains == best].min())
        # The bound cannot separate the shortlist winner from the
        # unevaluated tail: evaluate the full column.
        if self._counting:
            dense.view_stats.prune_fallbacks += 1
        column = dense.gains_for_paper(group_vector, paper_idx)
        bounds[:] = column
        column = np.where(eligible, column, -np.inf)
        row = int(column.argmax())
        return float(column[row]), row
