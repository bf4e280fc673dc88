"""Index-space compilation of a :class:`~repro.core.problem.WGRAPProblem`.

The object layer of :mod:`repro.core.problem` is the right API for
building, validating and mutating instances, but it is the wrong layer to
run a solver's inner loop on: scoring one candidate move through the
object API costs two string-keyed dict lookups, a ``TopicVector``
allocation and a fresh fancy-index ``max`` — per call.  Multiplied by the
``R x P`` candidate space of the CRA solvers, the object layer dominates
the runtime long before the arithmetic does.

:class:`DenseProblem` is the compiled counterpart, in the spirit of
incremental view maintenance: the *static* structure of the instance
(topic matrices, the conflict/feasibility relation, constraint bounds,
paper topic masses) is materialised once into contiguous arrays, and every
solver step is then answered by a vectorised kernel over integer indices —
marginal gains of all reviewers for one paper in a single broadcast, batch
stage-gain matrices, batch scoring of every replace/exchange candidate.

All kernels are **exactly result-preserving**: they perform the same
elementwise operations and the same reductions (in the same order) as
``ScoringFunction.coverage`` / ``gain_vector``, so gains and scores are
bitwise-equal to them and to the object-path reference in
``tests/oracles/scoring.py`` — a property the solvers rely on and
``tests/test_dense_kernels.py`` pins to 0 ulp.

Obtain the view through :meth:`WGRAPProblem.dense_view
<repro.core.problem.WGRAPProblem.dense_view>`, which caches it on the
problem so every solver, the assignment engine and the worker pool share
one compilation per instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.assignment import Assignment

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.core.problem import WGRAPProblem
    from repro.parallel.config import ParallelConfig

__all__ = ["DenseProblem"]


class DenseProblem:
    """A read-only, index-space view of one :class:`WGRAPProblem`.

    Attributes
    ----------
    problem:
        The compiled problem (kept for id lookups and scoring access).
    reviewer_matrix, paper_matrix:
        Contiguous ``(R, T)`` / ``(P, T)`` float64 topic matrices.
    feasible:
        ``(R, P)`` boolean mask, ``True`` where the pair is *not* a
        conflict of interest — the compiled form of
        :meth:`WGRAPProblem.is_feasible_pair`.
    paper_totals, safe_totals:
        ``(P,)`` per-paper topic masses (the scoring denominators);
        ``safe_totals`` replaces zeros by 1 so kernels can divide blindly
        and zero out the zero-mass papers afterwards.
    reviewer_pos, paper_pos:
        ``id -> index`` dicts (one dict lookup instead of a method call).
    """

    __slots__ = (
        "problem",
        "num_reviewers",
        "num_papers",
        "num_topics",
        "group_size",
        "reviewer_workload",
        "stage_workload",
        "reviewer_matrix",
        "paper_matrix",
        "feasible",
        "paper_totals",
        "safe_totals",
        "zero_mass",
        "reviewer_pos",
        "paper_pos",
        "versions",
        "view_stats",
        "_id_rank",
        "_empty_stage_exact",
    )

    def __init__(self, problem: "WGRAPProblem") -> None:
        self.problem = problem
        #: shared maintenance counters (see :class:`repro.core.delta.ViewStats`);
        #: a full compile through this constructor is a "recompile", the
        #: delta constructors of :mod:`repro.core.delta` bypass it.
        self.view_stats = problem.view_stats
        self.view_stats.recompiles += 1
        self.num_reviewers = problem.num_reviewers
        self.num_papers = problem.num_papers
        self.num_topics = problem.num_topics
        self.group_size = problem.group_size
        self.reviewer_workload = problem.reviewer_workload
        self.stage_workload = problem.stage_workload

        self.reviewer_matrix = np.ascontiguousarray(problem.reviewer_matrix)
        self.paper_matrix = np.ascontiguousarray(problem.paper_matrix)
        self.paper_totals = self.paper_matrix.sum(axis=1)
        self.zero_mass = self.paper_totals <= 0.0
        self.safe_totals = np.where(self.zero_mass, 1.0, self.paper_totals)

        self.reviewer_pos = {rid: i for i, rid in enumerate(problem.reviewer_ids)}
        self.paper_pos = {pid: j for j, pid in enumerate(problem.paper_ids)}

        feasible = np.ones((self.num_reviewers, self.num_papers), dtype=bool)
        conflicts = problem.conflicts
        #: the problem versions this view reflects; dense_view() keys its
        #: maintenance on them (conflict moves -> in-place mask patch,
        #: paper/reviewer moves -> recompile, though those cannot happen on
        #: one immutable instance through the public API).
        self.versions = problem.versions
        if conflicts:
            for paper_idx, paper_id in enumerate(problem.paper_ids):
                for reviewer_id in conflicts.reviewers_conflicting_with(paper_id):
                    row = self.reviewer_pos.get(reviewer_id)
                    if row is not None:
                        feasible[row, paper_idx] = False
        feasible.setflags(write=False)
        self.feasible = feasible
        self._id_rank: np.ndarray | None = None
        self._empty_stage_exact: bool | None = None

    @property
    def conflict_version(self) -> int:
        """The conflict-set version the feasibility mask currently reflects."""
        return self.versions.conflicts

    # ------------------------------------------------------------------
    # Id/index helpers
    # ------------------------------------------------------------------
    @property
    def id_rank(self) -> np.ndarray:
        """``(R,)`` lexicographic rank of every reviewer's id.

        Solvers that iterate group members "in sorted id order" (the
        object-path convention) sort index lists by this rank so index
        space reproduces the exact same visit order even when ids do not
        sort like their positions.
        """
        if self._id_rank is None:
            ids = self.problem.reviewer_ids
            rank = np.empty(len(ids), dtype=np.int64)
            for position, index in enumerate(sorted(range(len(ids)), key=ids.__getitem__)):
                rank[index] = position
            self._id_rank = rank
        return self._id_rank

    def sorted_member_rows(self, assignment: Assignment, paper_id: str) -> list[int]:
        """Reviewer rows of a paper's group, in sorted-id order."""
        pos = self.reviewer_pos
        rows = [pos[rid] for rid in assignment.reviewers_of(paper_id)]
        rank = self.id_rank
        rows.sort(key=rank.__getitem__)
        return rows

    def member_rows(self, assignment: Assignment) -> list[list[int]]:
        """Per-paper reviewer rows (paper order; member order unspecified)."""
        pos = self.reviewer_pos
        return [
            [pos[rid] for rid in assignment.reviewers_of(paper_id)]
            for paper_id in self.problem.paper_ids
        ]

    def loads(self, assignment: Assignment) -> np.ndarray:
        """``(R,)`` current paper count of every reviewer."""
        loads = np.zeros(self.num_reviewers, dtype=np.int64)
        pos = self.reviewer_pos
        for reviewer_id in assignment.reviewers():
            loads[pos[reviewer_id]] = assignment.load(reviewer_id)
        return loads

    def pair_scores(self, parallel: "ParallelConfig | None" = None) -> np.ndarray:
        """The cached ``(R, P)`` single-reviewer score matrix.

        Delegates to :meth:`WGRAPProblem.warm_pair_scores
        <repro.core.problem.WGRAPProblem.warm_pair_scores>` so the matrix
        is computed once per problem instance no matter how many solvers,
        engine requests or dense kernels read it.
        """
        return self.problem.warm_pair_scores(parallel)

    # ------------------------------------------------------------------
    # Group vectors
    # ------------------------------------------------------------------
    def group_vectors(
        self, assignment: Assignment, member_rows: list[list[int]] | None = None
    ) -> np.ndarray:
        """``(P, T)`` aggregated group vector of every paper (writable copy).

        The per-topic ``max`` over each paper's members (zero without
        members) is exact whatever the member order.  One fixed-width
        gather computes every paper at once: a short group is padded by
        repeating its own rows, which leaves its ``max`` unchanged, and an
        empty group's row is zeroed after the gather.
        """
        if member_rows is None:
            member_rows = self.member_rows(assignment)
        width = max(map(len, member_rows), default=0)
        if width == 0:
            return np.zeros((self.num_papers, self.num_topics), dtype=np.float64)
        index = np.array(
            [((rows or [0]) * width)[:width] for rows in member_rows], dtype=np.intp
        )
        vectors = self.reviewer_matrix[index].max(axis=1)
        vectors[np.array([not rows for rows in member_rows])] = 0.0
        return vectors

    # ------------------------------------------------------------------
    # Scoring kernels (bitwise-equal to ScoringFunction.coverage)
    # ------------------------------------------------------------------
    def paper_score(self, group_vector: np.ndarray, paper_idx: int) -> float:
        """Coverage of one paper by a group vector."""
        return self.problem.scoring.coverage(group_vector, self.paper_matrix[paper_idx])

    def paper_scores(self, group_vectors: np.ndarray) -> np.ndarray:
        """``(P,)`` coverage of every paper by its group vector."""
        scoring = self.problem.scoring
        numerators = scoring.topic_contribution(group_vectors, self.paper_matrix).sum(axis=1)
        scores = numerators / self.safe_totals
        scores[self.zero_mass] = 0.0
        return scores

    def assignment_score(self, assignment: Assignment) -> float:
        """Total coverage ``c(A)`` of an assignment.

        The per-paper scores come from one batched kernel and are summed
        left to right in paper order with Python ``sum``, the summation
        order of the object-path reference.
        """
        return float(sum(self.paper_scores(self.group_vectors(assignment)).tolist()))

    def gains_for_paper(self, group_vector: np.ndarray, paper_idx: int) -> np.ndarray:
        """``(R,)`` marginal gain of every reviewer for one paper."""
        return self.problem.scoring.gain_vector(
            group_vector, self.reviewer_matrix, self.paper_matrix[paper_idx]
        )

    def gains_for_rows(
        self, group_vector: np.ndarray, paper_idx: int, rows: np.ndarray
    ) -> np.ndarray:
        """Marginal gains of a *subset* of reviewers for one paper.

        Entry ``i`` is bitwise-equal to ``gains_for_paper(...)[rows[i]]``:
        the kernel performs the same elementwise operations and the same
        per-row topic reduction as :meth:`ScoringFunction.gain_vector
        <repro.core.scoring.ScoringFunction.gain_vector>`, only gathered to
        the requested rows — the evaluation kernel behind the exact pruned
        candidate generator of :mod:`repro.core.delta`.
        """
        paper_vector = self.paper_matrix[paper_idx]
        denominator = float(paper_vector.sum())
        if denominator <= 0.0:
            return np.zeros(len(rows), dtype=np.float64)
        scoring = self.problem.scoring
        current = float(scoring.topic_contribution(group_vector, paper_vector).sum())
        extended = np.maximum(group_vector[None, :], self.reviewer_matrix[rows])
        numerators = scoring.topic_contribution(extended, paper_vector[None, :]).sum(axis=1)
        return (numerators - current) / denominator

    def gain_matrix(
        self,
        group_vectors: np.ndarray,
        paper_indices: np.ndarray | None = None,
        paper_block: int = 64,
    ) -> np.ndarray:
        """Marginal gains of every reviewer for many papers in one kernel.

        Parameters
        ----------
        group_vectors:
            ``(K, T)`` current group vectors, aligned with ``paper_indices``
            (or with all papers when ``paper_indices`` is ``None``).
        paper_indices:
            Optional ``(K,)`` paper rows to evaluate; defaults to every
            paper in order.
        paper_block:
            Papers per block, bounding the ``(block, R, T)`` broadcast
            intermediate to cache size (same blocking idea as
            :func:`repro.parallel.sharding.blocked_score_matrix`).

        Returns
        -------
        numpy.ndarray
            ``(K, R)`` gains, row ``k`` bitwise-equal to
            ``gains_for_paper(group_vectors[k], paper_indices[k])``.
        """
        scoring = self.problem.scoring
        reviewer_matrix = self.reviewer_matrix
        if paper_indices is None:
            papers = self.paper_matrix
            safe = self.safe_totals
            zero = self.zero_mass
        else:
            papers = self.paper_matrix[paper_indices]
            safe = self.safe_totals[paper_indices]
            zero = self.zero_mass[paper_indices]
        count = papers.shape[0]
        gains = np.empty((count, self.num_reviewers), dtype=np.float64)
        for start in range(0, count, paper_block):
            stop = min(start + paper_block, count)
            block_groups = group_vectors[start:stop]
            block_papers = papers[start:stop]
            current = scoring.topic_contribution(block_groups, block_papers).sum(axis=1)
            extended = np.maximum(
                block_groups[:, None, :], reviewer_matrix[None, :, :]
            )
            numerators = scoring.topic_contribution(
                extended, block_papers[:, None, :]
            ).sum(axis=2)
            gains[start:stop] = (numerators - current[:, None]) / safe[start:stop, None]
        gains[zero] = 0.0
        return gains

    def candidate_scores(self, group_vector: np.ndarray, paper_idx: int) -> np.ndarray:
        """``(R,)`` score of ``group + {candidate}`` for every candidate.

        Entry ``c`` is bitwise-equal to :meth:`paper_score` of the group
        extended with reviewer ``c`` — the kernel behind batch replace-move
        evaluation.
        """
        total = self.paper_totals[paper_idx]
        if total <= 0.0:
            return np.zeros(self.num_reviewers, dtype=np.float64)
        scoring = self.problem.scoring
        extended = np.maximum(group_vector[None, :], self.reviewer_matrix)
        numerators = scoring.topic_contribution(
            extended, self.paper_matrix[paper_idx][None, :]
        ).sum(axis=1)
        return numerators / float(total)

    def candidate_scores_for_rows(
        self, group_vector: np.ndarray, paper_idx: int, rows: np.ndarray
    ) -> np.ndarray:
        """:meth:`candidate_scores` restricted to a subset of candidates.

        Entry ``i`` is bitwise-equal to ``candidate_scores(...)[rows[i]]``
        (same elementwise operations, same per-row reduction) — used by the
        pruned replace-move search of the local-search refiner to score
        only the candidates whose admissible upper bound survives.
        """
        total = self.paper_totals[paper_idx]
        if total <= 0.0:
            return np.zeros(len(rows), dtype=np.float64)
        scoring = self.problem.scoring
        extended = np.maximum(group_vector[None, :], self.reviewer_matrix[rows])
        numerators = scoring.topic_contribution(
            extended, self.paper_matrix[paper_idx][None, :]
        ).sum(axis=1)
        return numerators / float(total)

    def scores_with_reviewer(
        self,
        group_vectors: np.ndarray,
        paper_indices: np.ndarray,
        reviewer_idx: int,
    ) -> np.ndarray:
        """Score of ``group_vectors[k] + {reviewer}`` against paper ``k``.

        The exchange-move kernel: one call scores a fixed reviewer joining
        many different groups (one per slot) at once.
        """
        scoring = self.problem.scoring
        extended = np.maximum(group_vectors, self.reviewer_matrix[reviewer_idx][None, :])
        numerators = scoring.topic_contribution(
            extended, self.paper_matrix[paper_indices]
        ).sum(axis=1)
        scores = numerators / self.safe_totals[paper_indices]
        scores[self.zero_mass[paper_indices]] = 0.0
        return scores

    # ------------------------------------------------------------------
    # Stage inputs (SDGA stages, SRA refills, repair rounds)
    # ------------------------------------------------------------------
    def stage_inputs(
        self, assignment: Assignment, stage_capped: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gain matrix, forbidden mask and capacities for one stage step.

        The compiled equivalent of the per-pair Python loops the stage
        solvers used to run: gains come from :meth:`gain_matrix`, the
        forbidden mask is the conflict mask plus each paper's current
        members, and capacities are the remaining global workloads —
        optionally clipped to the SDGA per-stage workload
        (``stage_capped``), falling back to the global remainder when the
        clip leaves too little capacity for one reviewer per paper.

        When the assignment is still empty (the first SDGA stage — 1/delta_p
        of every solve), the marginal gain of a reviewer equals their pair
        score exactly, so the gains are served from the shared (and
        delta-maintained) pair-score matrix instead of re-running the gain
        kernel.  The shortcut is taken only when it is provably bitwise-equal
        (non-negative reviewer vectors, zero contribution of the empty
        group — see :meth:`_empty_stage_gains`).
        """
        member_rows = self.member_rows(assignment)
        if not any(member_rows):
            gains = self._empty_stage_gains()
        else:
            gains = self.gain_matrix(self.group_vectors(assignment, member_rows))
        forbidden = np.array(~self.feasible.T)
        loads = np.zeros(self.num_reviewers, dtype=np.int64)
        for paper_idx, rows in enumerate(member_rows):
            if rows:
                forbidden[paper_idx, rows] = True
                loads[rows] += 1
        remaining = np.maximum(self.reviewer_workload - loads, 0)
        if stage_capped:
            capacities = np.minimum(self.stage_workload, remaining)
            if int(capacities.sum()) < self.num_papers:
                # The per-stage cap can leave too little headroom for the
                # final stage in the non-integral case; the global workload
                # is the binding constraint there (Section 4.3.2).
                capacities = remaining
        else:
            capacities = remaining
        return gains, forbidden, capacities

    def _empty_stage_gains(self) -> np.ndarray:
        """``(P, R)`` gains of the empty-group stage, from the pair scores.

        With an empty group, ``gain_matrix`` evaluates
        ``(f(max(0, r), p).sum() - f(0, p).sum()) / total`` per pair.  When
        every reviewer value is non-negative (``max(0, r) == r``) and the
        empty group contributes exactly ``0.0`` to every paper, that is the
        pair score cell for cell — same elementwise kernel, same topic
        reduction, a subtraction of exact ``0.0`` — so the shared matrix
        can be transposed into place without any scoring work.  Both
        preconditions are checked once per view; scoring functions that
        violate them (none of the registered ones do) fall back to the
        gain kernel.
        """
        if self._empty_stage_exact is None:
            scoring = self.problem.scoring
            zero_group = np.zeros((1, self.num_topics), dtype=np.float64)
            empty_contribution = scoring.topic_contribution(
                zero_group, self.paper_matrix
            ).sum(axis=1)
            self._empty_stage_exact = bool(
                np.all(empty_contribution == 0.0)
                and (self.num_reviewers == 0 or float(self.reviewer_matrix.min()) >= 0.0)
            )
        if not self._empty_stage_exact:
            zero_vectors = np.zeros((self.num_papers, self.num_topics), dtype=np.float64)
            return self.gain_matrix(zero_vectors)
        return np.ascontiguousarray(self.pair_scores().T)
