"""Stochastic Refinement Algorithm (SRA) — Section 4.4, Algorithm 3.

SRA post-processes an assignment (normally the output of SDGA).  Each
round it

1. estimates, for every assigned pair ``(r, p)``, the probability that the
   pair belongs to the optimal assignment — Equation 10: proportional to
   the pair's coverage score, penalised when the reviewer scores highly on
   many papers (a TF-IDF-like normalisation) and blended towards the
   uniform ``1/R`` by an exponential decay over refinement rounds;
2. removes exactly one reviewer from every paper, sampling the victim with
   probability proportional to ``1 - P(r|p)``;
3. refills every paper with one reviewer by solving a single capacitated
   linear assignment (the same machinery as an SDGA stage), and
4. keeps going until the best score seen has not improved for ``omega``
   consecutive rounds (or an optional time budget runs out).

The best assignment seen across all rounds is returned, so refinement can
never make the SDGA result worse.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.assignment.transportation import solve_capacitated_assignment
from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRAResult, CRASolver
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.exceptions import ConfigurationError
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["RefinementRound", "StochasticRefiner", "SDGAWithRefinementSolver"]


@dataclass(frozen=True)
class RefinementRound:
    """History entry recorded after each refinement round."""

    round_index: int
    elapsed_seconds: float
    current_score: float
    best_score: float


class StochasticRefiner:
    """Refine an existing assignment with the paper's stochastic process.

    Parameters
    ----------
    convergence_window:
        ``omega`` — stop after this many consecutive rounds without an
        improvement of the best score (the paper's default is 10).
    decay:
        ``lambda`` of the exponential decay in Equation 10.
    max_rounds:
        Hard cap on the number of rounds (safety net).
    time_budget:
        Optional wall-clock budget in seconds (used by the Figure 12
        experiment, which plots quality against refinement time).
    backend:
        Assignment backend for the refill step (``"hungarian"`` or ``"flow"``).
    seed:
        Seed of the pseudo-random generator driving the removals.
    probability_model:
        Which removal-probability model to use:

        * ``"decayed"`` (default) — Equation 10, the coverage-based model
          blended towards uniform with an exponential decay;
        * ``"coverage"`` — Equation 9 without the decay;
        * ``"uniform"`` — the naive ``P(r|p) = 1/R`` strawman the paper
          mentions and rejects.

        The alternatives exist for the ablation benchmark.
    """

    def __init__(
        self,
        convergence_window: int = 10,
        decay: float = 0.05,
        max_rounds: int = 1000,
        time_budget: float | None = None,
        backend: str = "hungarian",
        seed: int | None = 0,
        probability_model: str = "decayed",
    ) -> None:
        if convergence_window < 1:
            raise ConfigurationError("convergence_window (omega) must be at least 1")
        if decay < 0:
            raise ConfigurationError("decay (lambda) must be non-negative")
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be at least 1")
        if probability_model not in {"decayed", "coverage", "uniform"}:
            raise ConfigurationError(
                "probability_model must be 'decayed', 'coverage' or 'uniform'"
            )
        self._omega = convergence_window
        self._decay = decay
        self._max_rounds = max_rounds
        self._time_budget = time_budget
        self._backend = backend
        self._seed = seed
        self._probability_model = probability_model

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def refine(
        self, problem: WGRAPProblem, assignment: Assignment
    ) -> tuple[Assignment, dict[str, Any]]:
        """Run the stochastic refinement and return the best assignment found."""
        problem.validate_assignment(assignment, require_complete=True)
        rng = np.random.default_rng(self._seed)
        score_of = self._scorer(problem)
        pair_scores = problem.pair_score_matrix()
        # Denominator of Equation 9: how strongly each reviewer scores
        # across *all* papers (reviewers good everywhere are penalised).
        reviewer_mass = pair_scores.sum(axis=1)
        reviewer_mass = np.where(reviewer_mass > 0.0, reviewer_mass, 1.0)

        current = assignment.copy()
        best = assignment.copy()
        best_score = score_of(best)
        rounds_without_improvement = 0
        history: list[RefinementRound] = []
        started = time.perf_counter()

        for round_index in range(1, self._max_rounds + 1):
            if self._time_budget is not None:
                if time.perf_counter() - started >= self._time_budget:
                    break
            if rounds_without_improvement >= self._omega:
                break

            with TRACER.span("sra.round", round=round_index):
                self._remove_one_reviewer_per_paper(problem, current, pair_scores,
                                                    reviewer_mass, round_index, rng)
                self._refill(problem, current)

            current_score = score_of(current)
            if current_score > best_score + 1e-12:
                best = current.copy()
                best_score = current_score
                rounds_without_improvement = 0
            else:
                rounds_without_improvement += 1
            history.append(
                RefinementRound(
                    round_index=round_index,
                    elapsed_seconds=time.perf_counter() - started,
                    current_score=current_score,
                    best_score=best_score,
                )
            )

        stats: dict[str, Any] = {
            "rounds": len(history),
            "best_score": best_score,
            "converged": rounds_without_improvement >= self._omega,
            "history": history,
            "omega": self._omega,
        }
        return best, stats

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _remove_one_reviewer_per_paper(
        self,
        problem: WGRAPProblem,
        assignment: Assignment,
        pair_scores: np.ndarray,
        reviewer_mass: np.ndarray,
        round_index: int,
        rng: np.random.Generator,
    ) -> None:
        """Equation 10 removals: drop one reviewer from every paper in place.

        The per-member keep probabilities come from one fancy-indexed slice
        of the pair-score matrix per paper (the same elementwise arithmetic
        as the historical per-member scalar loop, so the sampled victims —
        and the consumed random stream — are identical under a fixed seed).
        """
        uniform_floor = 1.0 / problem.num_reviewers
        if self._probability_model == "decayed":
            decay_factor = float(np.exp(-self._decay * round_index))
        else:
            decay_factor = 1.0

        for paper_idx, paper_id in enumerate(problem.paper_ids):
            members = sorted(assignment.reviewers_of(paper_id))
            if not members:
                continue
            rows = [problem.reviewer_index(reviewer_id) for reviewer_id in members]
            if self._probability_model == "uniform":
                keep_probabilities = np.full(len(members), uniform_floor)
            else:
                keep_probabilities = np.maximum(
                    uniform_floor,
                    decay_factor * pair_scores[rows, paper_idx] / reviewer_mass[rows],
                )

            removal_weights = 1.0 - keep_probabilities / keep_probabilities.sum()
            if removal_weights.sum() <= 0.0:
                removal_weights = np.full(len(members), 1.0 / len(members))
            else:
                removal_weights = removal_weights / removal_weights.sum()
            victim = rng.choice(len(members), p=removal_weights)
            assignment.remove(members[int(victim)], paper_id)

    @staticmethod
    def _scorer(problem: WGRAPProblem) -> Callable[[Assignment], float]:
        """The per-round assignment scorer: the dense view's batched kernel."""
        return problem.dense_view().assignment_score

    @staticmethod
    def _refill_inputs(
        problem: WGRAPProblem, assignment: Assignment
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stage inputs of one uncapped refill round.

        They come from :meth:`DenseProblem.stage_inputs
        <repro.core.dense.DenseProblem.stage_inputs>`, which reads the
        shared (delta-maintained) pair-score matrix through the problem's
        cache chain — after an engine mutation the refill pays only the
        gain kernel, never a full re-score.
        """
        return problem.dense_view().stage_inputs(assignment, stage_capped=False)

    def _refill(self, problem: WGRAPProblem, assignment: Assignment) -> None:
        """One Stage-WGRAP step that gives every paper one reviewer back."""
        gains, forbidden, capacities = self._refill_inputs(problem, assignment)
        result = solve_capacitated_assignment(
            gains, capacities, forbidden=forbidden, backend=self._backend
        )
        for paper_idx, reviewer_idx in enumerate(result.row_to_col):
            assignment.add(problem.reviewer_ids[reviewer_idx], problem.paper_ids[paper_idx])


class SDGAWithRefinementSolver(CRASolver):
    """SDGA followed by stochastic refinement — the paper's SDGA-SRA.

    Parameters
    ----------
    refiner:
        A configured :class:`StochasticRefiner`; a default one is created
        when omitted.
    base_solver:
        The solver whose output is refined; defaults to
        :class:`~repro.cra.sdga.StageDeepeningGreedySolver`.
    """

    name = "SDGA-SRA"

    def __init__(
        self,
        refiner: StochasticRefiner | None = None,
        base_solver: CRASolver | None = None,
    ) -> None:
        self._refiner = refiner or StochasticRefiner()
        self._base_solver = base_solver or StageDeepeningGreedySolver()

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        base_result: CRAResult = self._base_solver.solve(problem)
        refined, refine_stats = self._refiner.refine(problem, base_result.assignment)
        stats: dict[str, Any] = {
            "base_solver": self._base_solver.name,
            "base_score": base_result.score,
            "base_elapsed_seconds": base_result.elapsed_seconds,
            **{f"refinement_{key}": value for key, value in refine_stats.items()},
        }
        return refined, stats
