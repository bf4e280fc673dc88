"""Every scorer in ``src/`` equals the object-path reference, bitwise.

``src/`` scores through one implementation: ``ScoringFunction.coverage``
for one group vector, and the compiled view's batched kernel behind
``WGRAPProblem.assignment_score`` and ``paper_scores``, which the solvers'
result scores, ``evaluate`` and ``repro.metrics`` read.  The reference is
:mod:`tests.oracles.scoring`, the object-path scorer those replaced, run
on a :func:`~tests.conformance.cold_clone`.  Each grid cell × mutation
chain is built through :func:`~tests.conformance.apply_chain`, so its view
is delta-derived (late papers, withdrawals) and conflict-patched: an answer
from the maintained view must equal evaluation from scratch (the
invariant of Berkholz et al.'s FO+MOD queries under updates).

Three assignments are scored per case: SDGA's on the cold clone, every
other pair of it, and the empty assignment.  A hand-built instance adds a
late paper with zero topic mass.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.entities import Paper, Reviewer
from repro.core.problem import WGRAPProblem
from repro.core.scoring import available_scoring_functions
from repro.metrics.quality import SuperiorityBreakdown, lowest_coverage_score, superiority_ratio
from repro.service.engine import AssignmentEngine
from repro.service.registry import create_solver
from tests.conformance import CHAINS, GRID, apply_chain, cold_clone, make_instance
from tests.oracles import scoring as reference

CASES = [(grid_id, chain_id) for grid_id in GRID for chain_id in CHAINS]


def _assignments(cold: WGRAPProblem) -> dict[str, Assignment]:
    sdga = create_solver("cra", "SDGA").solve(cold).assignment
    return {
        "sdga": sdga,
        "every-other-pair": Assignment(list(sdga.pairs())[::2]),
        "empty": Assignment(),
    }


@lru_cache(maxsize=None)
def _grid_case(grid_id: str, chain_id: str):
    mutated = apply_chain(make_instance(GRID[grid_id]), chain_id)
    cold = cold_clone(mutated)
    return mutated, cold, _assignments(cold)


def _zero_mass_case(scoring: str):
    """Four papers, one late and with zero topic mass, through the delta path."""
    vectors = np.random.default_rng(11).dirichlet(np.full(4, 0.6), size=9)
    papers = [Paper(id=f"p{index}", vector=vectors[index]) for index in range(3)]
    reviewers = [Reviewer(id=f"r{index}", vector=vectors[3 + index]) for index in range(6)]
    problem = WGRAPProblem(
        papers, reviewers, group_size=2, reviewer_workload=2,
        conflicts=[("r0", "p1")], scoring=scoring,
    )
    problem.dense_view()
    problem.warm_pair_scores()
    mutated = problem.with_additional_paper(Paper(id="blank", vector=np.zeros(4)))
    cold = cold_clone(mutated)
    return mutated, cold, _assignments(cold)


def _hex(scores: dict[str, float]) -> dict[str, str]:
    return {paper_id: float.hex(score) for paper_id, score in scores.items()}


def _reference_scores(cold: WGRAPProblem, assignment: Assignment) -> dict[str, float]:
    return {
        paper_id: reference.paper_score(cold, assignment, paper_id)
        for paper_id in cold.paper_ids
    }


def _reference_breakdown(
    first: dict[str, float], second: dict[str, float], tolerance: float = 1e-9
) -> SuperiorityBreakdown:
    wins = ties = losses = 0
    for paper_id, first_score in first.items():
        second_score = second[paper_id]
        if abs(first_score - second_score) <= tolerance:
            ties += 1
        elif first_score > second_score:
            wins += 1
        else:
            losses += 1
    return SuperiorityBreakdown(wins=wins, ties=ties, losses=losses)


def _reference_payload(cold: WGRAPProblem, assignment: Assignment) -> dict:
    per_paper = _reference_scores(cold, assignment)
    score = reference.assignment_score(cold, assignment)
    return {
        "score": score,
        "mean_coverage": score / cold.num_papers,
        "lowest_coverage": min(per_paper.values()),
        "num_papers": cold.num_papers,
        "num_reviewers": cold.num_reviewers,
        "num_pairs": len(assignment),
        "solver": None,
        "per_paper": per_paper,
    }


def _check_assignment_scorers(mutated, cold, assignments) -> None:
    references = {name: _reference_scores(cold, a) for name, a in assignments.items()}
    for name, assignment in assignments.items():
        scores = mutated.paper_scores(assignment)
        assert list(scores) == list(mutated.paper_ids), name
        assert _hex(scores) == _hex(references[name]), name
        assert float.hex(mutated.assignment_score(assignment)) == float.hex(
            reference.assignment_score(cold, assignment)
        ), name
        assert float.hex(lowest_coverage_score(mutated, assignment)) == float.hex(
            min(references[name].values())
        ), name
    for first, second in ((a, b) for a in assignments for b in assignments):
        assert superiority_ratio(
            mutated, assignments[first], assignments[second]
        ) == _reference_breakdown(references[first], references[second]), (first, second)


def _check_group_scores(mutated, cold) -> None:
    members = mutated.reviewer_ids[1:1 + mutated.group_size]
    for paper_id in mutated.paper_ids:
        jra = mutated.to_jra(paper_id)
        group = [rid for rid in members if rid not in jra.excluded_reviewers]
        expected = reference.paper_score(
            cold, Assignment((rid, paper_id) for rid in group), paper_id
        )
        assert float.hex(jra.group_score(group)) == float.hex(expected), paper_id


def _check_evaluate_payloads(mutated, cold, assignments) -> None:
    for name, assignment in assignments.items():
        payload = AssignmentEngine(mutated, assignment=assignment).evaluate(
            include_ratio=False, include_per_paper=True
        )
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            _reference_payload(cold, assignment), sort_keys=True
        ), name


@pytest.mark.parametrize(("grid_id", "chain_id"), CASES)
def test_assignment_scorers_match_the_reference(grid_id, chain_id):
    _check_assignment_scorers(*_grid_case(grid_id, chain_id))


@pytest.mark.parametrize(("grid_id", "chain_id"), CASES)
def test_jra_group_score_matches_the_reference(grid_id, chain_id):
    mutated, cold, _ = _grid_case(grid_id, chain_id)
    _check_group_scores(mutated, cold)


@pytest.mark.parametrize(("grid_id", "chain_id"), CASES)
def test_evaluate_payload_matches_the_reference(grid_id, chain_id):
    _check_evaluate_payloads(*_grid_case(grid_id, chain_id))


@pytest.mark.parametrize("scoring", available_scoring_functions())
def test_zero_mass_paper_scores_zero_on_every_path(scoring):
    mutated, cold, assignments = _zero_mass_case(scoring)
    assert mutated.paper_scores(assignments["sdga"])["blank"] == 0.0
    _check_assignment_scorers(mutated, cold, assignments)
    _check_group_scores(mutated, cold)
    _check_evaluate_payloads(mutated, cold, assignments)


def test_unknown_reviewer_raises_key_error():
    mutated, cold, _ = _grid_case("compact", "interleaved-all-three")
    ghost = Assignment([("ghost", mutated.paper_ids[0])])
    for scorer in (mutated.assignment_score, mutated.paper_scores):
        with pytest.raises(KeyError):
            scorer(ghost)
    with pytest.raises(KeyError):
        reference.assignment_score(cold, ghost)
