"""Property tests for the exact pruned candidate generation layer.

Two families of guarantees keep :mod:`repro.core.delta` honest:

* the **upper bound is admissible** — the marginal gain of any reviewer
  for any group never exceeds their pair score (to float rounding), for
  every registered scoring function, random instance and ``delta_p``;
* the **pruned answers are bitwise-exact** — the generator's column
  argmax equals the full masked scan (tie order included) at any width,
  and the solvers that prune internally (Greedy, LocalSearch replace
  moves) return exactly what their unpruned ``tests/oracles`` references
  return, across random instances and ``delta_p`` values.

The JRA top-k answer is checked for honesty: every reported score is the
group's true score, in descending order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.assignment import Assignment
from repro.core.delta import PRUNE_MARGIN, PrunedCandidateGenerator
from repro.core.scoring import available_scoring_functions
from repro.cra.greedy import GreedySolver
from repro.cra.local_search import LocalSearchRefiner
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.data.synthetic import make_problem
from repro.jra.topk import find_top_k_groups
from tests.oracles import LocalSearchOracle, NaiveGreedyOracle
from tests.oracles.flow import has_feasible_assignment


@st.composite
def wgrap_instances(draw):
    """A random WGRAP instance plus a seeded partial assignment."""
    num_papers = draw(st.integers(min_value=4, max_value=12))
    num_reviewers = draw(st.integers(min_value=8, max_value=26))
    group_size = draw(st.integers(min_value=1, max_value=4))
    num_topics = draw(st.integers(min_value=3, max_value=10))
    scoring = draw(st.sampled_from(available_scoring_functions()))
    conflict_ratio = draw(st.sampled_from([0.0, 0.05, 0.15]))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    try:
        problem = make_problem(
            num_papers=num_papers,
            num_reviewers=num_reviewers,
            num_topics=num_topics,
            group_size=group_size,
            seed=seed,
            conflict_ratio=conflict_ratio,
            scoring=scoring,
        )
    except Exception:  # dense conflicts can make a small instance infeasible
        assume(False)
    per_paper = draw(st.integers(min_value=0, max_value=group_size))
    width = draw(st.integers(min_value=1, max_value=num_reviewers))
    return problem, per_paper, width, seed


def _partial_assignment(problem, seed: int, per_paper: int) -> Assignment:
    rng = np.random.default_rng(seed)
    assignment = Assignment()
    loads = {rid: 0 for rid in problem.reviewer_ids}
    for paper_id in problem.paper_ids:
        candidates = [
            rid
            for rid in problem.candidate_reviewers(paper_id)
            if loads[rid] < problem.reviewer_workload
        ]
        count = min(per_paper, len(candidates))
        for index in rng.choice(len(candidates), size=count, replace=False):
            assignment.add(candidates[int(index)], paper_id)
            loads[candidates[int(index)]] += 1
    return assignment


@settings(max_examples=40, deadline=None)
@given(wgrap_instances())
def test_pair_score_bound_is_admissible(instance):
    """``gain(r | G, p) <= c(r, p)`` for every pair, group and scoring."""
    problem, per_paper, _, seed = instance
    dense = problem.dense_view()
    assignment = _partial_assignment(problem, seed, per_paper)
    group_vectors = dense.group_vectors(assignment)
    scores = dense.pair_scores()
    for paper_idx in range(problem.num_papers):
        gains = dense.gains_for_paper(group_vectors[paper_idx], paper_idx)
        assert np.all(gains <= scores[:, paper_idx] + PRUNE_MARGIN)


@settings(max_examples=40, deadline=None)
@given(wgrap_instances())
def test_pruned_column_argmax_equals_full_scan(instance):
    """Generator answers == full masked max/argmax, bitwise, any width."""
    problem, per_paper, width, seed = instance
    dense = problem.dense_view()
    assignment = _partial_assignment(problem, seed, per_paper)
    group_vectors = dense.group_vectors(assignment)
    generator = PrunedCandidateGenerator(dense, width=width)
    rng = np.random.default_rng(seed + 1)
    for paper_idx in range(problem.num_papers):
        eligible = dense.feasible[:, paper_idx] & (
            rng.random(problem.num_reviewers) < 0.8
        )
        value, row = generator.column_argmax(
            paper_idx, group_vectors[paper_idx], eligible
        )
        column = np.where(
            eligible,
            dense.gains_for_paper(group_vectors[paper_idx], paper_idx),
            -np.inf,
        )
        if not eligible.any():
            assert value == -np.inf and row == -1
            continue
        assert value == column.max()
        assert row == int(column.argmax())


@settings(max_examples=25, deadline=None)
@given(wgrap_instances())
def test_pruned_greedy_equals_naive_oracle(instance):
    problem, _, _, _ = instance
    # A solver can only raise on an instance with no assignment at all.
    assume(has_feasible_assignment(problem))
    pruned = GreedySolver().solve(problem)
    naive = NaiveGreedyOracle().solve(problem)
    assert pruned.assignment == naive.assignment
    assert pruned.score == naive.score
    assert pruned.stats["iterations"] == naive.stats["iterations"]


@settings(max_examples=15, deadline=None)
@given(wgrap_instances(), st.sampled_from(["all", "replace"]))
def test_pruned_local_search_equals_object_oracle(instance, moves):
    problem, _, _, _ = instance
    assume(has_feasible_assignment(problem))
    base = StageDeepeningGreedySolver().solve(problem).assignment
    pruned, pruned_stats = LocalSearchRefiner(max_rounds=3, moves=moves).refine(
        problem, base
    )
    reference, reference_stats = LocalSearchOracle(
        max_rounds=3, moves=moves
    ).refine(problem, base)
    assert pruned == reference
    assert pruned_stats["final_score"] == reference_stats["final_score"]
    assert pruned_stats["moves_applied"] == reference_stats["moves_applied"]


@settings(max_examples=20, deadline=None)
@given(wgrap_instances(), st.integers(min_value=1, max_value=3),
       st.sampled_from(["bba", "bfs"]))
def test_topk_scores_are_honest_and_descending(instance, k, method):
    problem, _, _, _ = instance
    jra = problem.to_jra(problem.papers[0])
    shortlist = find_top_k_groups(jra, k, method=method)
    scores = [entry.score for entry in shortlist]
    for entry in shortlist:
        assert jra.group_score(entry.reviewer_ids) == entry.score
    assert scores == sorted(scores, reverse=True)
