"""Float safety of BBA's submodular completion bound.

:meth:`BranchAndBoundSolver._completion_bound
<repro.jra.bba.BranchAndBoundSolver._completion_bound>` returns a bound and
a slack derived from the rounding of its sums; the search prunes only when
``bound + slack`` cannot beat the threshold.  These properties call the
seam directly on small random pools (at most 9 reviewers, ``T <= 6``,
``delta_p <= 3``, every registered scoring) and enumerate every completion
of a random partial group:

* ``bound + slack`` is at least the solver's score of every completion;
* with one member left (``m = 1``) the bound is tight: it is the best
  completion's score, to within the slack.

Vectors come from a Dirichlet and from the tie-heavy set
``{0, 0.25, 0.5, 1}``, where the discrete scorings tie exactly.

The search computes each stage's gains once, over the whole pool, and
branches on ``gains[candidates]``.  A third property pins the premise of
that one gain path: ``gain_vector`` gives a row the same bits whichever
other rows share its batch.

Tier-1 runs these at a modest depth.  ``--hypothesis-profile bba-deep``
(registered in ``tests/conftest.py``) replaces it with the deep run, about
ten times the examples.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.scoring import available_scoring_functions, get_scoring_function
from repro.jra.bba import BranchAndBoundSolver

TIE_VALUES = np.array([0.0, 0.25, 0.5, 1.0])


def depth(max_examples: int) -> settings:
    """The tier-1 depth; a selected ``bba-deep`` profile replaces it."""
    if settings.get_current_profile_name() == "bba-deep":
        return settings()
    return settings(max_examples=max_examples, deadline=None)


def _vectors(draw, rng, rows, num_topics):
    """``rows`` topic vectors: Dirichlet draws or the tie-heavy set."""
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([0.3, 1.0, 3.0]))
        return rng.dirichlet(np.full(num_topics, alpha), size=rows)
    return rng.choice(TIE_VALUES, size=(rows, num_topics))


@st.composite
def partial_groups(draw, remaining=None):
    """A pool, a paper, a partial group and the reviewers still available."""
    num_reviewers = draw(st.integers(min_value=2, max_value=9))
    num_topics = draw(st.integers(min_value=1, max_value=6))
    group_size = draw(st.integers(min_value=1, max_value=3))
    scoring = get_scoring_function(draw(st.sampled_from(available_scoring_functions())))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    vectors = _vectors(draw, rng, num_reviewers + 1, num_topics)
    reviewer_matrix, paper_vector = vectors[:-1], vectors[-1]

    if remaining is None:
        remaining = draw(st.integers(min_value=1, max_value=group_size))
    remaining = min(remaining, group_size)
    order = rng.permutation(num_reviewers)
    num_members = group_size - remaining
    members = order[:num_members]
    # The search marks tried siblings visited too: hide a random few more.
    hidden = order[num_members:num_members + draw(st.integers(min_value=0, max_value=3))]
    available = np.ones(num_reviewers, dtype=bool)
    available[members] = False
    available[hidden] = False
    assume(int(available.sum()) >= remaining)

    group_vector = np.zeros(num_topics)
    for member in members:
        group_vector = np.maximum(group_vector, reviewer_matrix[member])
    return scoring, reviewer_matrix, paper_vector, group_vector, available, remaining


def _completion_bound(scoring, reviewer_matrix, paper_vector, group_vector, available, remaining):
    """The seam on the stage gains and coverage the search computes for ``g``."""
    return BranchAndBoundSolver._completion_bound(
        scoring.gain_vector(group_vector, reviewer_matrix, paper_vector),
        scoring.coverage(group_vector, paper_vector),
        available,
        remaining,
        paper_vector.shape[0],
    )


def _completion_scores(scoring, reviewer_matrix, paper_vector, group_vector, available, remaining):
    """The solver's score of every completion by ``remaining`` available reviewers."""
    scores = []
    for completion in combinations(np.flatnonzero(available).tolist(), remaining):
        vector = group_vector
        for reviewer in completion:
            vector = np.maximum(vector, reviewer_matrix[reviewer])
        scores.append(scoring.coverage(vector, paper_vector))
    return scores


@depth(300)
@given(partial_groups())
def test_bound_plus_slack_covers_every_completion(case):
    scoring, reviewer_matrix, paper_vector, group_vector, available, remaining = case
    bound, slack = _completion_bound(*case)
    assert slack >= 0.0
    for score in _completion_scores(
        scoring, reviewer_matrix, paper_vector, group_vector, available, remaining
    ):
        assert score <= bound + slack


@depth(200)
@given(partial_groups(remaining=1))
def test_single_member_bound_is_the_best_completion(case):
    scoring, reviewer_matrix, paper_vector, group_vector, available, remaining = case
    bound, slack = _completion_bound(*case)
    best = max(
        _completion_scores(
            scoring, reviewer_matrix, paper_vector, group_vector, available, remaining
        )
    )
    assert best <= bound + slack
    assert bound <= best + slack


@st.composite
def pools_and_rows(draw):
    """A pool, a paper, a group vector and a random row subset of the pool."""
    num_reviewers = draw(st.integers(min_value=1, max_value=40))
    num_topics = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    vectors = _vectors(draw, rng, num_reviewers + 1, num_topics)
    reviewer_matrix, paper_vector = vectors[:-1], vectors[-1]
    members = rng.permutation(num_reviewers)[: draw(st.integers(min_value=0, max_value=3))]
    group_vector = np.zeros(num_topics)
    for member in members:
        group_vector = np.maximum(group_vector, reviewer_matrix[member])
    size = draw(st.integers(min_value=1, max_value=num_reviewers))
    rows = rng.permutation(num_reviewers)[:size]
    return reviewer_matrix, paper_vector, group_vector, rows


@depth(200)
@given(pools_and_rows())
def test_gain_rows_do_not_depend_on_their_batch(case):
    reviewer_matrix, paper_vector, group_vector, rows = case
    for name in available_scoring_functions():
        scoring = get_scoring_function(name)
        pool = scoring.gain_vector(group_vector, reviewer_matrix, paper_vector)
        for subset in (rows, rows[:1]):
            batch = scoring.gain_vector(group_vector, reviewer_matrix[subset], paper_vector)
            # Bits, not ==: == would let -0.0 stand for 0.0.
            assert pool[subset].view(np.uint64).tolist() == batch.view(np.uint64).tolist(), name
