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
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.scoring import available_scoring_functions, get_scoring_function
from repro.jra.bba import BranchAndBoundSolver

TIE_VALUES = np.array([0.0, 0.25, 0.5, 1.0])


@st.composite
def partial_groups(draw, remaining=None):
    """A pool, a paper, a partial group and the reviewers still available."""
    num_reviewers = draw(st.integers(min_value=2, max_value=9))
    num_topics = draw(st.integers(min_value=1, max_value=6))
    group_size = draw(st.integers(min_value=1, max_value=3))
    scoring = get_scoring_function(draw(st.sampled_from(available_scoring_functions())))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([0.3, 1.0, 3.0]))
        vectors = rng.dirichlet(np.full(num_topics, alpha), size=num_reviewers + 1)
    else:
        vectors = rng.choice(TIE_VALUES, size=(num_reviewers + 1, num_topics))
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


def _completion_scores(scoring, reviewer_matrix, paper_vector, group_vector, available, remaining):
    """The solver's score of every completion by ``remaining`` available reviewers."""
    scores = []
    for completion in combinations(np.flatnonzero(available).tolist(), remaining):
        vector = group_vector
        for reviewer in completion:
            vector = np.maximum(vector, reviewer_matrix[reviewer])
        scores.append(scoring.coverage(vector, paper_vector))
    return scores


@settings(max_examples=300, deadline=None)
@given(partial_groups())
def test_bound_plus_slack_covers_every_completion(case):
    scoring, reviewer_matrix, paper_vector, group_vector, available, remaining = case
    bound, slack, gains = BranchAndBoundSolver._completion_bound(
        scoring, group_vector, reviewer_matrix, paper_vector, available, remaining
    )
    assert slack >= 0.0
    np.testing.assert_array_equal(
        gains, scoring.gain_vector(group_vector, reviewer_matrix, paper_vector)
    )
    for score in _completion_scores(
        scoring, reviewer_matrix, paper_vector, group_vector, available, remaining
    ):
        assert score <= bound + slack


@settings(max_examples=200, deadline=None)
@given(partial_groups(remaining=1))
def test_single_member_bound_is_the_best_completion(case):
    scoring, reviewer_matrix, paper_vector, group_vector, available, remaining = case
    bound, slack, _ = BranchAndBoundSolver._completion_bound(
        scoring, group_vector, reviewer_matrix, paper_vector, available, remaining
    )
    best = max(
        _completion_scores(
            scoring, reviewer_matrix, paper_vector, group_vector, available, remaining
        )
    )
    assert best <= bound + slack
    assert bound <= best + slack
