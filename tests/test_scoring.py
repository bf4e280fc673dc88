"""Unit tests for the scoring functions (Definition 1, Appendix B)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scoring import (
    DotProduct,
    PaperCoverage,
    ReviewerCoverage,
    WeightedCoverage,
    available_scoring_functions,
    get_scoring_function,
    group_coverage,
    marginal_gain,
    weighted_coverage,
)
from repro.core.vectors import TopicVector
from repro.exceptions import DimensionMismatchError, UnknownScoringFunctionError


class TestWeightedCoverage:
    def test_figure5_running_example(self, paper_example_vectors):
        """The paper's Figure 5(c): c(r1, p) = 0.7, c(r2, p) = 0.6, c(r3, p) = 0.65."""
        paper, reviewers = paper_example_vectors
        scoring = WeightedCoverage()
        scores = [scoring.score(r.vector, paper.vector) for r in reviewers]
        assert scores[0] == pytest.approx(0.70)
        assert scores[1] == pytest.approx(0.60)
        assert scores[2] == pytest.approx(0.65)

    def test_perfect_reviewer_scores_one(self):
        paper = TopicVector([0.3, 0.7])
        assert weighted_coverage(paper, paper) == pytest.approx(1.0)

    def test_zero_paper_scores_zero(self):
        assert weighted_coverage(TopicVector([0.5, 0.5]), TopicVector.zeros(2)) == 0.0

    def test_normalisation_by_paper_mass(self):
        reviewer = TopicVector([0.2, 0.2])
        paper = TopicVector([0.4, 0.4])
        assert weighted_coverage(reviewer, paper) == pytest.approx(0.5)

    def test_group_coverage_uses_elementwise_maximum(self, paper_example_vectors):
        paper, reviewers = paper_example_vectors
        pair_best = max(
            weighted_coverage(r.vector, paper.vector) for r in reviewers[:2]
        )
        group = group_coverage([reviewers[0].vector, reviewers[1].vector], paper.vector)
        assert group >= pair_best
        # max vector of r1, r2 is (0.75, 0.75, 0.1) -> covered (0.35, 0.45, 0.1)
        assert group == pytest.approx(0.9)

    def test_group_coverage_empty_group(self):
        assert group_coverage([], TopicVector([0.5, 0.5])) == 0.0

    def test_group_coverage_accepts_prebuilt_vector(self, paper_example_vectors):
        paper, reviewers = paper_example_vectors
        prebuilt = TopicVector.group_maximum([r.vector for r in reviewers[:2]])
        assert group_coverage(prebuilt, paper.vector) == pytest.approx(0.9)

    def test_marginal_gain_of_empty_group_is_pair_score(self, paper_example_vectors):
        paper, reviewers = paper_example_vectors
        gain = marginal_gain(None, reviewers[0].vector, paper.vector)
        assert gain == pytest.approx(0.7)

    def test_marginal_gain_decreases_with_group(self, paper_example_vectors):
        paper, reviewers = paper_example_vectors
        base = marginal_gain(None, reviewers[2].vector, paper.vector)
        with_group = marginal_gain(
            reviewers[0].vector, reviewers[2].vector, paper.vector
        )
        assert with_group <= base

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            weighted_coverage(TopicVector([0.5]), TopicVector([0.5, 0.5]))


class TestAlternativeScoringFunctions:
    """The Table 6 toy example of Appendix B."""

    paper = TopicVector([0.6, 0.4])
    r1 = TopicVector([0.9, 0.1])
    r2 = TopicVector([0.5, 0.5])

    def test_reviewer_coverage(self):
        scoring = ReviewerCoverage()
        assert scoring.score(self.r1, self.paper) == pytest.approx(0.9)
        assert scoring.score(self.r2, self.paper) == pytest.approx(0.5)

    def test_paper_coverage(self):
        scoring = PaperCoverage()
        assert scoring.score(self.r1, self.paper) == pytest.approx(0.6)
        assert scoring.score(self.r2, self.paper) == pytest.approx(0.4)

    def test_dot_product(self):
        scoring = DotProduct()
        assert scoring.score(self.r1, self.paper) == pytest.approx(0.58)
        assert scoring.score(self.r2, self.paper) == pytest.approx(0.5)

    def test_weighted_coverage_prefers_r2(self):
        """Weighted coverage is the only function preferring r2 (Table 6)."""
        assert weighted_coverage(self.r1, self.paper) == pytest.approx(0.7)
        assert weighted_coverage(self.r2, self.paper) == pytest.approx(0.9)
        for name in ("cr", "cp", "cd"):
            scoring = get_scoring_function(name)
            assert scoring.score(self.r1, self.paper) >= scoring.score(self.r2, self.paper)


class TestVectorisedInterfaces:
    def test_score_matrix_matches_scalar_scores(self, paper_example_vectors):
        paper, reviewers = paper_example_vectors
        scoring = WeightedCoverage()
        reviewer_matrix = np.vstack([r.vector.values for r in reviewers])
        paper_matrix = paper.vector.values[None, :]
        matrix = scoring.score_matrix(reviewer_matrix, paper_matrix)
        assert matrix.shape == (3, 1)
        for index, reviewer in enumerate(reviewers):
            assert matrix[index, 0] == pytest.approx(
                scoring.score(reviewer.vector, paper.vector)
            )

    def test_score_matrix_zero_mass_paper(self):
        scoring = WeightedCoverage()
        matrix = scoring.score_matrix(np.array([[0.5, 0.5]]), np.array([[0.0, 0.0]]))
        assert matrix[0, 0] == 0.0

    def test_score_matrix_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            WeightedCoverage().score_matrix(np.ones((2, 3)), np.ones((2, 4)))

    def test_gain_vector_matches_scalar_gains(self, paper_example_vectors):
        paper, reviewers = paper_example_vectors
        scoring = WeightedCoverage()
        group_vector = reviewers[0].vector.values
        reviewer_matrix = np.vstack([r.vector.values for r in reviewers])
        gains = scoring.gain_vector(group_vector, reviewer_matrix, paper.vector.values)
        for index, reviewer in enumerate(reviewers):
            expected = scoring.marginal_gain(
                reviewers[0].vector, reviewer.vector, paper.vector
            )
            assert gains[index] == pytest.approx(expected)

    def test_gain_vector_zero_mass_paper(self):
        gains = WeightedCoverage().gain_vector(
            np.zeros(2), np.array([[0.5, 0.5]]), np.zeros(2)
        )
        assert gains[0] == 0.0

    @pytest.mark.parametrize("name", ["weighted_coverage", "reviewer_coverage",
                                      "paper_coverage", "dot_product"])
    def test_all_functions_vectorise_consistently(self, name):
        rng = np.random.default_rng(0)
        scoring = get_scoring_function(name)
        reviewer_matrix = rng.random((5, 4))
        paper_matrix = rng.random((3, 4))
        matrix = scoring.score_matrix(reviewer_matrix, paper_matrix)
        for r in range(5):
            for p in range(3):
                expected = scoring.score(
                    TopicVector(reviewer_matrix[r]), TopicVector(paper_matrix[p])
                )
                assert matrix[r, p] == pytest.approx(expected)

    @pytest.mark.parametrize("name", available_scoring_functions())
    def test_coverage_with_the_paper_mass_passed_in_is_bitwise_equal(self, name):
        rng = np.random.default_rng(1)
        scoring = get_scoring_function(name)
        paper = rng.dirichlet(np.full(6, 0.5))
        total = TopicVector(paper).total()
        for group in rng.random((20, 6)):
            assert scoring.coverage(group, paper, total) == scoring.coverage(group, paper)
        assert scoring.coverage(np.ones(2), np.zeros(2), 0.0) == 0.0


class TestRegistry:
    def test_default_is_weighted_coverage(self):
        assert isinstance(get_scoring_function(None), WeightedCoverage)

    def test_lookup_by_alias(self):
        assert isinstance(get_scoring_function("c"), WeightedCoverage)
        assert isinstance(get_scoring_function("CR"), ReviewerCoverage)
        assert isinstance(get_scoring_function("dot"), DotProduct)

    def test_instance_passthrough(self):
        scoring = PaperCoverage()
        assert get_scoring_function(scoring) is scoring

    def test_unknown_name(self):
        with pytest.raises(UnknownScoringFunctionError):
            get_scoring_function("cosine")

    def test_available_names(self):
        names = available_scoring_functions()
        assert set(names) == {
            "weighted_coverage",
            "reviewer_coverage",
            "paper_coverage",
            "dot_product",
        }

    def test_equality_and_hash(self):
        assert WeightedCoverage() == WeightedCoverage()
        assert WeightedCoverage() != DotProduct()
        assert hash(WeightedCoverage()) == hash(WeightedCoverage())
