"""Unit tests for quality metrics and per-paper analysis."""

from __future__ import annotations

import pytest

from repro.core.assignment import Assignment
from repro.core.entities import Paper, Reviewer
from repro.core.problem import WGRAPProblem
from repro.core.vectors import TopicVector
from repro.cra.ideal import ideal_assignment
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.cra.stable_matching import StableMatchingSolver
from repro.exceptions import ConfigurationError
from repro.metrics.analysis import coverage_histogram, paper_topic_coverage
from repro.metrics.quality import (
    lowest_coverage_score,
    optimality_ratio,
    superiority_ratio,
)
from tests.oracles.scoring import paper_score


def _toy_problem():
    papers = [
        Paper(id="p1", vector=TopicVector([0.5, 0.5, 0.0]), title="First"),
        Paper(id="p2", vector=TopicVector([0.0, 0.5, 0.5]), title="Second"),
    ]
    reviewers = [
        Reviewer(id="r1", vector=TopicVector([0.6, 0.2, 0.2]), name="Alice"),
        Reviewer(id="r2", vector=TopicVector([0.2, 0.6, 0.2]), name="Bob"),
        Reviewer(id="r3", vector=TopicVector([0.2, 0.2, 0.6]), name="Carol"),
    ]
    return WGRAPProblem(papers=papers, reviewers=reviewers, group_size=2)


class TestQualityMetrics:
    def test_coverage_and_mean(self):
        problem = _toy_problem()
        assignment = Assignment(
            [("r1", "p1"), ("r2", "p1"), ("r2", "p2"), ("r3", "p2")]
        )
        assert lowest_coverage_score(problem, assignment) == pytest.approx(
            min(problem.paper_scores(assignment).values())
        )

    def test_optimality_ratio_bounds(self, small_problem):
        ideal = ideal_assignment(small_problem)
        sdga = StageDeepeningGreedySolver().solve(small_problem)
        ratio = optimality_ratio(small_problem, sdga.assignment, ideal=ideal)
        assert 0.0 < ratio <= 1.0 + 1e-9
        # Recomputing the ideal inside the function gives the same number.
        assert optimality_ratio(small_problem, sdga.assignment) == pytest.approx(ratio)

    def test_optimality_ratio_ordering_matches_scores(self, small_problem):
        ideal = ideal_assignment(small_problem)
        sdga = StageDeepeningGreedySolver().solve(small_problem)
        stable = StableMatchingSolver().solve(small_problem)
        assert optimality_ratio(small_problem, sdga.assignment, ideal) >= optimality_ratio(
            small_problem, stable.assignment, ideal
        ) - 1e-12

    def test_superiority_ratio_breakdown(self):
        problem = _toy_problem()
        strong = Assignment([("r1", "p1"), ("r2", "p1"), ("r2", "p2"), ("r3", "p2")])
        weak = Assignment([("r1", "p1"), ("r3", "p1"), ("r1", "p2"), ("r3", "p2")])
        breakdown = superiority_ratio(problem, strong, weak)
        assert breakdown.total == 2
        assert breakdown.wins + breakdown.ties + breakdown.losses == 2
        assert 0.0 <= breakdown.superiority <= 1.0
        assert breakdown.superiority >= breakdown.strict_superiority
        reverse = superiority_ratio(problem, weak, strong)
        assert reverse.wins == breakdown.losses
        assert reverse.ties == breakdown.ties

    def test_superiority_against_itself_is_all_ties(self):
        problem = _toy_problem()
        assignment = Assignment([("r1", "p1"), ("r2", "p1"), ("r2", "p2"), ("r3", "p2")])
        breakdown = superiority_ratio(problem, assignment, assignment)
        assert breakdown.ties == problem.num_papers
        assert breakdown.superiority == pytest.approx(1.0)
        assert breakdown.tie_ratio == pytest.approx(1.0)

    def test_superiority_rejects_negative_tolerance(self):
        problem = _toy_problem()
        assignment = Assignment([("r1", "p1")])
        with pytest.raises(ConfigurationError):
            superiority_ratio(problem, assignment, assignment, tolerance=-1.0)


class TestAnalysis:
    def test_paper_topic_coverage_report(self):
        problem = _toy_problem()
        assignment = Assignment([("r1", "p1"), ("r2", "p1"), ("r2", "p2"), ("r3", "p2")])
        report = paper_topic_coverage(problem, assignment, "p1")
        assert report.paper_id == "p1"
        assert report.paper_title == "First"
        assert report.reviewer_ids == ("r1", "r2")
        assert report.reviewer_names == ("Alice", "Bob")
        assert report.score == pytest.approx(paper_score(problem, assignment, "p1"))
        assert len(report.topics) == problem.num_topics
        topic0 = report.topics[0]
        assert topic0.paper_weight == pytest.approx(0.5)
        assert topic0.group_weight == pytest.approx(0.6)
        assert topic0.covered_weight == pytest.approx(0.5)
        assert topic0.best_reviewer_id == "r1"
        assert topic0.is_fully_covered

    def test_top_topics_selection(self):
        problem = _toy_problem()
        assignment = Assignment([("r1", "p1"), ("r2", "p1")])
        report = paper_topic_coverage(problem, assignment, "p1")
        top = report.top_topics(2)
        assert len(top) == 2
        assert {entry.topic for entry in top} == {0, 1}

    def test_report_for_unassigned_paper(self):
        problem = _toy_problem()
        report = paper_topic_coverage(problem, Assignment(), "p2")
        assert report.reviewer_ids == ()
        assert report.score == 0.0
        assert all(entry.best_reviewer_id is None for entry in report.topics)

    def test_coverage_histogram(self, small_problem):
        assignment = StageDeepeningGreedySolver().solve(small_problem).assignment
        histogram = coverage_histogram(small_problem, assignment, bins=5)
        assert len(histogram) == 5
        assert sum(count for _, _, count in histogram) == small_problem.num_papers
        assert histogram[0][0] == pytest.approx(0.0)
        assert histogram[-1][1] == pytest.approx(1.0)

    def test_coverage_histogram_validation(self, small_problem):
        assignment = StageDeepeningGreedySolver().solve(small_problem).assignment
        with pytest.raises(ConfigurationError):
            coverage_histogram(small_problem, assignment, bins=0)
