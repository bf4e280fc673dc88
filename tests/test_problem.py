"""Unit tests for :class:`WGRAPProblem` and :class:`JRAProblem`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.entities import Paper, Reviewer
from repro.core.problem import JRAProblem, WGRAPProblem, minimal_reviewer_workload
from repro.core.vectors import TopicVector
from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    InfeasibleAssignmentError,
    InfeasibleProblemError,
)
from tests.conformance import cold_clone
from tests.oracles import scoring as scoring_oracle


def _build_problem(**overrides):
    papers = [
        Paper(id="p1", vector=TopicVector([0.6, 0.2, 0.2])),
        Paper(id="p2", vector=TopicVector([0.1, 0.8, 0.1])),
    ]
    reviewers = [
        Reviewer(id="r1", vector=TopicVector([0.7, 0.2, 0.1])),
        Reviewer(id="r2", vector=TopicVector([0.1, 0.7, 0.2])),
        Reviewer(id="r3", vector=TopicVector([0.3, 0.3, 0.4])),
    ]
    defaults = dict(papers=papers, reviewers=reviewers, group_size=2)
    defaults.update(overrides)
    return WGRAPProblem(**defaults)


class TestMinimalWorkload:
    def test_formula(self):
        assert minimal_reviewer_workload(num_papers=617, num_reviewers=105, group_size=3) == 18
        assert minimal_reviewer_workload(num_papers=2, num_reviewers=3, group_size=2) == 2
        assert minimal_reviewer_workload(num_papers=1, num_reviewers=10, group_size=3) == 1

    def test_requires_reviewers(self):
        with pytest.raises(ConfigurationError):
            minimal_reviewer_workload(num_papers=1, num_reviewers=0, group_size=1)


class TestWGRAPProblemConstruction:
    def test_defaults(self):
        problem = _build_problem()
        assert problem.num_papers == 2
        assert problem.num_reviewers == 3
        assert problem.num_topics == 3
        assert problem.group_size == 2
        assert problem.reviewer_workload == minimal_reviewer_workload(2, 3, 2)
        assert problem.stage_workload == problem.constraints.stage_workload

    def test_requires_papers_and_reviewers(self):
        with pytest.raises(ConfigurationError):
            WGRAPProblem(papers=[], reviewers=[], group_size=1)

    def test_dimension_mismatch(self):
        papers = [Paper(id="p1", vector=TopicVector([1.0, 0.0]))]
        reviewers = [Reviewer(id="r1", vector=TopicVector([1.0]))]
        with pytest.raises(DimensionMismatchError):
            WGRAPProblem(papers=papers, reviewers=reviewers, group_size=1)

    def test_duplicate_ids_rejected(self):
        papers = [
            Paper(id="p1", vector=TopicVector([1.0])),
            Paper(id="p1", vector=TopicVector([1.0])),
        ]
        reviewers = [Reviewer(id="r1", vector=TopicVector([1.0]))]
        with pytest.raises(ConfigurationError):
            WGRAPProblem(papers=papers, reviewers=reviewers, group_size=1)

    def test_insufficient_capacity_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            _build_problem(group_size=2, reviewer_workload=1)

    def test_conflicts_starving_a_paper_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            _build_problem(conflicts=[("r1", "p1"), ("r2", "p1")])

    def test_index_lookup(self):
        problem = _build_problem()
        assert problem.paper_index("p2") == 1
        assert problem.reviewer_index("r3") == 2
        assert problem.paper_by_id("p1").id == "p1"
        assert problem.reviewer_by_id("r2").id == "r2"
        with pytest.raises(KeyError):
            problem.paper_index("nope")
        with pytest.raises(KeyError):
            problem.reviewer_index("nope")

    def test_matrices_are_cached_and_read_only(self):
        problem = _build_problem()
        assert problem.reviewer_matrix is problem.reviewer_matrix
        assert problem.paper_matrix.shape == (2, 3)
        with pytest.raises(ValueError):
            problem.reviewer_matrix[0, 0] = 9.0


class TestScoringAndValidation:
    def test_pair_score_matrix(self):
        problem = _build_problem()
        matrix = problem.pair_score_matrix()
        assert matrix.shape == (3, 2)
        assert problem.pair_score("r1", "p1") == pytest.approx(matrix[0, 0])
        expected = problem.scoring.score(
            problem.reviewer_by_id("r1").vector, problem.paper_by_id("p1").vector
        )
        assert matrix[0, 0] == pytest.approx(expected)

    def test_group_vector_and_paper_score(self):
        problem = _build_problem()
        assignment = Assignment([("r1", "p1"), ("r2", "p1")])
        group_vector = scoring_oracle.group_vector(problem, assignment, "p1")
        assert group_vector == pytest.approx(np.array([0.7, 0.7, 0.2]))
        assert scoring_oracle.paper_score(problem, assignment, "p1") == pytest.approx(1.0)
        assert scoring_oracle.paper_score(problem, assignment, "p2") == 0.0

    def test_assignment_score_sums_papers(self):
        problem = _build_problem()
        assignment = Assignment(
            [("r1", "p1"), ("r3", "p1"), ("r2", "p2"), ("r3", "p2")]
        )
        total = problem.assignment_score(assignment)
        per_paper = problem.paper_scores(assignment)
        assert total == pytest.approx(sum(per_paper.values()))

    def test_validate_complete_assignment(self):
        problem = _build_problem()
        good = Assignment([("r1", "p1"), ("r2", "p1"), ("r2", "p2"), ("r3", "p2")])
        problem.validate_assignment(good)
        assert problem.is_valid_assignment(good)

    def test_validate_detects_wrong_group_size(self):
        problem = _build_problem()
        incomplete = Assignment([("r1", "p1")])
        with pytest.raises(InfeasibleAssignmentError):
            problem.validate_assignment(incomplete)
        # Partial assignments are fine when completeness is not required.
        problem.validate_assignment(incomplete, require_complete=False)

    def test_validate_detects_overload(self):
        problem = _build_problem(reviewer_workload=1, group_size=1)
        overloaded = Assignment([("r1", "p1"), ("r1", "p2")])
        assert not problem.is_valid_assignment(overloaded)

    def test_validate_detects_conflict(self):
        problem = _build_problem(conflicts=[("r1", "p1")])
        bad = Assignment([("r1", "p1"), ("r2", "p1"), ("r2", "p2"), ("r3", "p2")])
        with pytest.raises(InfeasibleAssignmentError, match="conflict"):
            problem.validate_assignment(bad)

    def test_validate_detects_unknown_entities(self):
        problem = _build_problem()
        bad = Assignment([("ghost", "p1")])
        with pytest.raises(InfeasibleAssignmentError, match="unknown"):
            problem.validate_assignment(bad, require_complete=False)

    def test_candidate_reviewers_respects_conflicts(self):
        problem = _build_problem(conflicts=[("r1", "p1")])
        assert problem.candidate_reviewers("p1") == ["r2", "r3"]
        assert problem.candidate_reviewers("p2") == ["r1", "r2", "r3"]


class TestDerivedProblems:
    def test_to_jra(self):
        problem = _build_problem(conflicts=[("r1", "p1")])
        jra = problem.to_jra("p1")
        assert jra.group_size == problem.group_size
        assert "r1" not in jra.reviewer_ids
        assert jra.paper.id == "p1"

    def test_with_scoring(self):
        problem = _build_problem()
        alternative = problem.with_scoring("dot_product")
        assert alternative.scoring.name == "dot_product"
        assert alternative.num_papers == problem.num_papers

    def test_with_reviewers(self):
        problem = _build_problem()
        scaled = problem.with_reviewers(
            [reviewer.with_vector(reviewer.vector.scaled(2.0)) for reviewer in problem.reviewers]
        )
        assert scaled.reviewer_matrix[0, 0] == pytest.approx(1.4)
        assert scaled.group_size == problem.group_size

    def test_repr(self):
        assert "WGRAPProblem" in repr(_build_problem())


class TestOneConflictSetAlongTheChain:
    """The mutation chain shares one live conflict set; copies own theirs."""

    def _chain(self):
        base = _build_problem(reviewer_workload=2, conflicts=[("r1", "p1")])
        late = base.with_additional_paper(Paper(id="p3", vector=TopicVector([0.2, 0.2, 0.6])))
        return base, late, late.without_reviewer("r3")

    def test_both_derivations_share_the_source_conflict_set(self):
        base, late, tip = self._chain()
        assert late.conflicts is base.conflicts
        assert tip.conflicts is late.conflicts

    def test_an_edit_through_an_older_member_reaches_the_tip_view(self):
        base, _, tip = self._chain()
        before = tip.dense_view()
        version = tip.versions.conflicts
        base.conflicts.add("r2", "p3")
        assert tip.versions.conflicts == version + 1
        view = tip.dense_view()
        assert view is before  # patched in place, not recompiled
        assert not view.feasible[tip.reviewer_index("r2"), tip.paper_index("p3")]
        assert np.array_equal(view.feasible, cold_clone(tip).dense_view().feasible)

    def test_constructor_and_copies_own_their_conflict_set(self):
        base = _build_problem(reviewer_workload=2, conflicts=[("r1", "p1")])
        copies = [
            WGRAPProblem(base.papers, base.reviewers, 2, conflicts=base.conflicts),
            base.with_scoring("dot_product"),
            base.with_reviewers(base.reviewers),
        ]
        for copy in copies:
            assert copy.conflicts is not base.conflicts
            assert copy.conflicts == base.conflicts
        copies[0].conflicts.add("r2", "p1")
        base.conflicts.add("r3", "p2")
        assert ("r2", "p1") not in base.conflicts
        assert all(("r3", "p2") not in copy.conflicts for copy in copies)


class TestJRAProblem:
    def _reviewers(self, count=5):
        rng = np.random.default_rng(0)
        return [
            Reviewer(id=f"r{i}", vector=TopicVector(rng.dirichlet(np.ones(4))))
            for i in range(count)
        ]

    def test_construction_and_exclusions(self):
        paper = Paper(id="p", vector=TopicVector([0.25, 0.25, 0.25, 0.25]))
        problem = JRAProblem(
            paper=paper, reviewers=self._reviewers(), group_size=2,
            excluded_reviewers={"r0"},
        )
        assert problem.num_reviewers == 4
        assert "r0" not in problem.reviewer_ids
        assert problem.excluded_reviewers == frozenset({"r0"})

    def test_too_few_candidates_rejected(self):
        paper = Paper(id="p", vector=TopicVector([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(InfeasibleProblemError):
            JRAProblem(paper=paper, reviewers=self._reviewers(2), group_size=3)

    def test_group_size_validation(self):
        paper = Paper(id="p", vector=TopicVector([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ConfigurationError):
            JRAProblem(paper=paper, reviewers=self._reviewers(), group_size=0)

    def test_group_score_and_validation(self):
        paper = Paper(id="p", vector=TopicVector([0.5, 0.5, 0.0, 0.0]))
        reviewers = self._reviewers()
        problem = JRAProblem(paper=paper, reviewers=reviewers, group_size=2)
        score = problem.group_score(["r0", "r1"])
        assert 0.0 <= score <= 1.0
        assert problem.group_score([]) == 0.0
        problem.validate_group(["r0", "r1"])
        with pytest.raises(InfeasibleAssignmentError):
            problem.validate_group(["r0"])  # wrong size
        with pytest.raises(InfeasibleAssignmentError):
            problem.validate_group(["r0", "r0"])  # duplicates

    def test_validate_group_rejects_excluded(self):
        paper = Paper(id="p", vector=TopicVector([1.0, 0.0, 0.0, 0.0]))
        problem = JRAProblem(
            paper=paper, reviewers=self._reviewers(), group_size=2,
            excluded_reviewers={"r1"},
        )
        with pytest.raises(InfeasibleAssignmentError):
            problem.validate_group(["r0", "r1"])

    def test_reviewer_matrix_read_only(self):
        paper = Paper(id="p", vector=TopicVector([1.0, 0.0, 0.0, 0.0]))
        problem = JRAProblem(paper=paper, reviewers=self._reviewers(), group_size=2)
        with pytest.raises(ValueError):
            problem.reviewer_matrix[0, 0] = 1.0
        assert "JRAProblem" in repr(problem)
