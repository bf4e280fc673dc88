"""Shared fixtures for the WGRAP test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.assignment import Assignment
from repro.core.entities import Paper, Reviewer
from repro.core.problem import JRAProblem, WGRAPProblem
from repro.core.vectors import TopicVector
from repro.data.synthetic import SyntheticWorkloadGenerator

#: The deep run of the engine state machine
#: (``tests/conformance/test_engine_state_machine.py``), selected with
#: ``--hypothesis-profile engine-deep``; tier-1 runs it at a modest depth.
settings.register_profile(
    "engine-deep",
    max_examples=1000,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: The deep run of BBA's completion-bound and gain-row properties
#: (``tests/test_property_completion_bound.py``), about ten times tier-1's
#: examples, selected with ``--hypothesis-profile bba-deep``.
settings.register_profile(
    "bba-deep",
    max_examples=3000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture
def paper_example_vectors():
    """The running example of Figure 5(a) of the paper (3 topics)."""
    paper = Paper(id="p", vector=TopicVector([0.35, 0.45, 0.2]))
    reviewers = [
        Reviewer(id="r1", vector=TopicVector([0.15, 0.75, 0.1])),
        Reviewer(id="r2", vector=TopicVector([0.75, 0.15, 0.1])),
        Reviewer(id="r3", vector=TopicVector([0.1, 0.35, 0.55])),
    ]
    return paper, reviewers


@pytest.fixture
def sdga_counterexample_vectors():
    """The Section 4.2 example showing why stage workloads must be capped."""
    reviewers = [
        Reviewer(id="r1", vector=TopicVector([0.1, 0.5, 0.4])),
        Reviewer(id="r2", vector=TopicVector([1.0, 0.0, 0.0])),
        Reviewer(id="r3", vector=TopicVector([0.0, 1.0, 0.0])),
    ]
    papers = [
        Paper(id="p1", vector=TopicVector([0.6, 0.0, 0.4])),
        Paper(id="p2", vector=TopicVector([0.5, 0.5, 0.0])),
        Paper(id="p3", vector=TopicVector([0.5, 0.5, 0.0])),
    ]
    return papers, reviewers


@pytest.fixture
def small_problem():
    """A small but non-trivial synthetic WGRAP instance (fast to solve)."""
    generator = SyntheticWorkloadGenerator(num_topics=12, seed=3)
    return generator.generate_problem(num_papers=12, num_reviewers=8, group_size=3)


@pytest.fixture
def medium_problem():
    """A slightly larger instance with slack capacity and conflicts."""
    generator = SyntheticWorkloadGenerator(num_topics=15, seed=5)
    return generator.generate_problem(
        num_papers=25,
        num_reviewers=15,
        group_size=3,
        reviewer_workload=7,
        conflict_ratio=0.02,
    )


@pytest.fixture
def tiny_jra_problem():
    """A JRA instance small enough for exhaustive verification."""
    rng = np.random.default_rng(17)
    paper = Paper(id="target", vector=TopicVector(rng.dirichlet(np.full(6, 0.5))))
    reviewers = [
        Reviewer(id=f"r{i}", vector=TopicVector(rng.dirichlet(np.full(6, 0.5))))
        for i in range(9)
    ]
    return JRAProblem(paper=paper, reviewers=reviewers, group_size=3)


def exhaustive_optimal_assignment(problem: WGRAPProblem) -> tuple[Assignment, float]:
    """Exact WGRAP optimum by exhaustive search (tiny instances only).

    Enumerates every combination of reviewer groups per paper that satisfies
    the workload constraint.  Exponential — keep instances tiny.
    """
    reviewer_ids = problem.reviewer_ids
    groups = list(itertools.combinations(reviewer_ids, problem.group_size))

    best_assignment: Assignment | None = None
    best_score = -1.0

    def recurse(paper_index: int, assignment: Assignment, loads: dict[str, int]) -> None:
        nonlocal best_assignment, best_score
        if paper_index == problem.num_papers:
            score = problem.assignment_score(assignment)
            if score > best_score:
                best_score = score
                best_assignment = assignment.copy()
            return
        paper_id = problem.paper_ids[paper_index]
        for group in groups:
            if any(loads[r] + 1 > problem.reviewer_workload for r in group):
                continue
            if any(not problem.is_feasible_pair(r, paper_id) for r in group):
                continue
            for reviewer_id in group:
                assignment.add(reviewer_id, paper_id)
                loads[reviewer_id] += 1
            recurse(paper_index + 1, assignment, loads)
            for reviewer_id in group:
                assignment.remove(reviewer_id, paper_id)
                loads[reviewer_id] -= 1

    recurse(0, Assignment(), {reviewer_id: 0 for reviewer_id in reviewer_ids})
    assert best_assignment is not None
    return best_assignment, best_score
