"""Unit tests for the JRA solvers: BFS, BBA, ILP and CP (Section 3)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.entities import Paper, Reviewer
from repro.core.problem import JRAProblem
from repro.core.vectors import TopicVector
from repro.jra.base import JRAResult
from repro.jra.bba import BranchAndBoundSolver
from repro.jra.brute_force import BruteForceSolver
from repro.jra.cp import ConstraintProgrammingSolver
from repro.jra.ilp import ILPSolver
from repro.jra.topk import find_top_k_groups
from repro.exceptions import ConfigurationError, SolverError


def _exhaustive_best(problem: JRAProblem) -> tuple[float, set[frozenset[str]]]:
    """Exact optimum and the set of optimal groups, by direct enumeration."""
    best_score = -1.0
    best_groups: set[frozenset[str]] = set()
    for combination in itertools.combinations(problem.reviewer_ids, problem.group_size):
        score = problem.group_score(combination)
        if score > best_score + 1e-12:
            best_score = score
            best_groups = {frozenset(combination)}
        elif abs(score - best_score) <= 1e-12:
            best_groups.add(frozenset(combination))
    return best_score, best_groups


class TestBruteForce:
    def test_finds_exact_optimum(self, tiny_jra_problem):
        result = BruteForceSolver().solve(tiny_jra_problem)
        best_score, best_groups = _exhaustive_best(tiny_jra_problem)
        assert result.score == pytest.approx(best_score)
        assert frozenset(result.reviewer_ids) in best_groups
        assert result.is_optimal
        assert result.stats["groups_evaluated"] == len(
            list(itertools.combinations(range(9), 3))
        )

    def test_top_k_mode(self, tiny_jra_problem):
        solver = BruteForceSolver(top_k=4)
        result = solver.solve(tiny_jra_problem)
        shortlist = result.stats["top_k"]
        assert len(shortlist) == 4
        scores = [score for _, score in shortlist]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == pytest.approx(result.score)

    def test_rejects_bad_top_k(self):
        with pytest.raises(ValueError):
            BruteForceSolver(top_k=0)


class TestBBA:
    def test_matches_brute_force(self, tiny_jra_problem):
        bba = BranchAndBoundSolver().solve(tiny_jra_problem)
        bfs = BruteForceSolver().solve(tiny_jra_problem)
        assert bba.score == pytest.approx(bfs.score)
        assert tiny_jra_problem.group_score(bba.reviewer_ids) == pytest.approx(bba.score)

    def test_ablation_flags_do_not_change_the_answer(self, tiny_jra_problem):
        reference = BranchAndBoundSolver().solve(tiny_jra_problem)
        no_bound = BranchAndBoundSolver(use_bound=False).solve(tiny_jra_problem)
        no_ordering = BranchAndBoundSolver(use_gain_ordering=False).solve(tiny_jra_problem)
        assert no_bound.score == pytest.approx(reference.score)
        assert no_ordering.score == pytest.approx(reference.score)

    def test_bounding_prunes_nodes(self, tiny_jra_problem):
        with_bound = BranchAndBoundSolver().solve(tiny_jra_problem)
        without_bound = BranchAndBoundSolver(use_bound=False).solve(tiny_jra_problem)
        assert with_bound.stats["nodes_expanded"] <= without_bound.stats["nodes_expanded"]
        assert with_bound.stats["prunings"] > 0

    def test_group_size_one(self, tiny_jra_problem):
        problem = JRAProblem(
            paper=tiny_jra_problem.paper,
            reviewers=tiny_jra_problem.reviewers,
            group_size=1,
        )
        result = BranchAndBoundSolver().solve(problem)
        pair_scores = [
            problem.group_score([reviewer_id]) for reviewer_id in problem.reviewer_ids
        ]
        assert result.score == pytest.approx(max(pair_scores))

    def test_result_dataclass_fields(self, tiny_jra_problem):
        result = BranchAndBoundSolver().solve(tiny_jra_problem)
        assert isinstance(result, JRAResult)
        assert result.group_size == tiny_jra_problem.group_size
        assert result.elapsed_seconds >= 0.0

    def test_rejects_bad_top_k(self):
        with pytest.raises(ValueError):
            BranchAndBoundSolver(top_k=0)


@pytest.mark.parametrize(
    "solver_class", [BranchAndBoundSolver, ILPSolver], ids=["BBA", "ILP"]
)
class TestExactSolvers:
    """BBA and the ILP both return a proven optimum."""

    @pytest.mark.parametrize("group_size", [1, 2, 3, 4])
    def test_matches_brute_force_across_group_sizes(self, solver_class, group_size):
        rng = np.random.default_rng(group_size)
        paper = Paper(id="p", vector=TopicVector(rng.dirichlet(np.ones(5))))
        reviewers = [
            Reviewer(id=f"r{i}", vector=TopicVector(rng.dirichlet(np.full(5, 0.4))))
            for i in range(8)
        ]
        problem = JRAProblem(paper=paper, reviewers=reviewers, group_size=group_size)
        result = solver_class().solve(problem)
        bfs = BruteForceSolver().solve(problem)
        assert result.is_optimal
        assert result.score == pytest.approx(bfs.score)

    @pytest.mark.parametrize(
        "seed, scoring",
        enumerate(["weighted_coverage", "reviewer_coverage", "paper_coverage", "dot_product"]),
    )
    def test_exact_under_every_scoring_function(self, solver_class, seed, scoring):
        rng = np.random.default_rng(seed)
        paper = Paper(id="p", vector=TopicVector(rng.dirichlet(np.ones(4))))
        reviewers = [
            Reviewer(id=f"r{i}", vector=TopicVector(rng.dirichlet(np.full(4, 0.5))))
            for i in range(7)
        ]
        problem = JRAProblem(paper=paper, reviewers=reviewers, group_size=2, scoring=scoring)
        result = solver_class().solve(problem)
        best_score, _ = _exhaustive_best(problem)
        assert result.is_optimal
        assert result.score == pytest.approx(best_score)

    def test_group_size_equals_pool(self, solver_class):
        rng = np.random.default_rng(2)
        paper = Paper(id="p", vector=TopicVector(rng.dirichlet(np.ones(4))))
        reviewers = [
            Reviewer(id=f"r{i}", vector=TopicVector(rng.dirichlet(np.ones(4))))
            for i in range(3)
        ]
        problem = JRAProblem(paper=paper, reviewers=reviewers, group_size=3)
        result = solver_class().solve(problem)
        assert set(result.reviewer_ids) == {"r0", "r1", "r2"}

    def test_zero_mass_paper(self, solver_class):
        paper = Paper(id="p", vector=TopicVector([0.0, 0.0, 0.0]))
        reviewers = [
            Reviewer(id=f"r{i}", vector=TopicVector([0.3, 0.3, 0.4])) for i in range(4)
        ]
        problem = JRAProblem(paper=paper, reviewers=reviewers, group_size=2)
        result = solver_class().solve(problem)
        assert result.score == 0.0
        assert len(set(result.reviewer_ids)) == 2


class TestTopK:
    def test_bba_top_k_matches_brute_force_ranking(self, tiny_jra_problem):
        bba = find_top_k_groups(tiny_jra_problem, k=5, method="bba")
        bfs = find_top_k_groups(tiny_jra_problem, k=5, method="bfs")
        assert [round(entry.score, 9) for entry in bba] == [
            round(entry.score, 9) for entry in bfs
        ]
        assert [entry.rank for entry in bba] == [1, 2, 3, 4, 5]

    def test_top_k_scores_are_descending(self, tiny_jra_problem):
        shortlist = find_top_k_groups(tiny_jra_problem, k=10)
        scores = [entry.score for entry in shortlist]
        assert scores == sorted(scores, reverse=True)

    def test_top_one(self, tiny_jra_problem):
        shortlist = find_top_k_groups(tiny_jra_problem, k=1)
        best = BranchAndBoundSolver().solve(tiny_jra_problem)
        assert len(shortlist) == 1
        assert shortlist[0].score == pytest.approx(best.score)

    def test_configured_solver_is_used_as_is(self, tiny_jra_problem):
        by_name = find_top_k_groups(tiny_jra_problem, k=3, method="bba")
        configured = find_top_k_groups(
            tiny_jra_problem, k=3, method=BranchAndBoundSolver(top_k=3)
        )
        assert configured == by_name
        # A solver that keeps no heap answers with its one best group.
        single = find_top_k_groups(
            tiny_jra_problem, k=3, method=ConstraintProgrammingSolver()
        )
        assert [entry.rank for entry in single] == [1]
        assert single[0].score == pytest.approx(by_name[0].score)

    def test_invalid_arguments(self, tiny_jra_problem):
        with pytest.raises(ConfigurationError):
            find_top_k_groups(tiny_jra_problem, k=0)
        with pytest.raises(ConfigurationError):
            find_top_k_groups(tiny_jra_problem, k=3, method="magic")


class TestILP:
    def test_matches_brute_force(self, tiny_jra_problem):
        ilp = ILPSolver().solve(tiny_jra_problem)
        bfs = BruteForceSolver().solve(tiny_jra_problem)
        assert ilp.is_optimal
        assert ilp.score == pytest.approx(bfs.score)
        assert ilp.stats["nodes_explored"] >= 1
        # sum_t z_t over the paper's mass: the z rows reproduce the group
        # aggregation, not just pick the right group.
        assert ilp.stats["objective_normalised"] == pytest.approx(ilp.score)
        # The group is read off x in reviewer index order.
        order = [tiny_jra_problem.reviewer_ids.index(reviewer) for reviewer in ilp.reviewer_ids]
        assert order == sorted(order)

    def test_a_time_limit_with_room_proves_the_optimum(self, tiny_jra_problem):
        ilp = ILPSolver(time_limit=60.0).solve(tiny_jra_problem)
        assert ilp.is_optimal
        assert ilp.score == pytest.approx(BruteForceSolver().solve(tiny_jra_problem).score)

    def test_no_budget_raises_solver_error(self, tiny_jra_problem):
        # HiGHS stops before it has any group; that is a solver failure,
        # never a result.
        with pytest.raises(SolverError):
            ILPSolver(time_limit=0.0).solve(tiny_jra_problem)

    #: (seed, reviewers, topics, group size, Dirichlet concentration,
    #: scoring).  With one node, HiGHS (as shipped with SciPy 1.17) stops on
    #: seven of them before it proves its incumbent optimal, on two with a
    #: group below the optimum, and proves the other four at the root.
    NODE_LIMITED = [
        (1, 24, 30, 2, 1.0, "reviewer_coverage"),
        (2, 24, 30, 2, 1.0, "reviewer_coverage"),
        (3, 24, 30, 2, 1.0, "reviewer_coverage"),
        (2, 20, 25, 3, 1.0, "reviewer_coverage"),
        (4, 20, 25, 3, 1.0, "reviewer_coverage"),
        (16, 24, 30, 2, 1.0, "weighted_coverage"),
        (19, 20, 25, 3, 1.0, "weighted_coverage"),
        (2, 24, 30, 2, 0.3, "reviewer_coverage"),
        (0, 20, 25, 3, 1.0, "weighted_coverage"),
        (0, 20, 25, 3, 1.0, "paper_coverage"),
        (0, 20, 25, 3, 1.0, "dot_product"),
    ]

    @pytest.mark.parametrize(
        "seed, num_reviewers, num_topics, group_size, concentration, scoring", NODE_LIMITED
    )
    def test_node_limit_returns_a_valid_group(
        self, seed, num_reviewers, num_topics, group_size, concentration, scoring
    ):
        rng = np.random.default_rng(seed)
        alpha = np.full(num_topics, concentration)
        paper = Paper(id="p", vector=TopicVector(rng.dirichlet(alpha)))
        reviewers = [
            Reviewer(id=f"r{i}", vector=TopicVector(rng.dirichlet(alpha)))
            for i in range(num_reviewers)
        ]
        problem = JRAProblem(
            paper=paper, reviewers=reviewers, group_size=group_size, scoring=scoring
        )
        result = ILPSolver(node_limit=1).solve(problem)
        best = BruteForceSolver().solve(problem).score
        assert len(set(result.reviewer_ids)) == group_size
        assert result.score == problem.group_score(result.reviewer_ids)
        assert result.score <= best + 1e-12
        if result.is_optimal:
            # Optimality is proven up to the solve's 1e-9 MIP feasibility
            # tolerance.
            assert result.score == pytest.approx(best, abs=1e-9)


class TestCP:
    def test_matches_brute_force(self, tiny_jra_problem):
        cp = ConstraintProgrammingSolver().solve(tiny_jra_problem)
        bfs = BruteForceSolver().solve(tiny_jra_problem)
        assert cp.score == pytest.approx(bfs.score)
        assert cp.is_optimal

    def test_first_solution_mode_is_fast_but_not_proven(self, tiny_jra_problem):
        first = ConstraintProgrammingSolver(first_solution_only=True).solve(tiny_jra_problem)
        optimal = ConstraintProgrammingSolver().solve(tiny_jra_problem)
        assert not first.is_optimal
        assert first.score <= optimal.score + 1e-12
        assert first.stats["nodes_explored"] <= optimal.stats["nodes_explored"]

    def test_node_limit(self, tiny_jra_problem):
        limited = ConstraintProgrammingSolver(node_limit=5).solve(tiny_jra_problem)
        assert not limited.is_optimal
        assert len(limited.reviewer_ids) == tiny_jra_problem.group_size
