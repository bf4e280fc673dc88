"""Core data model of the WGRAP library.

This package contains everything that is shared by all solvers: topic
vectors, reviewers, papers, reviewer groups, scoring functions, the
assignment container, the WGRAP/JRA problem definitions and the reductions
to earlier RAP formulations.
"""

from repro.core.assignment import Assignment
from repro.core.constraints import ConflictOfInterest, WorkloadConstraints
from repro.core.delta import PrunedCandidateGenerator, ViewStats
from repro.core.dense import DenseProblem
from repro.core.entities import EntityIndex, Paper, Reviewer, ReviewerGroup
from repro.core.problem import (
    JRAProblem,
    MutationListener,
    ProblemMutation,
    ProblemVersions,
    WGRAPProblem,
    minimal_reviewer_workload,
)
from repro.core.reductions import (
    RAPFormulation,
    binary_topic_vector,
    expand_problem_for_pairwise_objective,
    formulation_table,
    set_coverage,
    sgrap_problem_from_topic_sets,
)
from repro.core.scoring import (
    DotProduct,
    PaperCoverage,
    ReviewerCoverage,
    ScoringFunction,
    WeightedCoverage,
    available_scoring_functions,
    get_scoring_function,
    group_coverage,
    marginal_gain,
    weighted_coverage,
)
from repro.core.vectors import TopicVector, as_topic_vector, stack_vectors

__all__ = [
    "Assignment",
    "ConflictOfInterest",
    "DenseProblem",
    "PrunedCandidateGenerator",
    "ViewStats",
    "WorkloadConstraints",
    "EntityIndex",
    "Paper",
    "Reviewer",
    "ReviewerGroup",
    "JRAProblem",
    "MutationListener",
    "ProblemMutation",
    "ProblemVersions",
    "WGRAPProblem",
    "minimal_reviewer_workload",
    "RAPFormulation",
    "binary_topic_vector",
    "expand_problem_for_pairwise_objective",
    "formulation_table",
    "set_coverage",
    "sgrap_problem_from_topic_sets",
    "DotProduct",
    "PaperCoverage",
    "ReviewerCoverage",
    "ScoringFunction",
    "WeightedCoverage",
    "available_scoring_functions",
    "get_scoring_function",
    "group_coverage",
    "marginal_gain",
    "weighted_coverage",
    "TopicVector",
    "as_topic_vector",
    "stack_vectors",
]
