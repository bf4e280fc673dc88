"""repro — Weighted Coverage based Reviewer Assignment (WGRAP).

A complete, self-contained reproduction of *"Weighted Coverage based
Reviewer Assignment"* (Kou, U, Mamoulis and Gong, SIGMOD 2015):

* the WGRAP problem model (topic vectors, weighted coverage, group
  expertise, workload constraints, conflicts of interest),
* the exact Branch-and-Bound solver for Journal Reviewer Assignment,
* the Stage Deepening Greedy Algorithm and its stochastic refinement for
  Conference Reviewer Assignment, plus every baseline the paper compares
  against,
* the substrates those algorithms need (Hungarian linear assignment,
  an Author-Topic-Model pipeline, synthetic DBLP-like data),
* an experiment harness that regenerates every table and figure of the
  paper's evaluation,
* a long-lived assignment engine (:mod:`repro.service`) with an
  incrementally maintained score cache and a JSON-lines serving front
  end, and
* a worker-pool execution layer (:mod:`repro.parallel`): sharded
  score-matrix construction, CRA solver portfolios and deterministic
  experiment fan-out, all bit-compatible with the serial paths.

Quick start::

    from repro import make_problem, StageDeepeningGreedySolver

    problem = make_problem(num_papers=60, num_reviewers=25, group_size=3)
    result = StageDeepeningGreedySolver().solve(problem)
    print(result.score, len(result.assignment))
"""

from repro.core import (
    Assignment,
    ConflictOfInterest,
    JRAProblem,
    Paper,
    Reviewer,
    ReviewerGroup,
    TopicVector,
    WGRAPProblem,
    WorkloadConstraints,
    get_scoring_function,
    group_coverage,
    weighted_coverage,
)
from repro.cra import (
    BestReviewerGroupGreedySolver,
    GreedySolver,
    PairwiseILPSolver,
    SDGAWithLocalSearchSolver,
    SDGAWithRefinementSolver,
    StableMatchingSolver,
    StageDeepeningGreedySolver,
    StochasticRefiner,
    ideal_assignment,
)
from repro.data import SyntheticWorkloadGenerator, make_problem
from repro.jra import (
    BranchAndBoundSolver,
    BruteForceSolver,
    ConstraintProgrammingSolver,
    ILPSolver,
    find_top_k_groups,
)
from repro.metrics import optimality_ratio, superiority_ratio
from repro.parallel import ParallelConfig, run_portfolio
from repro.service import AssignmentEngine, EngineSession
from repro.topics import TopicExtractionPipeline

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core
    "Assignment",
    "ConflictOfInterest",
    "JRAProblem",
    "Paper",
    "Reviewer",
    "ReviewerGroup",
    "TopicVector",
    "WGRAPProblem",
    "WorkloadConstraints",
    "get_scoring_function",
    "group_coverage",
    "weighted_coverage",
    # conference assignment
    "BestReviewerGroupGreedySolver",
    "GreedySolver",
    "PairwiseILPSolver",
    "SDGAWithLocalSearchSolver",
    "SDGAWithRefinementSolver",
    "StableMatchingSolver",
    "StageDeepeningGreedySolver",
    "StochasticRefiner",
    "ideal_assignment",
    # journal assignment
    "BranchAndBoundSolver",
    "BruteForceSolver",
    "ConstraintProgrammingSolver",
    "ILPSolver",
    "find_top_k_groups",
    # serving and parallel execution
    "AssignmentEngine",
    "EngineSession",
    "ParallelConfig",
    "run_portfolio",
    # data and metrics
    "SyntheticWorkloadGenerator",
    "make_problem",
    "optimality_ratio",
    "superiority_ratio",
    "TopicExtractionPipeline",
]
