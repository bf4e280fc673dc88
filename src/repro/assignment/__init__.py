"""Linear-assignment substrate: Hungarian and the capacitated transportation step.

These solvers replace the off-the-shelf Hungarian library used by the
paper's C++ implementation.  They are generic (they know nothing about
reviewers or papers) and are reused by the Stage Deepening Greedy
Algorithm, the stochastic refinement, the repair pass and the baselines.
"""

from repro.assignment.hungarian import (
    AssignmentResult,
    solve_assignment,
    solve_max_assignment,
)
from repro.assignment.transportation import (
    CapacitatedAssignmentResult,
    solve_capacitated_assignment,
)

__all__ = [
    "AssignmentResult",
    "solve_assignment",
    "solve_max_assignment",
    "CapacitatedAssignmentResult",
    "solve_capacitated_assignment",
]
