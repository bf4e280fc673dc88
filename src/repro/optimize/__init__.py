"""LP / ILP substrate: model builder and branch-and-bound over HiGHS.

These replace the third-party ``lp_solve`` library used by the paper's ILP
baselines.  They are generic optimisation tools; the reviewer-assignment
formulations live in :mod:`repro.jra.ilp` and :mod:`repro.cra.ilp`.
"""

from repro.optimize.branch_and_bound import BranchAndBoundSolver, ILPSolution
from repro.optimize.model import LinearProgram, ModelBuilder, Sense

__all__ = [
    "BranchAndBoundSolver",
    "ILPSolution",
    "LinearProgram",
    "ModelBuilder",
    "Sense",
]
