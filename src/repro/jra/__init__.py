"""Journal Reviewer Assignment (JRA) solvers — Section 3 of the paper.

All solvers here are *exact* (given enough search budget):

* :class:`~repro.jra.bba.BranchAndBoundSolver` — the paper's BBA, the fast one.
* :class:`~repro.jra.brute_force.BruteForceSolver` — exhaustive enumeration.
* :class:`~repro.jra.ilp.ILPSolver` — the ILP formulation on HiGHS's MIP
  solver (``scipy.optimize.milp``).
* :class:`~repro.jra.cp.ConstraintProgrammingSolver` — a generic CP search
  with a weak bound, standing in for the commercial CP solver of the paper.
"""

from repro.jra.base import JRAResult, JRASolver
from repro.jra.bba import BranchAndBoundSolver
from repro.jra.brute_force import BruteForceSolver
from repro.jra.cp import ConstraintProgrammingSolver
from repro.jra.ilp import ILPSolver
from repro.jra.topk import RankedGroup, find_top_k_groups


def available_solvers() -> list[str]:
    """Canonical names of every registered journal-assignment solver.

    Solvers are registered in the string-keyed registry of
    :mod:`repro.service.registry` (imported lazily here to keep this
    package importable without the service subsystem); the CLI and the
    serving front end validate their ``--solver`` inputs against this
    list.
    """
    from repro.service.registry import available_solvers as _available

    return _available("jra")


__all__ = [
    "available_solvers",
    "JRAResult",
    "JRASolver",
    "BranchAndBoundSolver",
    "BruteForceSolver",
    "ConstraintProgrammingSolver",
    "ILPSolver",
    "RankedGroup",
    "find_top_k_groups",
]
