"""Long-lived assignment-engine subsystem.

Everything else in the library is batch: load a problem, solve, exit.
This package is the resident counterpart, built for serving a stream of
requests against one problem instance:

* :mod:`repro.service.cache` — per-paper top-k reviewer rankings over
  the score matrix that the problem chain owns and carries across
  mutations.
* :mod:`repro.service.registry` — string-keyed CRA/JRA solver registry
  (mirroring the scoring-function registry of :mod:`repro.core.scoring`).
* :mod:`repro.service.requests` — the typed request/response API with
  JSON codecs.
* :mod:`repro.service.engine` — :class:`AssignmentEngine`: the resident
  problem, cache maintenance driven by core mutation events, journal
  queries, incremental mutations, evaluation and snapshots.
* :mod:`repro.service.session` — :class:`EngineSession`, the one
  request path every front end dispatches through, and the JSON-lines
  loop behind ``wgrap serve`` and ``wgrap session``.

The engine composes with the worker-pool execution layer of
:mod:`repro.parallel`: construct it with a
:class:`~repro.parallel.ParallelConfig` to build score matrices through
the sharded kernel and to race solver portfolios
(:meth:`AssignmentEngine.solve_portfolio
<repro.service.engine.AssignmentEngine.solve_portfolio>`) across worker
processes.  See ``docs/service.md`` for the engine lifecycle and the
wire protocol, ``docs/architecture.md`` for where the subsystem sits.
"""

from repro.service.cache import CacheStats, ScoreMatrixCache
from repro.service.engine import AssignmentEngine, EngineDelta, JournalAnswer
from repro.service.registry import (
    SolverSpec,
    available_solver_specs,
    available_solvers,
    create_solver,
    register_solver,
    solver_spec,
)
from repro.service.requests import (
    AddPaper,
    Evaluate,
    JournalQuery,
    PortfolioSolve,
    Request,
    Response,
    Shutdown,
    Snapshot,
    SolveRequest,
    Stats,
    UpdateBids,
    WithdrawReviewer,
    request_from_dict,
    request_to_dict,
)
from repro.service.session import EngineSession, serve_stream

__all__ = [
    "AssignmentEngine",
    "EngineDelta",
    "JournalAnswer",
    "CacheStats",
    "ScoreMatrixCache",
    "SolverSpec",
    "available_solver_specs",
    "available_solvers",
    "create_solver",
    "register_solver",
    "solver_spec",
    "Request",
    "SolveRequest",
    "PortfolioSolve",
    "JournalQuery",
    "AddPaper",
    "WithdrawReviewer",
    "UpdateBids",
    "Evaluate",
    "Snapshot",
    "Stats",
    "Shutdown",
    "Response",
    "request_from_dict",
    "request_to_dict",
    "EngineSession",
    "serve_stream",
]
