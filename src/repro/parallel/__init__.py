"""Worker-pool execution layer.

Everything below this package runs on one core; everything above it can
choose not to.  Three independent multipliers live here, all configured by
one :class:`~repro.parallel.config.ParallelConfig`:

* :mod:`repro.parallel.sharding` — sharded construction of the dense
  ``(R, P)`` score matrix: the reviewer axis is split across worker
  processes and each shard is computed with a cache-blocked kernel, so the
  result is **bitwise-identical** to the serial path while avoiding the
  full ``(R, P, T)`` broadcast intermediate.  Wired into
  :meth:`ScoringFunction.score_matrix <repro.core.scoring.ScoringFunction.score_matrix>`,
  :func:`~repro.core.delta.built_score_matrix` and
  :class:`~repro.service.engine.AssignmentEngine`.
* :mod:`repro.parallel.portfolio` — a solver portfolio that races several
  registered CRA solvers on the same problem under an optional deadline
  and returns the best-scoring feasible assignment.
* :mod:`repro.parallel.trials` — a deterministic fan-out driver for
  independent experiment trials with stable per-trial seed derivation
  (parallel runs reproduce serial runs seed-for-seed).

Small problems never pay for any of this: below the config's
``serial_threshold`` the exact serial code paths run unchanged.

See ``docs/parallel.md`` for the architecture discussion and
``examples/parallel_portfolio.py`` for a runnable tour.
"""

from repro.parallel.config import DEFAULT_SERIAL_THRESHOLD, ParallelConfig
from repro.parallel.portfolio import (
    DEFAULT_PORTFOLIO,
    full_portfolio,
    PortfolioEntry,
    PortfolioOutcome,
    run_portfolio,
)
from repro.parallel.sharding import blocked_score_matrix, sharded_score_matrix
from repro.parallel.trials import run_trials, trial_seeds

__all__ = [
    "ParallelConfig",
    "DEFAULT_SERIAL_THRESHOLD",
    "DEFAULT_PORTFOLIO",
    "full_portfolio",
    "PortfolioEntry",
    "PortfolioOutcome",
    "run_portfolio",
    "blocked_score_matrix",
    "sharded_score_matrix",
    "run_trials",
    "trial_seeds",
]
