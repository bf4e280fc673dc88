"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from infeasible
problem instances or solver failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or invalid parameters."""


class DimensionMismatchError(ConfigurationError):
    """Two topic vectors (or a vector and a problem) have different sizes."""


class UnsupportedFormatError(ConfigurationError):
    """A persisted payload declares a format this build cannot read.

    Raised *before* any payload field is touched, so an incompatible (or
    future-version) snapshot fails with a structured error naming what
    was loaded, the version found and the version expected — never an
    opaque ``KeyError`` from half-parsed state.
    """

    def __init__(self, what: str, found: object, expected: object) -> None:
        self.what = what
        self.found = found
        self.expected = expected
        super().__init__(
            f"unsupported {what} format version {found!r} (expected {expected!r})"
        )


class InfeasibleProblemError(ReproError):
    """The problem instance admits no feasible assignment.

    Raised, for example, when ``R * delta_r < P * delta_p`` in a WGRAP
    instance, or when conflicts of interest make it impossible to give a
    paper its required number of reviewers.
    """


class InfeasibleAssignmentError(ReproError):
    """An assignment violates the constraints of its problem instance."""


class SolverError(ReproError):
    """A solver failed to produce a result."""


class UnknownScoringFunctionError(ConfigurationError, KeyError):
    """A scoring function name was not found in the registry."""


class UnknownSolverError(ConfigurationError, KeyError):
    """A solver name was not found in the solver registry."""


class RequestError(ReproError):
    """A request sent to the assignment-engine front end is malformed."""


class VocabularyError(ReproError):
    """A token or document refers to a word missing from the vocabulary."""
