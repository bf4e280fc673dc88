"""The problem-storage layer: interface and shared pieces.

A :class:`ProblemStore` owns the durable representation of one WGRAP
instance — reviewers, papers, conflicts and bids — and keeps it current
under the live mutation stream: attached to a problem chain, the store
translates ``add_paper`` / ``remove_reviewer`` events and conflict
changelog tails into incremental index updates, never a rebuild.

The implementation is :class:`repro.store.sqlite.SqliteProblemStore`: a
normalized SQLite schema (stdlib ``sqlite3``) whose conflict index turns
candidate generation into an indexed anti-join instead of a scan.  A
problem no store tracks keeps its entities in RAM and scans its own
reviewers (:meth:`~repro.core.problem.WGRAPProblem.candidate_reviewers`).

``EntityIndex`` lives here because both the store and
:class:`~repro.core.problem.WGRAPProblem` itself need the same id/position
bookkeeping.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (problem imports us)
    from repro.core.problem import WGRAPProblem
    from repro.store.blocks import MemmapScoreStore

__all__ = ["EntityIndex", "ProblemStore", "StoreStats"]


class EntityIndex:
    """Shared index bookkeeping for papers and reviewers.

    Moved here from ``repro.core.problem`` (where it was ``_EntityIndex``)
    so the store reuses the same id/position mapping and duplicate
    detection the problem itself relies on.
    """

    __slots__ = ("ids", "positions")

    def __init__(self, ids: Sequence[str], kind: str) -> None:
        self.ids: tuple[str, ...] = tuple(ids)
        self.positions: dict[str, int] = {}
        for position, identifier in enumerate(self.ids):
            if identifier in self.positions:
                raise ConfigurationError(f"duplicate {kind} id: {identifier!r}")
            self.positions[identifier] = position

    def index_of(self, identifier: str, kind: str) -> int:
        try:
            return self.positions[identifier]
        except KeyError:
            raise KeyError(f"unknown {kind} id: {identifier!r}") from None


@dataclass
class StoreStats:
    """Counters describing the work a problem store has done.

    Attributes
    ----------
    index_updates:
        Mutation events translated into incremental index deltas.
    index_hits:
        Candidate queries answered from the conflict index.
    conflict_deltas:
        Conflict changelog entries replayed into the store.
    rebuilds:
        Conservative full rebuilds (unknown mutation kinds or a compacted
        conflict changelog) — the thing incremental maintenance avoids.
    syncs:
        Explicit :meth:`ProblemStore.sync` commits.
    loads:
        Full problem materialisations (:meth:`ProblemStore.load_problem`).
    """

    index_updates: int = 0
    index_hits: int = 0
    conflict_deltas: int = 0
    rebuilds: int = 0
    syncs: int = 0
    loads: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "index_updates": self.index_updates,
            "index_hits": self.index_hits,
            "conflict_deltas": self.conflict_deltas,
            "rebuilds": self.rebuilds,
            "syncs": self.syncs,
            "loads": self.loads,
        }


class ProblemStore(abc.ABC):
    """Interface a problem store implements.

    A store can *materialise* a problem (:meth:`load_problem`), *follow*
    a live mutation chain (:meth:`attach`), answer candidate queries, and
    persist itself (:meth:`sync`).  An engine owns at most one store per
    tenant; without one, the problem chain itself holds the entities.
    """

    #: short store tag ("sqlite"), used by describe() and stats
    kind: str = "abstract"

    def __init__(self) -> None:
        self.stats = StoreStats()

    # -- materialisation ------------------------------------------------
    @abc.abstractmethod
    def load_problem(self) -> "WGRAPProblem":
        """Materialise the stored instance as a :class:`WGRAPProblem`."""

    @abc.abstractmethod
    def attach(self, problem: "WGRAPProblem") -> None:
        """Follow ``problem``'s mutation chain with incremental updates."""

    def tracks(self, problem: "WGRAPProblem") -> bool:
        """Whether this store currently mirrors exactly ``problem``.

        :attr:`WGRAPProblem.entity_store` only delegates entity queries to
        a bound store while it tracks that problem — a query against an
        older instance in the chain must not be answered from newer state.
        """
        return False

    # -- candidate generation ------------------------------------------
    @abc.abstractmethod
    def candidate_reviewers(self, paper_id: str) -> list[str]:
        """Non-conflicted reviewer ids for one paper, in problem order."""

    # -- adjacent state -------------------------------------------------
    @abc.abstractmethod
    def record_bids(self, bids: Iterable[tuple[str, str, float]]) -> int:
        """Persist bid triples; returns the number recorded."""

    @abc.abstractmethod
    def load_bids(self) -> tuple[tuple[str, str, float], ...]:
        """All persisted bids, ordered by (reviewer_id, paper_id)."""

    # -- lifecycle ------------------------------------------------------
    def matrix_backend(self) -> "MemmapScoreStore | None":
        """The memmap blocks to build the chain's score matrix in, or ``None``."""
        return None

    @property
    def path(self) -> Any:
        """Where the store persists, or ``None`` for purely resident ones."""
        return None

    def sync(self) -> None:
        """Commit pending deltas to durable storage (no-op in RAM)."""
        self.stats.syncs += 1

    def close(self) -> None:
        """Commit and release resources; the store is unusable afterwards."""

    def abort(self) -> None:
        """Crash-stop: discard uncommitted deltas instead of committing.

        The transactional SQLite store overrides this with a rollback; by
        default it is just :meth:`close`.
        """
        self.close()

    def describe(self) -> dict[str, Any]:
        """Row/index statistics for ``stats`` requests and ``store info``."""
        return {"kind": self.kind, **self.stats.as_dict()}
