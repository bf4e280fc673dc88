"""SQLite-backed problem store.

The instance is compiled into a normalized relational schema (stdlib
``sqlite3`` — no new dependency)::

    meta(key, value)                      -- schema version, constraints, scoring
    reviewers(pos, id, name, h_index, vector)
    papers(pos, id, title, abstract, vector)
    conflicts(reviewer_id, paper_id)      -- PK (reviewer, paper)
    bids(reviewer_id, paper_id, value)

Topic vectors are raw little-endian float64 blobs, so a load round-trips
**bitwise** — store-backed solves are bit-identical to the in-RAM oracle
(pinned by ``tests/conformance/test_store_conformance.py``).

The store only persists.  The problem chain owns the entities and the one
live conflict set and answers every query; the store follows the chain
(:meth:`SqliteProblemStore.attach`), translating ``add_paper`` /
``remove_reviewer`` events and the conflict changelog tail into
**transactional row deltas** inside one long-running SQLite transaction
that only commits at :meth:`SqliteProblemStore.sync` — so a crash rolls
the store back exactly to the last checkpoint, matching the WAL-replay
contract of :mod:`repro.durability`.
"""

from __future__ import annotations

import sqlite3
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.core.constraints import ConflictOfInterest
from repro.core.entities import Paper, Reviewer
from repro.core.vectors import TopicVector
from repro.exceptions import ConfigurationError, UnsupportedFormatError
from repro.obs.trace import get_tracer
from repro.store.blocks import MemmapScoreStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import ProblemMutation, WGRAPProblem

TRACER = get_tracer()

__all__ = ["SCHEMA_VERSION", "SqliteProblemStore", "StoreStats"]

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS reviewers(
    pos     INTEGER PRIMARY KEY,
    id      TEXT NOT NULL UNIQUE,
    name    TEXT NOT NULL,
    h_index INTEGER,
    vector  BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS papers(
    pos      INTEGER PRIMARY KEY,
    id       TEXT NOT NULL UNIQUE,
    title    TEXT NOT NULL,
    abstract TEXT NOT NULL,
    vector   BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS conflicts(
    reviewer_id TEXT NOT NULL,
    paper_id    TEXT NOT NULL,
    PRIMARY KEY (reviewer_id, paper_id)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS bids(
    reviewer_id TEXT NOT NULL,
    paper_id    TEXT NOT NULL,
    value       REAL NOT NULL,
    PRIMARY KEY (reviewer_id, paper_id)
) WITHOUT ROWID;
"""


def _vector_blob(vector: TopicVector) -> bytes:
    return np.asarray(vector.values, dtype="<f8").tobytes()


def _vector_from_blob(blob: bytes) -> TopicVector:
    return TopicVector(np.frombuffer(blob, dtype="<f8"))


@dataclass
class StoreStats:
    """Counters describing the work a problem store has done.

    Attributes
    ----------
    index_updates:
        Mutation events translated into incremental row deltas.
    conflict_deltas:
        Conflict changelog entries replayed into the store.
    rebuilds:
        Conservative full rebuilds (a branched chain, an unknown mutation
        kind or a compacted conflict changelog) — the thing incremental
        maintenance avoids.
    syncs:
        Explicit :meth:`SqliteProblemStore.sync` commits.
    loads:
        Full problem materialisations (:meth:`SqliteProblemStore.load_problem`).
    """

    index_updates: int = 0
    conflict_deltas: int = 0
    rebuilds: int = 0
    syncs: int = 0
    loads: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class SqliteProblemStore:
    """One WGRAP instance persisted in one SQLite file.

    The store can *materialise* the instance (:meth:`load_problem`),
    *follow* a live mutation chain (:meth:`attach`) and commit what it
    followed (:meth:`sync`).  An engine owns at most one store per tenant;
    without one, the problem chain alone holds the instance.

    Single-writer by design (each tenant's store lives on that tenant's
    worker thread — the same discipline the journal follows), hence
    ``check_same_thread=False`` with external serialisation.
    """

    #: store tag, reported by describe() and stats
    kind = "sqlite"

    def __init__(self, path: str | Path, _create: bool = False) -> None:
        self.stats = StoreStats()
        self._path = Path(path)
        if not _create and not self._path.exists():
            raise ConfigurationError(f"no problem store at {self._path}")
        self._conn = sqlite3.connect(
            self._path, isolation_level=None, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        if _create:
            self._set_meta("schema_version", str(SCHEMA_VERSION))
        else:
            found = self._get_meta("schema_version")
            if found != str(SCHEMA_VERSION):
                self._conn.close()
                raise UnsupportedFormatError("problem store schema", found, SCHEMA_VERSION)
        # One long-running transaction: every row delta lands inside it
        # and only sync()/close() commit — a crash rolls back to the last
        # checkpoint, which is exactly what WAL-tail replay expects.
        self._conn.execute("BEGIN")
        self._problem_ref: Any = None
        #: conflict version of the tracked problem the rows reflect
        self._conflict_seen = 0
        store_ref = weakref.ref(self)

        def listener(mutation: "ProblemMutation") -> None:
            store = store_ref()
            if store is None:
                mutation.source.remove_mutation_listener(listener)
                mutation.result.remove_mutation_listener(listener)
                return
            store._on_mutation(mutation)

        self._listener = listener
        self._blocks: MemmapScoreStore | None = None
        if self._get_meta("blocks") == "1":
            self._blocks = MemmapScoreStore(
                self.blocks_directory,
                block_cols=int(self._get_meta("block_cols") or 64),
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        problem: "WGRAPProblem",
        blocks: bool = False,
        block_cols: int = 64,
    ) -> "SqliteProblemStore":
        """Compile a problem into a new store file (and attach to it)."""
        path = Path(path)
        if path.exists():
            raise ConfigurationError(f"refusing to overwrite existing store {path}")
        path.parent.mkdir(parents=True, exist_ok=True)
        store = cls(path, _create=True)
        with TRACER.span(
            "store.open",
            mode="create",
            reviewers=problem.num_reviewers,
            papers=problem.num_papers,
        ):
            store._bulk_load(problem)
            if blocks:
                store._set_meta("blocks", "1")
                store._set_meta("block_cols", str(int(block_cols)))
                store._blocks = MemmapScoreStore(
                    store.blocks_directory, block_cols=block_cols
                )
            store.attach(problem)
            store.sync()
        return store

    @classmethod
    def open(cls, path: str | Path) -> "SqliteProblemStore":
        """Open an existing store file."""
        with TRACER.span("store.open", mode="open", path=str(path)):
            return cls(path)

    @property
    def path(self) -> Path:
        """The store file."""
        return self._path

    @property
    def blocks_directory(self) -> Path:
        return Path(str(self._path) + ".blocks")

    # ------------------------------------------------------------------
    # Meta helpers
    # ------------------------------------------------------------------
    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO meta(key, value) VALUES (?, ?)", (key, value)
        )

    def _get_meta(self, key: str) -> str | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else str(row[0])

    # ------------------------------------------------------------------
    # Bulk load (create-time) and conservative rebuild
    # ------------------------------------------------------------------
    def _bulk_load(self, problem: "WGRAPProblem") -> None:
        self._conn.execute("DELETE FROM reviewers")
        self._conn.execute("DELETE FROM papers")
        self._conn.execute("DELETE FROM conflicts")
        self._set_meta("group_size", str(problem.group_size))
        self._set_meta("reviewer_workload", str(problem.reviewer_workload))
        self._set_meta("num_topics", str(problem.num_topics))
        self._set_meta("scoring", problem.scoring.name)
        self._conn.executemany(
            "INSERT INTO reviewers(pos, id, name, h_index, vector) VALUES (?, ?, ?, ?, ?)",
            [
                (pos, reviewer.id, reviewer.name, reviewer.h_index, _vector_blob(reviewer.vector))
                for pos, reviewer in enumerate(problem.reviewers)
            ],
        )
        self._conn.executemany(
            "INSERT INTO papers(pos, id, title, abstract, vector) VALUES (?, ?, ?, ?, ?)",
            [
                (pos, paper.id, paper.title, paper.abstract, _vector_blob(paper.vector))
                for pos, paper in enumerate(problem.papers)
            ],
        )
        self._conn.executemany(
            "INSERT INTO conflicts(reviewer_id, paper_id) VALUES (?, ?)",
            [tuple(pair) for pair in problem.conflicts],
        )
        self._conflict_seen = problem.conflicts.version

    def _rebuild(self, problem: "WGRAPProblem") -> None:
        """Conservative full rebuild — only for unknown mutation kinds or
        a branched chain; the three tracked events never come here."""
        self._bulk_load(problem)
        self.stats.rebuilds += 1

    # ------------------------------------------------------------------
    # Live maintenance
    # ------------------------------------------------------------------
    def attach(self, problem: "WGRAPProblem") -> None:
        """Follow ``problem``'s mutation chain with transactional deltas."""
        tracked = self._tracked()
        if tracked is None:
            self._conflict_seen = problem.conflicts.version
        elif tracked is not problem:
            # Re-attached to a different chain member (e.g. the engine's
            # withdraw rollback): the rows may no longer match — rebase.
            self._rebuild(problem)
        self._follow(problem)

    def _tracked(self) -> "WGRAPProblem | None":
        """The problem the rows mirror, while it is alive."""
        return None if self._problem_ref is None else self._problem_ref()

    def _follow(self, problem: "WGRAPProblem") -> None:
        """Mirror ``problem`` from now on; only it builds into the blocks."""
        previous = self._tracked()
        if previous is not None and previous is not problem:
            previous.bind_score_blocks(None)
        self._problem_ref = weakref.ref(problem)
        problem.bind_score_blocks(self._blocks)
        # Listeners carry down a mutation chain, but a freshly materialised
        # problem (load_problem) or a rollback rebase starts a new chain the
        # old subscription never reaches.  add_mutation_listener is idempotent.
        problem.add_mutation_listener(self._listener)

    def _on_mutation(self, mutation: "ProblemMutation") -> None:
        # The source and the result share one conflict set, so the
        # changelog cursor stays valid across the mutation; the tail is
        # replayed at the next sync, close, describe or load.
        with TRACER.span("store.index_update", kind=mutation.kind):
            if self._tracked() is not mutation.source:
                # A branched or unknown chain: rebase on the result.
                self._rebuild(mutation.result)
            elif mutation.kind == "add_paper":
                for paper_id in mutation.papers:
                    paper = mutation.result.paper_by_id(paper_id)
                    self._conn.execute(
                        "INSERT INTO papers(pos, id, title, abstract, vector) "
                        "VALUES ((SELECT COALESCE(MAX(pos), -1) + 1 FROM papers), ?, ?, ?, ?)",
                        (paper.id, paper.title, paper.abstract, _vector_blob(paper.vector)),
                    )
                self.stats.index_updates += 1
            elif mutation.kind == "remove_reviewer":
                for reviewer_id in mutation.reviewers:
                    row = self._conn.execute(
                        "SELECT pos FROM reviewers WHERE id = ?", (reviewer_id,)
                    ).fetchone()
                    if row is None:
                        continue
                    pos = int(row[0])
                    self._conn.execute("DELETE FROM reviewers WHERE pos = ?", (pos,))
                    self._conn.execute(
                        "DELETE FROM bids WHERE reviewer_id = ?", (reviewer_id,)
                    )
                    # Conflict rows stay: the problem's conflict container
                    # keeps pairs of withdrawn reviewers, and the table
                    # mirrors the container exactly.
                self.stats.index_updates += 1
            else:
                self._rebuild(mutation.result)
            # Scalar constraints can change on the mutation itself (an
            # add_paper may raise reviewer_workload to keep the problem
            # feasible) — a reopened problem must see the constraints the
            # live chain ended with, not the ones it started from.
            result = mutation.result
            if self._get_meta("group_size") != str(result.group_size):
                self._set_meta("group_size", str(result.group_size))
            if self._get_meta("reviewer_workload") != str(result.reviewer_workload):
                self._set_meta("reviewer_workload", str(result.reviewer_workload))
        self._follow(mutation.result)

    def _replay_conflicts(self) -> None:
        """Translate the tracked problem's conflict changelog tail into row deltas."""
        problem = self._tracked()
        if problem is None:
            return
        conflicts = problem.conflicts
        if conflicts.version == self._conflict_seen:
            return
        changes = conflicts.changes_since(self._conflict_seen)
        with TRACER.span(
            "store.index_update", kind="conflicts",
            changes=-1 if changes is None else len(changes),
        ):
            if changes is None:
                # The changelog was compacted past our cursor: rebuild the
                # conflict table from the container (counted — incremental
                # maintenance exists to keep this at zero).
                self._conn.execute("DELETE FROM conflicts")
                self._conn.executemany(
                    "INSERT INTO conflicts(reviewer_id, paper_id) VALUES (?, ?)",
                    [tuple(pair) for pair in conflicts],
                )
                self.stats.rebuilds += 1
            else:
                for reviewer_id, paper_id, is_conflict in changes:
                    if is_conflict:
                        self._conn.execute(
                            "INSERT OR REPLACE INTO conflicts(reviewer_id, paper_id) "
                            "VALUES (?, ?)",
                            (reviewer_id, paper_id),
                        )
                    else:
                        self._conn.execute(
                            "DELETE FROM conflicts WHERE reviewer_id = ? AND paper_id = ?",
                            (reviewer_id, paper_id),
                        )
                self.stats.conflict_deltas += len(changes)
        self._conflict_seen = conflicts.version

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def load_problem(self) -> "WGRAPProblem":
        """Materialise the stored instance as a :class:`WGRAPProblem` and follow it."""
        from repro.core.problem import WGRAPProblem

        self._replay_conflicts()
        with TRACER.span("store.compile", path=str(self._path)):
            group_size = int(self._require_meta("group_size"))
            reviewer_workload = int(self._require_meta("reviewer_workload"))
            scoring = self._require_meta("scoring")
            reviewers = [
                Reviewer(
                    id=row[0],
                    vector=_vector_from_blob(row[3]),
                    name=row[1],
                    h_index=None if row[2] is None else int(row[2]),
                )
                for row in self._conn.execute(
                    "SELECT id, name, h_index, vector FROM reviewers ORDER BY pos"
                )
            ]
            papers = [
                Paper(
                    id=row[0],
                    vector=_vector_from_blob(row[3]),
                    title=row[1],
                    abstract=row[2],
                )
                for row in self._conn.execute(
                    "SELECT id, title, abstract, vector FROM papers ORDER BY pos"
                )
            ]
            conflicts = ConflictOfInterest(
                (str(row[0]), str(row[1]))
                for row in self._conn.execute(
                    "SELECT reviewer_id, paper_id FROM conflicts "
                    "ORDER BY reviewer_id, paper_id"
                )
            )
            # Mid-chain states can be capacity-infeasible (a withdraw before
            # the balancing add), exactly like conformance cold clones.
            problem = WGRAPProblem(
                papers=papers,
                reviewers=reviewers,
                group_size=group_size,
                reviewer_workload=reviewer_workload,
                conflicts=conflicts,
                scoring=scoring,
                validate_capacity=False,
            )
        self.stats.loads += 1
        # The materialised problem mirrors the rows by construction, so
        # follow it directly, without the rebuild attach() makes for a
        # different problem.
        self._conflict_seen = problem.conflicts.version
        self._follow(problem)
        return problem

    def _require_meta(self, key: str) -> str:
        value = self._get_meta(key)
        if value is None:
            raise ConfigurationError(
                f"store {self._path} has no {key!r} metadata; not a problem store?"
            )
        return value

    # ------------------------------------------------------------------
    # Adjacent state
    # ------------------------------------------------------------------
    def record_bids(self, bids: Iterable[tuple[str, str, float]]) -> int:
        """Persist bid triples; returns the number recorded."""
        triples = [(str(r), str(p), float(v)) for r, p, v in bids]
        self._conn.executemany(
            "INSERT OR REPLACE INTO bids(reviewer_id, paper_id, value) VALUES (?, ?, ?)",
            triples,
        )
        return len(triples)

    def load_bids(self) -> tuple[tuple[str, str, float], ...]:
        """All persisted bids, ordered by (reviewer_id, paper_id)."""
        return tuple(
            (str(row[0]), str(row[1]), float(row[2]))
            for row in self._conn.execute(
                "SELECT reviewer_id, paper_id, value FROM bids "
                "ORDER BY reviewer_id, paper_id"
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def matrix_backend(self) -> MemmapScoreStore | None:
        """The memmap blocks the tracked problem's score matrix builds in, or ``None``."""
        return self._blocks

    def sync(self) -> None:
        """Commit pending deltas: checkpoint = store sync, not a rewrite."""
        self._replay_conflicts()
        self._conn.execute("COMMIT")
        self._conn.execute("BEGIN")
        if self._blocks is not None:
            self._blocks.flush()
        self.stats.syncs += 1

    def close(self) -> None:
        """Commit and release resources; the store is unusable afterwards."""
        self._replay_conflicts()
        self._conn.execute("COMMIT")
        self._conn.close()
        if self._blocks is not None:
            self._blocks.close()

    def abort(self) -> None:
        """Roll back the open transaction (crash-stop; releases locks)."""
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:  # pragma: no cover - already closed/rolled back
            pass
        self._conn.close()
        if self._blocks is not None:
            self._blocks.close()

    def _count_rows(self, table: str) -> int:
        return int(self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])

    def describe(self) -> dict[str, Any]:
        """Row counts and counters for ``stats`` requests and ``store info``."""
        self._replay_conflicts()
        payload: dict[str, Any] = {
            "kind": self.kind,
            **self.stats.as_dict(),
            "path": str(self._path),
            "schema_version": SCHEMA_VERSION,
            "reviewer_rows": self._count_rows("reviewers"),
            "paper_rows": self._count_rows("papers"),
            "conflict_rows": self._count_rows("conflicts"),
            "bid_rows": self._count_rows("bids"),
            "meta": {
                str(key): str(value)
                for key, value in self._conn.execute("SELECT key, value FROM meta")
            },
        }
        if self._blocks is not None:
            payload["blocks"] = self._blocks.describe()
        return payload
