"""JSON (de)serialisation of problems and assignments.

Conference organisers normally keep reviewer expertise, submissions,
conflicts and final assignments in files; this module defines a small,
stable JSON format so problems built by the topic pipeline or the synthetic
generator can be saved, inspected, versioned and re-loaded, and so the
command-line interface can operate on files.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.assignment import Assignment
from repro.core.constraints import ConflictOfInterest
from repro.core.entities import Paper, Reviewer
from repro.core.problem import WGRAPProblem
from repro.core.vectors import TopicVector
from repro.exceptions import ConfigurationError, UnsupportedFormatError
from repro.fault import get_failpoints

__all__ = [
    "atomic_write_text",
    "check_version",
    "entry_dicts",
    "paper_to_dict",
    "reviewer_to_dict",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
    "assignment_to_dict",
    "assignment_from_dict",
    "save_assignment",
    "load_assignment",
    "EngineSnapshot",
    "engine_snapshot_to_dict",
    "engine_snapshot_from_dict",
    "save_engine_snapshot",
    "load_engine_snapshot",
]

_FORMAT_VERSION = 1
_SNAPSHOT_VERSION = 1


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically: readers see either the old
    file or the complete new one, never a torn prefix.

    The text goes to a temp file in the *same directory* (so the final
    rename cannot cross filesystems), is fsynced, then ``os.replace``\\ d
    over the target; the directory entry is fsynced best-effort so the
    rename itself survives a power cut.  Every durable artifact in the
    repo — problems, assignments, engine snapshots, journal checkpoints —
    goes through here.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        # A crash (or injected fault) here leaves the target untouched and
        # only a stray .tmp file behind — the torn-write window is gone.
        get_failpoints().hit("snapshot_write")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return path
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)
    return path


# ----------------------------------------------------------------------
# Problems
# ----------------------------------------------------------------------
def reviewer_to_dict(reviewer: Reviewer) -> dict[str, Any]:
    """One entry of a problem's ``reviewers`` list."""
    return {
        "id": reviewer.id,
        "name": reviewer.name,
        "h_index": reviewer.h_index,
        "vector": reviewer.vector.to_list(),
    }


def paper_to_dict(paper: Paper) -> dict[str, Any]:
    """One entry of a problem's ``papers`` list."""
    return {
        "id": paper.id,
        "title": paper.title,
        "abstract": paper.abstract,
        "vector": paper.vector.to_list(),
    }


def entry_dicts(
    section: str, to_json: Callable[[Any], Any], items: Iterable[Any]
) -> list[Any]:
    """The list stored under ``section``: every item through its helper.

    :func:`problem_to_dict` builds its reviewer and paper lists through an
    ``entries(section, to_json, items)`` hook whose default is this
    function.  A journal checkpoint passes one that reuses the encoded text
    of each unchanged entity
    (:class:`repro.durability.journal.CheckpointPieces`).
    """
    return [to_json(item) for item in items]


def problem_to_dict(
    problem: WGRAPProblem, entries: Callable[..., Any] = entry_dicts
) -> dict[str, Any]:
    """A JSON-serialisable representation of a WGRAP problem."""
    return {
        "format_version": _FORMAT_VERSION,
        "num_topics": problem.num_topics,
        "group_size": problem.group_size,
        "reviewer_workload": problem.reviewer_workload,
        "scoring": problem.scoring.name,
        "reviewers": entries("reviewers", reviewer_to_dict, problem.reviewers),
        "papers": entries("papers", paper_to_dict, problem.papers),
        "conflicts": [list(pair) for pair in problem.conflicts],
    }


def check_version(payload: Any, what: str, expected: int) -> None:
    """Reject non-mapping payloads and unknown (future) format versions.

    Raising :class:`UnsupportedFormatError` — with the offending and the
    expected version attached — instead of letting a ``KeyError`` escape
    means callers (CLI, recovery, store import) can show what was found
    and what this build understands.
    """
    if not isinstance(payload, dict):
        raise UnsupportedFormatError(what, type(payload).__name__, expected)
    version = payload.get("format_version")
    if version != expected:
        raise UnsupportedFormatError(what, version, expected)


def _typed(value: Any, kind: type, name: str) -> Any:
    """``value`` if it is exactly of JSON type ``kind`` (an ``int`` is never
    a ``bool``, a ``float`` or a ``"2"``); a :class:`ConfigurationError`
    naming the field otherwise, like the request walk's refusals."""
    if type(value) is not kind:
        expected = "an integer" if kind is int else "a string"
        raise ConfigurationError(f"problem field {name!r} must be {expected}, got {value!r}")
    return value


def problem_from_dict(
    payload: dict[str, Any], validate_capacity: bool = True
) -> WGRAPProblem:
    """Rebuild a WGRAP problem from :func:`problem_to_dict` output.

    ``group_size`` and ``reviewer_workload`` must be JSON integers, and
    every paper and reviewer id (conflict entries included) a string;
    nothing is coerced.  ``validate_capacity`` is passed to
    :class:`~repro.core.problem.WGRAPProblem`.
    """
    check_version(payload, "problem", _FORMAT_VERSION)
    reviewers = [
        Reviewer(
            id=_typed(entry["id"], str, "reviewer id"),
            vector=TopicVector(entry["vector"]),
            name=entry.get("name", ""),
            h_index=entry.get("h_index"),
        )
        for entry in payload["reviewers"]
    ]
    papers = [
        Paper(
            id=_typed(entry["id"], str, "paper id"),
            vector=TopicVector(entry["vector"]),
            title=entry.get("title", ""),
            abstract=entry.get("abstract", ""),
        )
        for entry in payload["papers"]
    ]
    conflicts = ConflictOfInterest(
        (_typed(reviewer_id, str, "conflict reviewer id"), _typed(paper_id, str, "conflict paper id"))
        for reviewer_id, paper_id in payload.get("conflicts", [])
    )
    return WGRAPProblem(
        papers=papers,
        reviewers=reviewers,
        group_size=_typed(payload["group_size"], int, "group_size"),
        reviewer_workload=_typed(payload["reviewer_workload"], int, "reviewer_workload"),
        conflicts=conflicts,
        scoring=payload.get("scoring"),
        validate_capacity=validate_capacity,
    )


def save_problem(problem: WGRAPProblem, path: str | Path) -> Path:
    """Write a problem to a JSON file; returns the path written."""
    return atomic_write_text(path, json.dumps(problem_to_dict(problem), indent=2))


def load_problem(path: str | Path) -> WGRAPProblem:
    """Read a problem from a JSON file produced by :func:`save_problem`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return problem_from_dict(payload)


# ----------------------------------------------------------------------
# Assignments
# ----------------------------------------------------------------------
def assignment_to_dict(assignment: Assignment) -> dict[str, Any]:
    """A JSON-serialisable representation of an assignment."""
    return {
        "format_version": _FORMAT_VERSION,
        "assignment": assignment.to_dict(),
    }


def assignment_from_dict(payload: dict[str, Any]) -> Assignment:
    """Rebuild an assignment from :func:`assignment_to_dict` output."""
    check_version(payload, "assignment", _FORMAT_VERSION)
    return Assignment.from_dict(payload["assignment"])


def save_assignment(assignment: Assignment, path: str | Path) -> Path:
    """Write an assignment to a JSON file; returns the path written."""
    return atomic_write_text(path, json.dumps(assignment_to_dict(assignment), indent=2))


def load_assignment(path: str | Path) -> Assignment:
    """Read an assignment from a JSON file produced by :func:`save_assignment`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return assignment_from_dict(payload)


# ----------------------------------------------------------------------
# Assignment-engine snapshots
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineSnapshot:
    """Deserialised state of a long-lived assignment engine.

    A snapshot bundles everything a resident
    :class:`~repro.service.engine.AssignmentEngine` needs to resume
    serving after a restart: the current problem, the current assignment
    (``None`` when no solve has happened yet), accumulated reviewer bids
    and free-form metadata (last solver, revision counter, ...).
    """

    problem: WGRAPProblem
    assignment: Assignment | None = None
    bids: tuple[tuple[str, str, float], ...] = ()
    metadata: dict[str, Any] = field(default_factory=dict)


def engine_snapshot_to_dict(
    problem: WGRAPProblem,
    assignment: Assignment | None = None,
    bids: tuple[tuple[str, str, float], ...] = (),
    metadata: dict[str, Any] | None = None,
    entries: Callable[..., Any] = entry_dicts,
) -> dict[str, Any]:
    """A JSON-serialisable representation of engine state.

    ``entries`` builds the reviewer and paper lists (see
    :func:`entry_dicts`).
    """
    return {
        "format_version": _SNAPSHOT_VERSION,
        "problem": problem_to_dict(problem, entries),
        "assignment": assignment_to_dict(assignment) if assignment is not None else None,
        "bids": [list(bid) for bid in bids],
        "metadata": dict(metadata or {}),
    }


def engine_snapshot_from_dict(payload: dict[str, Any]) -> EngineSnapshot:
    """Rebuild engine state from :func:`engine_snapshot_to_dict` output."""
    check_version(payload, "engine snapshot", _SNAPSHOT_VERSION)
    raw_problem = payload.get("problem")
    if raw_problem is None:
        raise ConfigurationError("an engine snapshot needs a 'problem' section")
    # Restore the engine's problem as it was written.  A chain member can be
    # short of capacity (a late paper before the first solve), and refusing
    # it here would make that engine's own checkpoint unrecoverable.
    problem = problem_from_dict(raw_problem, validate_capacity=False)
    raw_assignment = payload.get("assignment")
    assignment = assignment_from_dict(raw_assignment) if raw_assignment is not None else None
    bids = tuple(
        (str(reviewer_id), str(paper_id), float(value))
        for reviewer_id, paper_id, value in payload.get("bids", [])
    )
    return EngineSnapshot(
        problem=problem,
        assignment=assignment,
        bids=bids,
        metadata=dict(payload.get("metadata", {})),
    )


def save_engine_snapshot(snapshot: dict[str, Any], path: str | Path) -> Path:
    """Write an engine snapshot dict to a JSON file atomically.

    Snapshots are what crashed tenants recover from, so a torn write here
    would turn one crash into permanent data loss; the atomic
    temp-file-then-rename of :func:`atomic_write_text` closes that window.
    Returns the path written.
    """
    return atomic_write_text(path, json.dumps(snapshot, indent=2))


def load_engine_snapshot(path: str | Path) -> EngineSnapshot:
    """Read an engine snapshot produced by :func:`save_engine_snapshot`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return engine_snapshot_from_dict(payload)
