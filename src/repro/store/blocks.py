"""Block-aligned, memory-mapped score-matrix storage.

One :class:`MemmapScoreStore` owns a directory holding a single
column-major (Fortran-order) ``float64`` file of shape
``(rows, capacity)`` plus a small ``meta.json`` sidecar::

    blocks/
      meta.json           # {rows, cols, capacity, generation, block_cols}
      scores-000003.bin   # rows * capacity * 8 bytes, column-contiguous

Column-major layout makes a *column* contiguous on disk, which matches
every access pattern of the problem chain's pair-score matrix it backs
(:func:`repro.core.delta.built_score_matrix`): appending a late paper
writes one contiguous tail region, and per-paper shortlists read one
contiguous region.  Capacity grows in blocks of ``block_cols`` columns
so appends amortise to one ``ftruncate`` per block.

Shape-changing operations (full rebuilds, reviewer-row drops) always
allocate a **new generation file** instead of rewriting in place: any
older read-only view some problem holds keeps mapping the unlinked old
file, so historical views stay bitwise-intact while the store moves on.
Column appends land beyond the region any older view of the generation
maps, which is safe for the live view only
(:class:`repro.core.delta.ScoreBlocks`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["MemmapScoreStore"]

_META_NAME = "meta.json"


class MemmapScoreStore:
    """A growable on-disk ``(rows, cols)`` float64 matrix, block-aligned.

    The store starts empty (``allocate``/``write_all``/``build`` create
    the first generation) and afterwards supports exactly the mutations
    the delta layer needs: ``append_column`` and ``drop_row`` (plus
    writes through the writable view).  All block traffic is counted so
    the observability layer can report reads, writes and mapped bytes.
    """

    def __init__(self, directory: str | Path, block_cols: int = 64) -> None:
        self.directory = Path(directory)
        if block_cols < 1:
            raise ConfigurationError("block_cols must be at least 1")
        self.block_cols = int(block_cols)
        self.rows = 0
        self.cols = 0
        self.capacity = 0
        self.generation = 0
        self._map: np.memmap | None = None
        self.block_reads = 0
        self.block_writes = 0
        self.appends = 0
        self.drops = 0
        meta_path = self.directory / _META_NAME
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            self.rows = int(meta["rows"])
            self.cols = int(meta["cols"])
            self.capacity = int(meta["capacity"])
            self.generation = int(meta["generation"])
            self.block_cols = int(meta.get("block_cols", self.block_cols))
            if self.rows and self.capacity:
                self._map = np.memmap(
                    self._data_path(),
                    dtype=np.float64,
                    mode="r+",
                    shape=(self.rows, self.capacity),
                    order="F",
                )

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------
    def _data_path(self, generation: int | None = None) -> Path:
        gen = self.generation if generation is None else generation
        return self.directory / f"scores-{gen:06d}.bin"

    def _round_up(self, cols: int) -> int:
        blocks = max(1, -(-int(cols) // self.block_cols))
        return blocks * self.block_cols

    def _save_meta(self) -> None:
        meta = {
            "rows": self.rows,
            "cols": self.cols,
            "capacity": self.capacity,
            "generation": self.generation,
            "block_cols": self.block_cols,
            "dtype": "float64",
        }
        tmp = self.directory / (_META_NAME + ".tmp")
        tmp.write_text(json.dumps(meta, indent=2), encoding="utf-8")
        os.replace(tmp, self.directory / _META_NAME)

    @property
    def bytes_mapped(self) -> int:
        return self.rows * self.capacity * 8

    # ------------------------------------------------------------------
    # Allocation and full builds
    # ------------------------------------------------------------------
    def allocate(self, rows: int, cols: int) -> np.memmap:
        """Start a fresh zero-filled generation sized for ``(rows, cols)``.

        The previous generation file (if any) is unlinked, but any live
        memmap view of it keeps it readable until the view is collected.
        """
        if rows < 1 or cols < 1:
            raise ConfigurationError(
                f"cannot allocate a ({rows}, {cols}) score block file"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        old = self._data_path() if self._map is not None else None
        self.generation += 1
        self.rows = int(rows)
        self.cols = int(cols)
        self.capacity = self._round_up(cols)
        path = self._data_path()
        with open(path, "wb") as handle:
            handle.truncate(self.rows * self.capacity * 8)
        self._map = np.memmap(
            path, dtype=np.float64, mode="r+", shape=(self.rows, self.capacity), order="F"
        )
        self._save_meta()
        if old is not None:
            Path(old).unlink(missing_ok=True)
        return self.view()

    def write_all(self, matrix: np.ndarray) -> np.memmap:
        """Copy a whole ``(rows, cols)`` matrix into a fresh generation."""
        matrix = np.asarray(matrix, dtype=np.float64)
        with TRACER.span(
            "store.block_io", op="write_all", rows=int(matrix.shape[0]),
            cols=int(matrix.shape[1]),
        ):
            view = self.allocate(matrix.shape[0], matrix.shape[1])
            for start in range(0, self.cols, self.block_cols):
                stop = min(start + self.block_cols, self.cols)
                view[:, start:stop] = matrix[:, start:stop]
                self.block_writes += 1
        return view

    def build(
        self, rows: int, cols: int, scorer: Callable[[int, int], np.ndarray]
    ) -> np.memmap:
        """Fill a fresh generation block-by-block from ``scorer(j0, j1)``.

        Peak RAM is one ``(rows, block_cols)`` block plus whatever the
        scorer holds — this is the out-of-core full build: the complete
        matrix only ever exists on disk.
        """
        with TRACER.span("store.block_io", op="build", rows=rows, cols=cols):
            view = self.allocate(rows, cols)
            for start in range(0, self.cols, self.block_cols):
                stop = min(start + self.block_cols, self.cols)
                view[:, start:stop] = scorer(start, stop)
                self.block_writes += 1
        return view

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view(self, writable: bool = True) -> np.memmap:
        """The current ``(rows, cols)`` slice of the mapped file."""
        if self._map is None:
            raise ConfigurationError("score block store has not been allocated")
        self.block_reads += 1
        sliced = self._map[:, : self.cols]
        if not writable:
            sliced = sliced[:]
            sliced.setflags(write=False)
        return sliced

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def append_column(self, values: np.ndarray | None = None) -> np.memmap:
        """Append one column (zeros when ``values`` is ``None``).

        Stays inside reserved capacity when possible; otherwise extends
        the *same* file by one block (older views map a prefix region the
        extension never touches).
        """
        if self._map is None:
            raise ConfigurationError("score block store has not been allocated")
        with TRACER.span("store.block_io", op="append", col=self.cols):
            if self.cols == self.capacity:
                self.capacity += self.block_cols
                path = self._data_path()
                with open(path, "r+b") as handle:
                    handle.truncate(self.rows * self.capacity * 8)
                self._map = np.memmap(
                    path,
                    dtype=np.float64,
                    mode="r+",
                    shape=(self.rows, self.capacity),
                    order="F",
                )
            if values is not None:
                column = np.asarray(values, dtype=np.float64).reshape(-1)
                if column.shape[0] != self.rows:
                    raise ConfigurationError(
                        f"appended column has {column.shape[0]} rows, store has "
                        f"{self.rows}"
                    )
                self._map[:, self.cols] = column
            self.cols += 1
            self.block_writes += 1
            self.appends += 1
            self._save_meta()
        return self.view()

    def drop_row(self, row: int) -> np.memmap:
        """Remove one row by rewriting into a fresh generation, blockwise.

        No re-scoring happens (pair scores are independent across rows);
        the cost is one sequential read+write pass over the file.  Older
        views keep mapping the previous generation untouched.
        """
        if self._map is None:
            raise ConfigurationError("score block store has not been allocated")
        if not 0 <= row < self.rows:
            raise ConfigurationError(f"row {row} out of range for {self.rows} rows")
        if self.rows == 1:
            raise ConfigurationError("cannot drop the only row of the score store")
        with TRACER.span("store.block_io", op="drop_row", row=row):
            source = self._map
            cols = self.cols
            view = self.allocate(self.rows - 1, max(1, cols))
            self.cols = cols
            for start in range(0, cols, self.block_cols):
                stop = min(start + self.block_cols, cols)
                block = np.asarray(source[:, start:stop])
                self.block_reads += 1
                view[:, start:stop] = np.delete(block, row, axis=0)
                self.block_writes += 1
            self.drops += 1
            self._save_meta()
        return self.view()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push dirty mapped pages to disk."""
        if self._map is not None:
            self._map.flush()

    def close(self) -> None:
        self.flush()
        self._map = None

    def describe(self) -> dict[str, Any]:
        return {
            "directory": str(self.directory),
            "rows": self.rows,
            "cols": self.cols,
            "capacity": self.capacity,
            "generation": self.generation,
            "block_cols": self.block_cols,
            "block_reads": self.block_reads,
            "block_writes": self.block_writes,
            "appends": self.appends,
            "drops": self.drops,
            "bytes_mapped": self.bytes_mapped,
        }
