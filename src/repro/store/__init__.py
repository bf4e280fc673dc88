"""Problem storage: SQLite, optionally with memmap blocks.

A problem without a store keeps its entities on itself; binding a
:class:`SqliteProblemStore` moves them into a normalized SQLite file.
See :mod:`repro.store.base` for the interface, ``docs/storage.md`` for
the schema/layout reference, and ``tests/conformance/test_store_conformance.py``
for the bitwise-equality contract the store is held to.
"""

from repro.store.base import EntityIndex, ProblemStore, StoreStats
from repro.store.blocks import MemmapScoreStore
from repro.store.sqlite import SCHEMA_VERSION, SqliteProblemStore

__all__ = [
    "EntityIndex",
    "MemmapScoreStore",
    "ProblemStore",
    "SCHEMA_VERSION",
    "SqliteProblemStore",
    "StoreStats",
]
