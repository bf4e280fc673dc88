"""Problem storage: SQLite, optionally with memmap blocks.

A problem without a store keeps its entities on itself; binding a
:class:`SqliteProblemStore` also persists them in a normalized SQLite file
that follows the problem's mutation chain.  See ``docs/storage.md`` for
the schema/layout reference, and
``tests/conformance/test_store_conformance.py`` for the bitwise-equality
contract the store is held to.
"""

from repro.store.blocks import MemmapScoreStore
from repro.store.sqlite import SCHEMA_VERSION, SqliteProblemStore, StoreStats

__all__ = [
    "MemmapScoreStore",
    "SCHEMA_VERSION",
    "SqliteProblemStore",
    "StoreStats",
]
