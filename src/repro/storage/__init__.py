"""Storage manager substrate (the reproduction's Shore-MT analog).

Provides in-memory tables organized into pages, a buffer pool with LRU
eviction, an OS page-cache model beneath it (bypassable with direct I/O),
and page-read primitives that charge simulated CPU and disk time.

Tables are immutable after load (the paper's workloads are read-only OLAP
over relatively static data), which lets dataset objects be shared across
simulation runs.
"""

from repro.storage.arrangements import ARRANGEMENTS, Arrangement, ArrangementCache
from repro.storage.bufferpool import BufferPool
from repro.storage.cache import OsPageCache
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.page import ColumnBatch, ColumnPage, Page, mask_to_sel
from repro.storage.schema import Column, Schema
from repro.storage.selections import Selection, SelectionMemo
from repro.storage.table import Table

__all__ = [
    "ARRANGEMENTS",
    "Arrangement",
    "ArrangementCache",
    "BufferPool",
    "Column",
    "ColumnBatch",
    "ColumnPage",
    "OsPageCache",
    "Page",
    "Schema",
    "Selection",
    "SelectionMemo",
    "StorageConfig",
    "StorageManager",
    "Table",
    "mask_to_sel",
]
