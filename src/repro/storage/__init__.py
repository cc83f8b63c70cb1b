"""Storage engine: pages, files, compression, buffering, logging.

Physical layout is byte-accurate — rows and column segments are really
encoded — so the simulated I/O the engine charges corresponds to actual
stored bytes, and compression ratios are measured, not assumed.
"""

from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferPool, ReplacementPolicy
from repro.storage.column import ColumnFile
from repro.storage.compression import (
    Codec,
    DeltaCodec,
    DictionaryCodec,
    LzLiteCodec,
    NoneCodec,
    RleCodec,
    codec_by_name,
)
from repro.storage.heap import HeapFile
from repro.storage.index import TableIndex
from repro.storage.manager import StorageManager, Table
from repro.storage.page import SlottedPage
from repro.storage.partitioner import Partitioner
from repro.storage.prefetcher import BurstPrefetcher, trickle_stream
from repro.storage.tiering import StorageTier, TableProfile, TieringAdvisor
from repro.storage.wal import WriteAheadLog

__all__ = [
    "BPlusTree",
    "BufferPool",
    "BurstPrefetcher",
    "Codec",
    "ColumnFile",
    "DeltaCodec",
    "DictionaryCodec",
    "HeapFile",
    "LzLiteCodec",
    "NoneCodec",
    "Partitioner",
    "ReplacementPolicy",
    "RleCodec",
    "SlottedPage",
    "StorageManager",
    "StorageTier",
    "Table",
    "TableIndex",
    "TableProfile",
    "TieringAdvisor",
    "WriteAheadLog",
    "codec_by_name",
    "trickle_stream",
]
