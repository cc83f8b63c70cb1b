"""Slotted pages.

The classic layout: a fixed-size byte array with a header and a slot
directory growing from the front, and record payloads growing from the
back.  Pages are append-only: the heap files that hold them only load.

Layout::

    [ page_id:u32 | slot_count:u16 | free_ptr:u16 | slots... ] ... [records]

Each slot is ``offset:u16, length:u16``.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import PageError

_HEADER = struct.Struct("<IHH")
_SLOT = struct.Struct("<HH")
#: the largest offset a u16 slot entry holds
_MAX_OFFSET = 0xFFFF

DEFAULT_PAGE_SIZE = 8192


class SlottedPage:
    """A fixed-size page of variable-length records."""

    def __init__(self, page_id: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < _HEADER.size + _SLOT.size + 1:
            raise PageError(f"page size {page_size} too small")
        if page_size - 1 > _MAX_OFFSET:
            raise PageError(f"page size {page_size} exceeds u16 offsets")
        if page_id < 0:
            raise PageError(f"negative page id {page_id}")
        self.page_id = page_id
        self.page_size = page_size
        self._records: list[bytes] = []          # payload by slot
        self._free_ptr = page_size                # records grow downward

    # -- space accounting ---------------------------------------------------
    def free_space(self) -> int:
        """Bytes available for a new record *and* its slot entry."""
        directory_end = _HEADER.size + _SLOT.size * len(self._records)
        return max(0, self._free_ptr - directory_end - _SLOT.size)

    def has_room_for(self, payload_len: int) -> bool:
        return payload_len <= self.free_space()

    # -- record operations --------------------------------------------------
    def insert(self, payload: bytes) -> int:
        """Store a record; returns its slot number."""
        if not payload:
            raise PageError("empty records are not allowed")
        if not self.has_room_for(len(payload)):
            raise PageError(
                f"page {self.page_id}: record of {len(payload)} bytes does "
                f"not fit ({self.free_space()} free)")
        self._free_ptr -= len(payload)
        self._records.append(payload)
        return len(self._records) - 1

    def read(self, slot: int) -> bytes:
        """Record payload at ``slot``."""
        self._check_slot(slot)
        return self._records[slot]

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Iterate (slot, payload) in slot order."""
        return enumerate(self._records)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < len(self._records):
            raise PageError(
                f"page {self.page_id}: slot {slot} out of range "
                f"0..{len(self._records) - 1}")
