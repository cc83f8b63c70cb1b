"""Slotted pages.

The classic layout: a fixed-size byte array with a header and a slot
directory growing from the front, and record payloads growing from the
back.  Deleted slots become tombstones; their space is reclaimed by
:meth:`SlottedPage.compact`.

Layout::

    [ page_id:u32 | slot_count:u16 | free_ptr:u16 | slots... ] ... [records]

Each slot is ``offset:u16, length:u16``; a tombstone has offset 0xFFFF.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import PageError

_HEADER = struct.Struct("<IHH")
_SLOT = struct.Struct("<HH")
_TOMBSTONE = 0xFFFF

DEFAULT_PAGE_SIZE = 8192


class SlottedPage:
    """A fixed-size page of variable-length records."""

    def __init__(self, page_id: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < _HEADER.size + _SLOT.size + 1:
            raise PageError(f"page size {page_size} too small")
        if page_size - 1 > _TOMBSTONE:
            raise PageError(f"page size {page_size} exceeds u16 offsets")
        if page_id < 0:
            raise PageError(f"negative page id {page_id}")
        self.page_id = page_id
        self.page_size = page_size
        self._slots: list[tuple[int, int]] = []  # (offset, length)
        self._records: dict[int, bytes] = {}     # slot -> payload
        self._free_ptr = page_size                # records grow downward

    # -- space accounting ---------------------------------------------------
    @property
    def slot_count(self) -> int:
        return len(self._slots)

    @property
    def live_records(self) -> int:
        """Records not deleted."""
        return len(self._records)

    def free_space(self) -> int:
        """Bytes available for a new record *and* its slot entry."""
        directory_end = _HEADER.size + _SLOT.size * len(self._slots)
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
        slot = len(self._slots)
        self._slots.append((self._free_ptr, len(payload)))
        self._records[slot] = payload
        return slot

    def read(self, slot: int) -> bytes:
        """Record payload at ``slot``."""
        self._check_slot(slot)
        try:
            return self._records[slot]
        except KeyError:
            raise PageError(
                f"page {self.page_id}: slot {slot} is deleted") from None

    def delete(self, slot: int) -> None:
        """Tombstone a record; space reclaimed on :meth:`compact`."""
        self._check_slot(slot)
        if slot not in self._records:
            raise PageError(f"page {self.page_id}: slot {slot} already deleted")
        del self._records[slot]
        self._slots[slot] = (_TOMBSTONE, 0)

    def update(self, slot: int, payload: bytes) -> None:
        """Replace a record in place (must fit the page)."""
        old = self.read(slot)
        if len(payload) <= len(old):
            offset, _length = self._slots[slot]
            self._slots[slot] = (offset, len(payload))
            self._records[slot] = payload
            return
        growth = len(payload) - len(old)
        if growth > self.free_space() + _SLOT.size:
            raise PageError(
                f"page {self.page_id}: updated record does not fit")
        self._free_ptr -= len(payload)
        self._slots[slot] = (self._free_ptr, len(payload))
        self._records[slot] = payload

    def compact(self) -> int:
        """Defragment: rewrite live records contiguously.

        Slot numbers are preserved (tombstoned slots remain tombstones so
        record ids stay stable).  Returns bytes reclaimed.
        """
        before = self.free_space()
        self._free_ptr = self.page_size
        for slot in range(len(self._slots)):
            payload = self._records.get(slot)
            if payload is None:
                self._slots[slot] = (_TOMBSTONE, 0)
                continue
            self._free_ptr -= len(payload)
            self._slots[slot] = (self._free_ptr, len(payload))
        return self.free_space() - before

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Iterate (slot, payload) over live records in slot order."""
        for slot in range(len(self._slots)):
            payload = self._records.get(slot)
            if payload is not None:
                yield slot, payload

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < len(self._slots):
            raise PageError(
                f"page {self.page_id}: slot {slot} out of range "
                f"0..{len(self._slots) - 1}")

    def __repr__(self) -> str:
        return (f"SlottedPage(id={self.page_id}, live={self.live_records}, "
                f"free={self.free_space()})")
