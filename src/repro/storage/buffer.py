"""Buffer pool with classic and energy-aware replacement.

§4.3 of the paper: "keeping a page in RAM will require energy,
proportional to the time the page is cached.  New caching and
replacement policies will be needed."  The :data:`ReplacementPolicy.ENERGY_AWARE`
policy implements that idea: it evicts the page whose expected re-fetch
energy *per second of residency* is lowest, so cheap-to-refetch pages
yield their DRAM to expensive ones.

The pool is pure bookkeeping — it decides hits, misses, and victims;
the caller performs the simulated I/O for fetches (and knows each
page's fetch energy, since that depends on where it lives).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, Optional

from repro.errors import BufferPoolError
from repro.observe import current_collector

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class ReplacementPolicy(enum.Enum):
    """Victim-selection policies."""

    LRU = "lru"
    CLOCK = "clock"
    ENERGY_AWARE = "energy-aware"


@dataclass
class Evicted:
    """A page pushed out of the pool."""

    key: Hashable
    page: Any


class _Frame:
    __slots__ = ("key", "page", "last_access_seq",
                 "last_access_time", "ref_bit", "access_count",
                 "ewma_interval", "fetch_energy_joules")

    def __init__(self, key: Hashable, page: Any, now: float, seq: int,
                 fetch_energy_joules: float) -> None:
        self.key = key
        self.page = page
        self.last_access_seq = seq
        self.last_access_time = now
        self.ref_bit = True
        self.access_count = 1
        self.ewma_interval: Optional[float] = None
        self.fetch_energy_joules = fetch_energy_joules


class BufferPool:
    """A fixed-capacity page cache."""

    #: EWMA smoothing for observed inter-access intervals
    _ALPHA = 0.5
    #: assumed re-access interval for pages seen only once (pessimistic)
    _DEFAULT_INTERVAL = 60.0

    def __init__(self, sim: "Simulation", capacity_pages: int,
                 policy: ReplacementPolicy = ReplacementPolicy.LRU,
                 page_residency_watts: float = 0.0) -> None:
        if capacity_pages < 1:
            raise BufferPoolError("capacity must be >= 1 page")
        if page_residency_watts < 0:
            raise BufferPoolError("residency power cannot be negative")
        self.sim = sim
        self.capacity_pages = capacity_pages
        self.policy = policy
        self.page_residency_watts = page_residency_watts
        self._frames: dict[Hashable, _Frame] = {}
        self._seq = 0
        self._clock_hand = 0
        self._clock_order: list[Hashable] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- lookups ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frames)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached page or None (a miss).  Records the access."""
        frame = self._frames.get(key)
        telemetry = current_collector()
        if frame is None:
            self.misses += 1
            if telemetry is not None:
                telemetry.count("buffer.miss")
            return None
        self.hits += 1
        if telemetry is not None:
            telemetry.count("buffer.hit")
        self._touch(frame)
        return frame.page

    # -- insertion -----------------------------------------------------------
    def put(self, key: Hashable, page: Any,
            fetch_energy_joules: float = 0.0) -> list[Evicted]:
        """Cache a freshly-fetched page; returns any evicted pages.

        ``fetch_energy_joules`` is what re-reading this page from its home
        device would cost — the energy-aware policy's key input.
        """
        if key in self._frames:
            raise BufferPoolError(f"page {key!r} already cached")
        if fetch_energy_joules < 0:
            raise BufferPoolError("fetch energy cannot be negative")
        evicted = []
        while len(self._frames) >= self.capacity_pages:
            evicted.append(self._evict_one())
        frame = _Frame(key, page, self.sim.now, self._next_seq(),
                       fetch_energy_joules)
        self._frames[key] = frame
        self._clock_order.append(key)
        return evicted

    # -- statistics ------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- internals ------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _touch(self, frame: _Frame) -> None:
        now = self.sim.now
        interval = now - frame.last_access_time
        if interval > 0:
            if frame.ewma_interval is None:
                frame.ewma_interval = interval
            else:
                frame.ewma_interval = (self._ALPHA * interval
                                       + (1 - self._ALPHA) * frame.ewma_interval)
        frame.last_access_time = now
        frame.last_access_seq = self._next_seq()
        frame.ref_bit = True
        frame.access_count += 1

    def _evict_one(self) -> Evicted:
        victim_key = self._choose_victim()
        frame = self._frames.pop(victim_key)
        self._clock_order.remove(victim_key)
        self.evictions += 1
        telemetry = current_collector()
        if telemetry is not None:
            telemetry.count("buffer.eviction")
        return Evicted(victim_key, frame.page)

    def _choose_victim(self) -> Hashable:
        if self.policy is ReplacementPolicy.LRU:
            return min(self._frames.values(),
                       key=lambda f: f.last_access_seq).key
        if self.policy is ReplacementPolicy.CLOCK:
            return self._clock_victim()
        return self._energy_victim()

    def _clock_victim(self) -> Hashable:
        # one sweep clears every reference bit, so the second finds one
        while True:
            if self._clock_hand >= len(self._clock_order):
                self._clock_hand = 0
            key = self._clock_order[self._clock_hand]
            frame = self._frames[key]
            if not frame.ref_bit:
                return key
            frame.ref_bit = False
            self._clock_hand += 1

    def _energy_victim(self) -> Hashable:
        """Evict the page with the lowest energy-savings rate.

        Keeping a page saves its re-fetch energy once per expected
        re-access interval, at the cost of residency power.  The page with
        the smallest net savings rate

            fetch_energy / expected_interval - residency_watts

        is the cheapest to give up.  Ties (e.g. all rates negative or
        equal) fall back to LRU order.
        """
        def rate(frame: _Frame) -> tuple[float, int]:
            interval = frame.ewma_interval or self._DEFAULT_INTERVAL
            saving = (frame.fetch_energy_joules / interval
                      - self.page_residency_watts)
            return (saving, frame.last_access_seq)

        return min(self._frames.values(), key=rate).key
