"""Time-series tracing for simulations.

Devices emit step-function samples (power changes at state transitions);
:class:`TimeSeries` stores them and integrates them over any interval.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

import numpy as np

from repro.errors import SimulationError

#: integrals over fewer step segments than this run the scalar loop:
#: below it numpy's fixed per-call cost (~6 us) exceeds the work, and a
#: short query between two ``record()`` calls never pays for an array
#: rebuild.  The measured crossover is ~110 segments.
_VECTORIZE_FROM_SEGMENTS = 128


class TimeSeries:
    """A right-continuous step function sampled at change points.

    ``record(t, v)`` means "the value is ``v`` from time ``t`` until the
    next recorded point".  Integration treats the series as a step
    function, which matches how device power evolves between state
    transitions.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []
        # float64 copies of the two lists for integrate(); dropped by
        # every record()
        self._arrays: Optional[tuple[np.ndarray, np.ndarray]] = None

    def record(self, t: float, value: float) -> None:
        """Append a sample.  Time must be non-decreasing.

        Re-recording at the same timestamp overwrites the prior value,
        which is what a device wants when it changes state twice in the
        same instant (only the final state holds for any positive span).
        """
        if self._times and t < self._times[-1]:
            raise SimulationError(
                f"series {self.name!r}: time went backwards "
                f"({t} after {self._times[-1]})")
        self._arrays = None
        if self._times and t == self._times[-1]:
            self._values[-1] = value
            return
        self._times.append(t)
        self._values.append(value)

    def extend(self, times, values) -> None:
        """Append whole arrays of samples: the series ends up exactly
        as after ``record(t, v)`` for each pair in turn (timestamps
        must be non-decreasing; within a run of equal timestamps only
        the last value survives), except that a backwards timestamp
        raises before anything is appended."""
        ts = np.asarray(times, dtype=np.float64)
        vs = np.asarray(values, dtype=np.float64)
        if ts.ndim != 1 or ts.shape != vs.shape:
            raise SimulationError(
                f"series {self.name!r}: extend() takes two equally long "
                f"1-d arrays, got shapes {ts.shape} and {vs.shape}")
        if not len(ts):
            return
        before = np.concatenate(
            (self._times[-1:] or ts[:1], ts[:-1]))
        back = np.nonzero(ts < before)[0]
        if len(back):
            raise SimulationError(
                f"series {self.name!r}: time went backwards "
                f"({float(ts[back[0]])} after {float(before[back[0]])})")
        self._arrays = None
        moved = ts[1:] != ts[:-1]
        # a run of equal timestamps keeps its first timestamp and its
        # last value, as repeated overwriting would
        new_times = ts[np.concatenate(([True], moved))].tolist()
        new_values = vs[np.concatenate((moved, [True]))].tolist()
        if self._times and new_times[0] == self._times[-1]:
            self._values[-1] = new_values[0]
            del new_times[0], new_values[0]
        self._times.extend(new_times)
        self._values.extend(new_values)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> list[float]:
        return list(self._times)

    @property
    def values(self) -> list[float]:
        return list(self._values)

    @property
    def first_time(self) -> float:
        """Timestamp of the first sample (the start of the domain)."""
        if not self._times:
            raise SimulationError(f"series {self.name!r} is empty")
        return self._times[0]

    def value_at(self, t: float) -> float:
        """The step-function value at time ``t``."""
        if not self._times or t < self._times[0]:
            raise SimulationError(
                f"series {self.name!r} has no value at t={t}")
        idx = bisect.bisect_right(self._times, t) - 1
        return self._values[idx]

    def integrate(self, t0: float, t1: float) -> float:
        """Integral of the step function over ``[t0, t1]``.

        For a power series in Watts this is energy in Joules.
        """
        if t1 < t0:
            raise SimulationError(f"bad interval [{t0}, {t1}]")
        if t1 == t0 or not self._times:
            return 0.0
        if t0 < self._times[0]:
            raise SimulationError(
                f"series {self.name!r} starts at {self._times[0]}, "
                f"cannot integrate from {t0}")
        # segments lo..hi: values[i] holds from max(times[i], t0) to
        # min(times[i + 1], t1)
        lo = bisect.bisect_right(self._times, t0) - 1
        hi = bisect.bisect_left(self._times, t1, lo + 1) - 1
        if hi - lo + 1 < _VECTORIZE_FROM_SEGMENTS:
            total = 0.0
            cursor = t0
            for idx in range(lo, hi):
                seg_end = self._times[idx + 1]
                total += self._values[idx] * (seg_end - cursor)
                cursor = seg_end
            return total + self._values[hi] * (t1 - cursor)
        if self._arrays is None:
            self._arrays = (np.array(self._times, dtype=np.float64),
                            np.array(self._values, dtype=np.float64))
        times, values = self._arrays
        edges = np.empty(hi - lo + 2)
        edges[0] = t0
        edges[1:-1] = times[lo + 1:hi + 1]
        edges[-1] = t1
        # cumsum is a strict left-to-right running sum, so its last
        # element carries the scalar loop's bits exactly (np.sum pairs
        # terms up and differs in the last ulp); the leading 0.0 is the
        # loop's starting total, which only matters for a -0.0 result
        return 0.0 + float(np.cumsum(values[lo:hi + 1] * np.diff(edges))[-1])
