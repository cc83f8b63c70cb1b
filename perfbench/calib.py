"""The fixed calibration kernel that ``wall_rel`` divides by.

Raw seconds on a shared box drift by 10-20 % between back-to-back
processes; a kernel of fixed work, run immediately before and after
every repetition, drifts with them, so the ratio job / kernel is far
steadier than either.  The kernel mixes what the simulator mixes: a
pure-Python heap/dict/float loop (the DES and reference-loop style)
and a numpy sort + cumsum (the event-core style), allocating a few MB
as it goes so that memory pressure shows in it too.  It is short and run
several times on each side of a repetition, the median taken, so that
one preempted run does not halve a ratio.  It must never change: every
recorded ``wall_rel`` is in units of it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter

import numpy as np

_LOOP_STEPS = 50_000
_ARRAY_SIZE = 130_000

#: kernel runs on each side of a repetition
RUNS_PER_SIDE = 3
#: what one kernel run takes on the box the benchmark was built on; a
#: time multiplied by NOMINAL_SECONDS / (kernel seconds measured beside
#: it) is in seconds of that reference speed
NOMINAL_SECONDS = 0.05


def kernel_seconds() -> float:
    """Run the kernel once; returns its wall seconds (about 0.05)."""
    started = perf_counter()
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    x = 0.5
    for i in range(_LOOP_STEPS):
        x = (x * 1.0000001 + 0.137) % 1.0
        heappush(heap, (x, i))
        table[i] = x
        if len(heap) > 4096:
            x += heappop(heap)[0]
    values = np.random.default_rng(0).random(_ARRAY_SIZE)
    checksum = float(np.cumsum(np.sort(values))[-1]) + x + len(table)
    if checksum != checksum:  # consume the result inside the timed region
        raise AssertionError("calibration kernel produced NaN")
    return perf_counter() - started


def calibrate() -> list[float]:
    """One side's kernel runs."""
    return [kernel_seconds() for _ in range(RUNS_PER_SIDE)]
