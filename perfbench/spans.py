"""In-memory spans around calls into each layer.

A :class:`Tracer` records one span per layer-boundary call: name,
start, end and the span that was open when it started.  Spans stay in
memory for the whole repetition and are written out by the caller when
the workload ends.  The job runs on one thread, so spans nest strictly
and a span's *self time* is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional


class Tracer:
    """The spans of one repetition of one workload."""

    def __init__(self, workload: str, repetition: int) -> None:
        self.workload = workload
        self.repetition = repetition
        #: one ``[name, start, end, parent_index_or_None]`` row per span
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        row = [name, perf_counter(), None,
               self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[2] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span of this name around every call."""
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    # -- reading -----------------------------------------------------

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def _select(self, name: str, under: Optional[str]) -> list[list]:
        return [row for i, row in enumerate(self.spans)
                if row[0] == name
                and (under is None or self._under(i, under))]

    def total(self, name: str, under: Optional[str] = None) -> float:
        """Seconds inside spans called ``name`` (optionally only those
        with an ancestor span called ``under``)."""
        return sum(row[2] - row[1] for row in self._select(name, under))

    def count(self, name: str, under: Optional[str] = None) -> int:
        return len(self._select(name, under))

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        out = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            if row[3] is not None:
                out[row[3]] -= row[2] - row[1]
        return out

    def to_dict(self) -> dict[str, Any]:
        selfs = self.self_times()
        return {
            "workload": self.workload,
            "repetition": self.repetition,
            "spans": [
                {"id": i, "name": row[0], "start": row[1], "end": row[2],
                 "parent": row[3], "self_s": selfs[i],
                 "workload": self.workload,
                 "repetition": self.repetition}
                for i, row in enumerate(self.spans)],
        }
