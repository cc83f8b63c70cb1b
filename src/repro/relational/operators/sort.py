"""Sort operator: in-memory or external merge sort.

External sorting spills sorted runs to a temporary placement and merges
them back — both the spill writes and the merge reads are charged, so
the optimizer's memory-grant knob (§4.1) has a real energy consequence.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from repro.errors import PlanError
from repro.relational.expr import make_layout
from repro.relational.operators.base import (
    CYCLES_PER_MERGE_TUPLE,
    CYCLES_PER_OUTPUT_TUPLE,
    CYCLES_PER_SORT_COMPARE,
    SORT_RUN_OVERHEAD_FACTOR,
    CostCollector,
    Operator,
)

_sort_counter = itertools.count()


class Sort(Operator):
    """Order tuples by key columns, ascending."""

    #: rough per-field in-memory footprint used for spill decisions
    BYTES_PER_FIELD = 16

    def __init__(self, child: Operator, keys: Sequence[str],
                 memory_grant_bytes: Optional[float] = None,
                 spill_placement=None) -> None:
        if not keys:
            raise PlanError("sort needs at least one key")
        missing = set(keys) - set(child.output_columns)
        if missing:
            raise PlanError(f"sort keys {missing} not produced by child")
        super().__init__(child.output_columns)
        self.child = child
        self.keys = list(keys)
        self.memory_grant_bytes = memory_grant_bytes
        self.spill_placement = spill_placement
        self.stream_id = f"sort-spill-{next(_sort_counter)}"
        self.spilled = False

    def children(self) -> list[Operator]:
        return [self.child]

    def _charge(self, collector: CostCollector, n: float) -> bool:
        """Charge sorting ``n`` rows; True when the input spills."""
        data_bytes = n * len(self.output_columns) * self.BYTES_PER_FIELD
        grant = self.memory_grant_bytes
        if (grant is None or data_bytes <= grant
                or self.spill_placement is None):
            collector.charge_cpu(_sort_cycles(n))
            # an in-memory sort holds the whole input resident (§4.1:
            # operator memory grants are power-expensive)
            collector.charge_dram_grant(data_bytes)
            collector.break_pipeline(label="sort")
            # emitting the sorted result starts the next pipeline
            collector.charge_cpu(n * CYCLES_PER_OUTPUT_TUPLE)
            return False
        # Run generation: sort grant-sized chunks, write them out.
        n_runs = max(2, int(-(-data_bytes // grant)))
        collector.charge_cpu(n_runs * _sort_cycles(max(1, n // n_runs)))
        spill_bytes = data_bytes * SORT_RUN_OVERHEAD_FACTOR
        collector.charge_io(self.spill_placement, spill_bytes,
                            self.stream_id, is_write=True)
        collector.break_pipeline(label="sort-runs")
        # Merge phase: read runs back, k-way merge.
        collector.charge_io(self.spill_placement, spill_bytes,
                            self.stream_id)
        merge_passes = max(1.0, math.ceil(math.log(n_runs, 16)))
        collector.charge_cpu(n * CYCLES_PER_MERGE_TUPLE * merge_passes)
        return True

    def execute(self, collector: CostCollector) -> list[tuple]:
        rows = self.child.execute(collector)
        self.spilled = self._charge(collector, len(rows))
        layout = make_layout(self.output_columns)
        positions = [layout[k] for k in self.keys]
        ordered = rows
        # Stable multi-key sort: apply keys right-to-left.
        for position in reversed(positions):
            ordered = sorted(ordered, key=lambda r: r[position])
        return list(ordered)

    def describe(self) -> str:
        return f"Sort({[(key, 'asc') for key in self.keys]})"



def _sort_cycles(n: float) -> float:
    """Comparison cycles to sort ``n`` rows (a count, or an estimate of
    one): ``ceil(log2 n)`` compares a row, at least one."""
    if n < 2:
        return 0.0
    return n * max(1.0, (math.ceil(n) - 1).bit_length()) \
        * CYCLES_PER_SORT_COMPARE
