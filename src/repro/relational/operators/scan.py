"""Table scan with projection and predicate pushdown.

The scan is where I/O is charged: a row store reads its whole heap
regardless of projection, a column store reads only the projected
columns' (compressed) segments — exactly the §5.1 trade-off.  CPU is
charged per plain byte processed, plus decompression cycles on the
compressed bytes, plus predicate evaluation per tuple.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.errors import PlanError
from repro.relational.expr import Expr, make_layout
from repro.relational.operators.base import (
    CostCollector,
    CostParameters,
    Operator,
)
from repro.storage.manager import Table

_scan_counter = itertools.count()


class TableScan(Operator):
    """Scan a stored table, optionally projecting and filtering."""

    def __init__(self, table: Table,
                 columns: Optional[Sequence[str]] = None,
                 predicate: Optional[Expr] = None) -> None:
        names = list(columns) if columns else table.schema.column_names()
        for name in names:
            if name not in table.schema:
                raise PlanError(
                    f"table {table.name!r} has no column {name!r}")
        if predicate is not None:
            missing = predicate.columns() - set(names)
            if missing:
                raise PlanError(
                    f"predicate references unprojected columns {missing}; "
                    "include them in the scan's column list")
        super().__init__(names)
        self.table = table
        self.predicate = predicate
        #: piggyback on a concurrent scan of the same table (§5.2 work
        #: sharing): tuples still flow and CPU is charged, but the I/O
        #: belongs to the leader of the shared pass
        self.shared_pass = False
        self.stream_id = f"scan-{table.name}-{next(_scan_counter)}"

    def children(self) -> list[Operator]:
        return []

    def _charge(self, collector: CostCollector) -> None:
        params = collector.params
        # I/O: physical (possibly compressed) bytes of the projection.
        scan_bytes = self.table.scan_bytes(self.output_columns)
        if not self.shared_pass:
            collector.charge_io(self.table.placement, scan_bytes,
                                self.stream_id)
        # CPU: processing the plain bytes and decoding the stored ones...
        cpu = _byte_cycles(
            params, self.table.plain_bytes(self.output_columns),
            scan_bytes,
            self.table.decode_cycles_per_scan_byte(self.output_columns))
        # ...plus per-tuple overhead and predicate evaluation.
        row_count = self.table.row_count
        cpu += row_count * params.cycles_per_tuple_overhead
        if self.predicate is not None:
            cpu += row_count * self.predicate.cycles()
        collector.charge_cpu(cpu)

    def execute(self, collector: CostCollector) -> list[tuple]:
        self._charge(collector)
        rows = self.table.iterate(self.output_columns)
        if self.predicate is None:
            return list(rows)
        layout = make_layout(self.output_columns)
        predicate = self.predicate
        return [row for row in rows
                if predicate.evaluate(row, layout) is True]

    def describe(self) -> str:
        layout = self.table.layout
        pred = (f" where {self.predicate!r}"
                if self.predicate is not None else "")
        return (f"TableScan({self.table.name}, {layout}, "
                f"cols={self.output_columns}{pred})")


def _byte_cycles(params: CostParameters, plain_bytes: float,
                 stored_bytes: float, decode_cycles_per_byte: float) -> float:
    """A scan's byte-proportional CPU: processing the plain data plus
    decompressing the stored (possibly compressed) bytes."""
    return (plain_bytes * params.cycles_per_scan_byte
            + stored_bytes * decode_cycles_per_byte)
