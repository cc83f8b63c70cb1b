"""Deterministic TPC-H-style data generator.

Row counts follow the official per-scale-factor ratios; value
distributions preserve the properties the experiments need (skew,
low-cardinality status/priority/mode columns for dictionary compression,
monotone keys for delta compression, a seven-year date range for range
predicates).
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from datetime import date, timedelta
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import WorkloadError
from repro.storage.compression import Codec
from repro.storage.manager import StorageManager, Table
from repro.workloads import tpch_schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.raid import RaidArray

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS_PER_REGION = 5
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
ORDER_STATUSES = ["F", "O", "P"]
ORDER_STATUS_WEIGHTS = [49, 49, 2]
RETURN_FLAGS = ["R", "A", "N"]
RETURN_FLAG_WEIGHTS = [24, 25, 51]
DISCOUNTS = [0.0, 0.01, 0.02, 0.04, 0.05, 0.06, 0.08, 0.1]
PART_TYPES = ["PROMO BRUSHED", "STANDARD POLISHED", "MEDIUM PLATED",
              "ECONOMY ANODIZED", "LARGE BURNISHED", "SMALL BRUSHED"]

DATE_LO = date(1992, 1, 1)
DATE_HI = date(1998, 12, 1)
# day -> date over [DATE_LO, DATE_HI): a row's date is one uniform draw
_DAYS = [DATE_LO + timedelta(days=d) for d in range((DATE_HI - DATE_LO).days)]


@dataclass
class TpchDatabase:
    """The loaded tables plus generation metadata."""

    scale_factor: float
    tables: dict[str, Table] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise WorkloadError(
                f"no TPC-H table named {name!r} was loaded; this database "
                f"holds: {', '.join(self.tables)}") from None


def _row_counts(scale_factor: float) -> dict[str, int]:
    return {
        "region": len(REGIONS),
        "nation": len(REGIONS) * NATIONS_PER_REGION,
        "supplier": max(4, int(10_000 * scale_factor)),
        "customer": max(10, int(150_000 * scale_factor)),
        "part": max(10, int(200_000 * scale_factor)),
        "orders": max(20, int(1_500_000 * scale_factor)),
        "lineitem": max(80, int(6_000_000 * scale_factor)),
    }


def generate_tpch(storage: StorageManager, placement: "RaidArray",
                  scale_factor: float = 0.001,
                  layout: str = "row",
                  codecs: Optional[dict[str, dict[str, Codec | str]]] = None,
                  seed: int = 2009,
                  tables: Optional[Iterable[str]] = None) -> TpchDatabase:
    """Create and load the tables the caller's plans read.

    ``tables`` is that read set; ``None`` means all seven.  Every value
    comes off one ``random.Random`` stream, seeded with ``seed`` and
    consumed in the fixed table order, so a table's bytes do not depend
    on the read set: the tables ahead of the last one read are drawn
    (and dropped unless read), nothing after it is drawn, and a table
    outside the read set does not exist — ``db[name]`` on it raises.

    ``codecs`` maps table name -> per-column codec dict (column layout
    only, tables of the read set only).
    """
    if scale_factor <= 0:
        raise WorkloadError("scale factor must be positive")
    # looked up per call so a test can substitute one builder
    builders = (
        ("region", _region_rows),
        ("nation", _nation_rows),
        ("supplier", _supplier_rows),
        ("customer", _customer_rows),
        ("part", _part_rows),
        ("orders", _orders_rows),
        ("lineitem", _lineitem_rows),
    )
    order = [name for name, _ in builders]
    read = _read_set(tables, order)
    codecs = codecs or {}
    if codecs and layout != "column":
        raise WorkloadError(
            f"codecs need layout='column', not {layout!r}")
    unread = sorted(set(codecs) - read)
    if unread:
        raise WorkloadError(
            f"codecs given for {unread}, not among the tables loaded: "
            f"{', '.join(n for n in order if n in read)}")
    schemas = tpch_schema.tpch_schemas()
    db = TpchDatabase(scale_factor=scale_factor)
    for name in order:
        if name in read:
            db.tables[name] = storage.create_table(
                schemas[name], layout=layout, placement=placement,
                codecs=codecs.get(name))

    rng = random.Random(seed)
    counts = _row_counts(scale_factor)
    last = max(order.index(name) for name in read)
    for name, build_rows in builders[:last + 1]:
        # no name for the rows: one table's list is gone before the
        # next is built, read or not
        if name in read:
            db.tables[name].load(build_rows(counts, rng))
        else:
            build_rows(counts, rng)
    return db


def _read_set(tables: Optional[Iterable[str]],
              order: list[str]) -> frozenset[str]:
    """The validated set of table names to load."""
    if tables is None:
        return frozenset(order)
    try:
        if isinstance(tables, str):
            raise TypeError
        read = frozenset(tables)
    except TypeError:
        raise WorkloadError(
            f"tables must be a collection of table names, "
            f"got {tables!r}") from None
    unknown = sorted(read.difference(order), key=repr)
    if unknown:
        raise WorkloadError(
            f"unknown TPC-H tables {unknown}; "
            f"choose from: {', '.join(order)}")
    if not read:
        raise WorkloadError(
            f"tables must name at least one of: {', '.join(order)}")
    return read


# Row builders: ``(row counts, rng) -> rows``.  Each consumes the shared
# stream exactly as far as its table needs, whoever keeps the rows.  They
# draw through ``rng._randbelow`` and ``rng.random``, the primitives
# ``randrange``, ``choice``, ``choices`` and ``uniform`` reduce to, in the
# same order and arithmetic (``tests/unit/test_tpch_draws.py`` pins the
# equivalence on the running Python).

def _region_rows(counts: dict[str, int], rng: random.Random) -> list[tuple]:
    return [(i, name) for i, name in enumerate(REGIONS)]


def _nation_rows(counts: dict[str, int], rng: random.Random) -> list[tuple]:
    rows = []
    for r in range(len(REGIONS)):
        for i in range(NATIONS_PER_REGION):
            key = r * NATIONS_PER_REGION + i
            rows.append((key, f"NATION_{key:02d}", r))
    return rows


def _supplier_rows(counts: dict[str, int],
                   rng: random.Random) -> list[tuple]:
    below, draw = rng._randbelow, rng.random
    n_nations = counts["nation"]
    return [
        (i, f"Supplier#{i:09d}", below(n_nations),
         round(-999.99 + (9999.99 - -999.99) * draw(), 2))
        for i in range(counts["supplier"])]


def _customer_rows(counts: dict[str, int],
                   rng: random.Random) -> list[tuple]:
    below, draw = rng._randbelow, rng.random
    n_nations = counts["nation"]
    return [
        (i, f"Customer#{i:09d}", below(n_nations),
         SEGMENTS[below(len(SEGMENTS))],
         round(-999.99 + (9999.99 - -999.99) * draw(), 2))
        for i in range(counts["customer"])]


def _part_rows(counts: dict[str, int], rng: random.Random) -> list[tuple]:
    below = rng._randbelow
    return [
        (i, f"part {i % 999} name", f"Brand#{1 + below(5)}{1 + below(5)}",
         PART_TYPES[below(len(PART_TYPES))], 1 + below(50),
         round(900 + (i % 200) + i / 10.0, 2))
        for i in range(counts["part"])]


def _orders_rows(counts: dict[str, int], rng: random.Random) -> list[tuple]:
    below, draw = rng._randbelow, rng.random
    n_customers = counts["customer"]
    status_cum = list(accumulate(ORDER_STATUS_WEIGHTS))
    status_total = status_cum[-1] + 0.0
    status_hi = len(ORDER_STATUSES) - 1
    return [
        (i, below(n_customers),
         ORDER_STATUSES[bisect(status_cum, draw() * status_total,
                               0, status_hi)],
         round(850.0 + (555_000.0 - 850.0) * draw(), 2),
         _DAYS[below(len(_DAYS))],
         PRIORITIES[below(len(PRIORITIES))],
         f"Clerk#{below(1000):09d}")
        for i in range(counts["orders"])]


def _lineitem_rows(counts: dict[str, int],
                   rng: random.Random) -> list[tuple]:
    below, draw = rng._randbelow, rng.random
    n = counts["lineitem"]
    n_orders = counts["orders"]
    n_parts = counts["part"]
    n_suppliers = counts["supplier"]
    flag_cum = list(accumulate(RETURN_FLAG_WEIGHTS))
    flag_total = flag_cum[-1] + 0.0
    flag_hi = len(RETURN_FLAGS) - 1
    cutoff = date(1995, 6, 17)
    rows = []
    append = rows.append
    order = 0
    while len(rows) < n:
        # 1-7 lines per order, like the real generator
        for _line in range(1 + below(7)):
            if len(rows) >= n:
                break
            quantity = float(1 + below(50))
            price = round(quantity * (900.0 + (1100.0 - 900.0) * draw()), 2)
            ship = _DAYS[below(len(_DAYS))]
            flag = RETURN_FLAGS[bisect(flag_cum, draw() * flag_total,
                                       0, flag_hi)]
            status = "F" if ship < cutoff else "O"
            append((
                order % n_orders,
                below(n_parts),
                below(n_suppliers),
                quantity,
                price,
                DISCOUNTS[below(len(DISCOUNTS))],
                round(0.0 + (0.08 - 0.0) * draw(), 2),
                flag,
                status,
                ship,
                SHIP_MODES[below(len(SHIP_MODES))],
            ))
        order += 1
    return rows
