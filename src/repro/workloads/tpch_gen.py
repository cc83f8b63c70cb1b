"""Deterministic TPC-H-style data generator.

Row counts follow the official per-scale-factor ratios; value
distributions preserve the properties the experiments need (skew,
low-cardinality status/priority/mode columns for dictionary compression,
monotone keys for delta compression, a seven-year date range for range
predicates).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import TYPE_CHECKING, Optional

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
RETURN_FLAGS = ["R", "A", "N"]
LINE_STATUSES = ["O", "F"]
PART_TYPES = ["PROMO BRUSHED", "STANDARD POLISHED", "MEDIUM PLATED",
              "ECONOMY ANODIZED", "LARGE BURNISHED", "SMALL BRUSHED"]

DATE_LO = date(1992, 1, 1)
DATE_HI = date(1998, 12, 1)


@dataclass
class TpchDatabase:
    """The generated tables plus generation metadata."""

    scale_factor: float
    tables: dict[str, Table] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise WorkloadError(f"no TPC-H table named {name!r}") from None


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
                  seed: int = 2009) -> TpchDatabase:
    """Create and load all seven tables.

    ``codecs`` maps table name -> per-column codec dict (column layout
    only).  Generation is deterministic in ``seed``.
    """
    if scale_factor <= 0:
        raise WorkloadError("scale factor must be positive")
    rng = random.Random(seed)
    counts = _row_counts(scale_factor)
    schemas = tpch_schema.tpch_schemas()
    db = TpchDatabase(scale_factor=scale_factor)
    for name, schema in schemas.items():
        table_codecs = (codecs or {}).get(name)
        db.tables[name] = storage.create_table(
            schema, layout=layout, placement=placement,
            codecs=table_codecs if layout == "column" else None)

    _load_region(db["region"])
    _load_nation(db["nation"])
    _load_supplier(db["supplier"], counts["supplier"], rng)
    _load_customer(db["customer"], counts["customer"], rng)
    _load_part(db["part"], counts["part"], rng)
    _load_orders(db["orders"], counts["orders"], counts["customer"], rng)
    _load_lineitem(db["lineitem"], counts["lineitem"], counts["orders"],
                   counts["part"], counts["supplier"], rng)
    return db


def _random_date(rng: random.Random) -> date:
    span = (DATE_HI - DATE_LO).days
    return DATE_LO + timedelta(days=rng.randrange(span))


def _load_region(table: Table) -> None:
    table.load([(i, name) for i, name in enumerate(REGIONS)])


def _load_nation(table: Table) -> None:
    rows = []
    for r in range(len(REGIONS)):
        for i in range(NATIONS_PER_REGION):
            key = r * NATIONS_PER_REGION + i
            rows.append((key, f"NATION_{key:02d}", r))
    table.load(rows)


def _load_supplier(table: Table, n: int, rng: random.Random) -> None:
    n_nations = len(REGIONS) * NATIONS_PER_REGION
    table.load([
        (i, f"Supplier#{i:09d}", rng.randrange(n_nations),
         round(rng.uniform(-999.99, 9999.99), 2))
        for i in range(n)])


def _load_customer(table: Table, n: int, rng: random.Random) -> None:
    n_nations = len(REGIONS) * NATIONS_PER_REGION
    table.load([
        (i, f"Customer#{i:09d}", rng.randrange(n_nations),
         rng.choice(SEGMENTS), round(rng.uniform(-999.99, 9999.99), 2))
        for i in range(n)])


def _load_part(table: Table, n: int, rng: random.Random) -> None:
    table.load([
        (i, f"part {i % 999} name", f"Brand#{rng.randrange(1, 6)}"
         f"{rng.randrange(1, 6)}", rng.choice(PART_TYPES),
         rng.randrange(1, 51), round(900 + (i % 200) + i / 10.0, 2))
        for i in range(n)])


def _load_orders(table: Table, n: int, n_customers: int,
                 rng: random.Random) -> None:
    table.load([
        (i, rng.randrange(n_customers),
         rng.choices(ORDER_STATUSES, weights=[49, 49, 2])[0],
         round(rng.uniform(850.0, 555_000.0), 2),
         _random_date(rng),
         rng.choice(PRIORITIES),
         f"Clerk#{rng.randrange(1000):09d}")
        for i in range(n)])


def _load_lineitem(table: Table, n: int, n_orders: int, n_parts: int,
                   n_suppliers: int, rng: random.Random) -> None:
    rows = []
    order = 0
    while len(rows) < n:
        # 1-7 lines per order, like the real generator
        for _line in range(rng.randrange(1, 8)):
            if len(rows) >= n:
                break
            quantity = float(rng.randrange(1, 51))
            price = round(quantity * rng.uniform(900.0, 1100.0), 2)
            ship = _random_date(rng)
            flag = rng.choices(RETURN_FLAGS, weights=[24, 25, 51])[0]
            status = "F" if ship < date(1995, 6, 17) else "O"
            rows.append((
                order % n_orders,
                rng.randrange(n_parts),
                rng.randrange(n_suppliers),
                quantity,
                price,
                round(rng.choice([0.0, 0.01, 0.02, 0.04, 0.05,
                                  0.06, 0.08, 0.1]), 2),
                round(rng.uniform(0.0, 0.08), 2),
                flag,
                status,
                ship,
                rng.choice(SHIP_MODES),
            ))
        order += 1
    table.load(rows)
