"""The TPC-H builders' draw primitives equal the calls they replace.

``workloads/tpch_gen.py`` draws through ``rng._randbelow`` and
``rng.random`` instead of ``randrange``, ``choice``, ``choices`` and
``uniform``.  That is only sound while the running Python's ``random``
reduces those calls to exactly these primitives.  Each test below runs
the public call on one stream and the primitive on a twin stream, for
every bound and weight list the builders use, and checks every value
and the next ``random()`` draw.  A Python whose ``random`` changes
fails here by name, before the rows goldens move.
"""

import random
from bisect import bisect
from datetime import timedelta
from itertools import accumulate

import pytest

from repro.workloads import tpch_gen
from repro.workloads.tpch_gen import (
    DATE_HI,
    DATE_LO,
    DISCOUNTS,
    ORDER_STATUS_WEIGHTS,
    ORDER_STATUSES,
    PART_TYPES,
    PRIORITIES,
    RETURN_FLAG_WEIGHTS,
    RETURN_FLAGS,
    SEGMENTS,
    SHIP_MODES,
)

DRAWS = 3_000
SEEDS = (0, 2009)

# the table sizes the builders draw keys from, at the scale factors the
# figures, benchmarks and tests load
_COUNTED = ("nation", "customer", "part", "orders", "supplier")
TABLE_SIZES = sorted({
    tpch_gen._row_counts(sf)[name]
    for sf in (0.0001, 0.001, 0.002, 0.003, 0.006, 0.01, 0.1)
    for name in _COUNTED})
# randrange(a, b) bounds and randrange(n) sizes written in the builders
RANGES = [(1, 6), (1, 51), (1, 8), (0, 1000)] + [(0, n) for n in TABLE_SIZES]


def twin(seed, public, primitive):
    """Draw ``DRAWS`` values each way from equal streams; compare all."""
    left, right = random.Random(seed), random.Random(seed)
    expected = [public(left) for _ in range(DRAWS)]
    got = [primitive(right) for _ in range(DRAWS)]
    assert got == expected
    assert right.random() == left.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lo,hi", RANGES, ids=[f"{a}-{b}" for a, b in RANGES])
def test_below_equals_randrange(lo, hi, seed):
    if lo == 0:
        twin(seed, lambda r: r.randrange(hi), lambda r: r._randbelow(hi))
    twin(seed, lambda r: r.randrange(lo, hi),
         lambda r: lo + r._randbelow(hi - lo))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("seq", [SEGMENTS, PART_TYPES, PRIORITIES,
                                 SHIP_MODES, DISCOUNTS],
                         ids=["segments", "part_types", "priorities",
                              "ship_modes", "discounts"])
def test_below_index_equals_choice(seq, seed):
    twin(seed, lambda r: r.choice(seq),
         lambda r: seq[r._randbelow(len(seq))])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("population,weights",
                         [(ORDER_STATUSES, ORDER_STATUS_WEIGHTS),
                          (RETURN_FLAGS, RETURN_FLAG_WEIGHTS)],
                         ids=["order_status", "return_flag"])
def test_cumulative_bisect_equals_choices(population, weights, seed):
    cum = list(accumulate(weights))
    total = cum[-1] + 0.0
    hi = len(population) - 1
    twin(seed, lambda r: r.choices(population, weights=weights)[0],
         lambda r: population[bisect(cum, r.random() * total, 0, hi)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("a,b", [(-999.99, 9999.99), (850.0, 555_000.0),
                                 (900.0, 1100.0), (0.0, 0.08)])
def test_inline_form_equals_uniform(a, b, seed):
    twin(seed, lambda r: r.uniform(a, b), lambda r: a + (b - a) * r.random())


@pytest.mark.parametrize("seed", SEEDS)
def test_day_table_equals_offset_date(seed):
    days = tpch_gen._DAYS
    assert len(days) == (DATE_HI - DATE_LO).days
    twin(seed,
         lambda r: DATE_LO + timedelta(days=r.randrange(len(days))),
         lambda r: days[r._randbelow(len(days))])
