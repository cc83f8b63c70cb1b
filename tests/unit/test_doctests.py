"""Tier-1 doctest driver: the documented core modules' examples must
execute.  This is the one list of them — CI runs nothing beside it."""

import doctest

import pytest

from repro import records
from repro.core import metrics, profiler
from repro.faults import engine, policies, schedule
from repro.flightrec import recorder
from repro.relational import schema as row_schema
from repro.service import engine as event_core
from repro.service import pvc, qed
from repro.sim import engine as des_engine
from repro.sim import resources
from repro.workloads.pipelines import catalog as etl_catalog
from repro.workloads.pipelines import schedule as etl_schedule
from repro.workloads.pipelines import spec as etl_spec


@pytest.mark.parametrize("module",
                         [metrics, profiler, schedule, policies, engine,
                          pvc, qed, event_core, recorder, etl_spec,
                          etl_schedule, etl_catalog, records, des_engine,
                          resources, row_schema],
                         ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0
