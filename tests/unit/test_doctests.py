"""Tier-1 doctest driver: the documented core modules' examples must
execute (CI also runs ``pytest --doctest-modules`` on them, but this
keeps the plain ``pytest`` invocation honest)."""

import doctest

import pytest

from repro import records
from repro.core import metrics, profiler
from repro.faults import engine, policies, schedule
from repro.service import pvc, qed
from repro.workloads.pipelines import catalog as etl_catalog
from repro.workloads.pipelines import schedule as etl_schedule
from repro.workloads.pipelines import spec as etl_spec


@pytest.mark.parametrize("module",
                         [metrics, profiler, schedule, policies, engine,
                          pvc, qed, etl_spec, etl_schedule, etl_catalog,
                          records],
                         ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0
