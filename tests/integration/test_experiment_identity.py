"""Every registered experiment's identity, pinned.

A spec hash, a ``.repro-cache`` key, a ledger row and perfbench's
``run.*`` digests all hash an experiment's *resolved knob dict*, so the
key set and every value in it must survive any change to how defaults
are declared.  ``golden_records/experiment_identity.json`` was written
from PR 23's code (every default spelled out in ``runner/registry.py``)
by running this file as a script against that tree, before the registry
started deriving defaults from point-function signatures; the pinned
``runner_list.txt`` is that tree's ``python -m repro.runner list``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import (ExperimentSpec, get_experiment, list_experiments,
                          point_key)

GOLDEN = Path(__file__).parent / "golden_records"
IDENTITY = GOLDEN / "experiment_identity.json"
LISTING = GOLDEN / "runner_list.txt"

#: the observer sets ``run``, ``run --trace`` and ``run --record`` key under
OBSERVED = {"plain": (), "trace": ("telemetry",), "record": ("flightrec",)}


def builtin_experiments():
    """The package's own registrations (test modules register toys)."""
    return [defn for defn in list_experiments()
            if defn.point_fn.__module__.startswith("repro.")]


def identity(name: str, version: str) -> dict:
    spec = ExperimentSpec(name, profile=get_experiment(name).profile)
    points = spec.points()
    return {
        "spec_hash": spec.spec_hash(),
        "knobs": spec.resolved_knobs(),
        "point_keys": {
            label: [point_key(name, point, spec.point_seed(point),
                              version=version, observe=kinds)
                    for point in points]
            for label, kinds in OBSERVED.items()},
    }


def runner_list_output() -> str:
    """``python -m repro.runner list`` in a clean process."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": os.environ.get("PYTHONPATH", str(src))}
    return subprocess.run(
        [sys.executable, "-m", "repro.runner", "list"], env=env,
        check=True, capture_output=True, text=True).stdout


def _golden() -> dict:
    return json.loads(IDENTITY.read_text())


def test_the_golden_covers_every_builtin_experiment():
    names = [defn.name for defn in builtin_experiments()]
    assert names == sorted(_golden()["experiments"])
    assert len(names) == 16


@pytest.mark.parametrize(
    "name", [defn.name for defn in builtin_experiments()])
def test_identity_is_the_parents(name):
    # the hashes make this type-strict: 30 == 30.0 here, not in the JSON
    golden = _golden()
    assert identity(name, golden["version"]) == golden["experiments"][name]


def test_runner_list_is_byte_identical():
    assert runner_list_output() == LISTING.read_text()


def test_a_late_knob_enters_the_identity_only_when_set():
    """``load`` sits behind the ``*`` of ``service_point``: svc_policies
    was pinned before it existed, so it is outside the resolved knobs
    until a spec sets it."""
    plain = ExperimentSpec("svc_policies")
    loaded = ExperimentSpec("svc_policies", knobs={"load": 2.0})
    assert "load" not in plain.resolved_knobs()
    assert loaded.resolved_knobs()["load"] == 2.0
    assert all(point["load"] == 2.0 for point in loaded.points())
    assert loaded.spec_hash() != plain.spec_hash()


if __name__ == "__main__":  # the goldens of the tree on the path
    import repro
    GOLDEN.mkdir(exist_ok=True)
    IDENTITY.write_text(json.dumps(
        {"version": repro.__version__,
         "experiments": {defn.name: identity(defn.name, repro.__version__)
                         for defn in builtin_experiments()}},
        indent=1, sort_keys=True) + "\n")
    LISTING.write_text(runner_list_output())
