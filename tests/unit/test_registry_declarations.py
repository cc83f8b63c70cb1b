"""An experiment states each knob default once.

The point function's signature is that one statement; a registration
adds only its sweep axes and its own scale, and a keyword-only
parameter is a late knob that stays out of the resolved knobs until
someone sets it.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.errors import ReproError
from repro.runner import (ExperimentDef, ExperimentSpec, ResultCache,
                          Runner, SpecError, UnknownKnobError,
                          get_experiment, list_experiments,
                          register_experiment)
from repro.runner.cli import main
from repro.runner.spec import canonical_json
from repro.workloads.throughput import ThroughputReport


def decl_point(x, factor=2.0, seed=2009, *, late=1.0):
    return ThroughputReport(streams=1, queries_completed=1,
                            makespan_seconds=float(x),
                            energy_joules=float(x) * factor * late)


def open_point(x, **anything):
    return decl_point(x)


BUILTIN = [defn for defn in list_experiments()
           if defn.point_fn.__module__.startswith("repro.")]


class TestDeclaredOnce:
    @pytest.mark.parametrize("defn", BUILTIN, ids=lambda d: d.name)
    def test_no_registration_restates_a_signature_default(self, defn):
        """Each declared default is a sweep axis, a value of the
        experiment's own (type-strictly: 30 is not 30.0), or a late
        knob the experiment was pinned with."""
        params = inspect.signature(defn.point_fn).parameters
        for name, value in defn.defaults.items():
            param = params[name]
            restated = (type(value) is type(param.default)
                        and value == param.default)
            assert (isinstance(value, list)
                    or param.kind is param.KEYWORD_ONLY
                    or not restated), (
                f"{defn.name} restates {name}={value!r}, the default of "
                f"{defn.point_fn.__name__}()")

    def test_the_signature_supplies_what_the_registration_omits(self):
        defn = get_experiment("svc_smoke")
        assert set(defn.defaults) == {"policy", "queries"}
        resolved = defn.resolved_defaults
        assert resolved["queries"] == 20_000
        assert resolved["pack_backlog_seconds"] == 0.2
        assert resolved["admission_limit_seconds"] is None
        assert "seed" not in resolved
        assert not {"load", "engine", "sla_slack_fraction"} & set(resolved)

    def test_a_declared_late_knob_is_resolved(self):
        resolved = get_experiment("svc_mega").resolved_defaults
        assert resolved["load"] == 30.0 and resolved["engine"] == "auto"
        assert "sla_slack_fraction" not in resolved

    def test_a_late_knob_is_still_a_valid_knob(self):
        defn = get_experiment("svc_policies")
        assert {"load", "engine", "seed"} <= defn.knob_names()
        defn.validate_knobs({"load": 2.0, "engine": "loop"})
        with pytest.raises(UnknownKnobError, match="lode"):
            defn.validate_knobs({"lode": 2.0})

    def test_positional_and_keyword_construction(self):
        by_position = ExperimentDef("decl_pos", "t", decl_point,
                                    {"x": [1, 2]}, "commodity")
        by_keyword = ExperimentDef(name="decl_pos", title="t",
                                   point_fn=decl_point,
                                   defaults={"x": [1, 2]},
                                   profile="commodity")
        assert by_position == by_keyword
        assert by_keyword.resolved_defaults == {"x": [1, 2], "factor": 2.0}
        assert by_keyword.call_point({"x": 3, "late": 2.0}, seed=1) \
            .energy_joules == 12.0


class TestMisnamedDefault:
    def test_fails_at_registration_naming_all_three(self):
        """On the parent this registered, passed ``validate_knobs``
        and surfaced per point as a wrapped ``TypeError``."""
        bad = ExperimentDef(name="decl_typo", title="t",
                            point_fn=decl_point,
                            defaults={"x": 1, "facter": 3.0})
        with pytest.raises(ReproError) as err:
            register_experiment(bad)
        message = str(err.value)
        assert "decl_typo" in message and "decl_point" in message
        assert "'facter'" in message and "'x'" not in message
        with pytest.raises(ReproError, match="unknown experiment"):
            get_experiment("decl_typo")

    def test_a_kwargs_point_function_takes_any_default(self):
        defn = register_experiment(ExperimentDef(
            name="decl_open", title="t", point_fn=open_point,
            defaults={"x": 1, "whatever": 2}))
        assert defn.resolved_defaults == {"x": 1, "whatever": 2}
        defn.validate_knobs({"anything": 3})

    def test_a_declared_seed_is_allowed(self):
        defn = register_experiment(ExperimentDef(
            name="decl_seeded", title="t", point_fn=decl_point,
            defaults={"x": 1, "seed": 7}))
        assert defn.resolved_defaults["seed"] == 7


class TestNonFiniteKnob:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       [1.0, float("-inf")]])
    def test_a_non_finite_knob_is_a_spec_error(self, value):
        """On the parent a NaN knob ran, was stored, and never hit its
        own entry (``nan != nan`` after the JSON round trip), and the
        spec's canonical JSON held a bare ``NaN``."""
        with pytest.raises(SpecError, match="'load'"):
            ExperimentSpec("svc_smoke", knobs={"load": value})

    def test_none_stays_the_spelling_of_no_limit(self, tmp_path):
        register_experiment(ExperimentDef(
            name="decl_toy", title="t", point_fn=decl_point,
            defaults={"x": 1}))
        spec = ExperimentSpec("decl_toy", knobs={"factor": 1.5})
        json.loads(canonical_json(spec.canonical()),
                   parse_constant=pytest.fail)
        cache = ResultCache(tmp_path)
        assert Runner(cache=cache).run(spec).cache_hits == 0
        assert Runner(cache=cache).run(spec).cache_hits == 1
        ExperimentSpec("svc_smoke",
                       knobs={"admission_limit_seconds": None})

    def test_the_cli_stops_before_any_point(self, capsys):
        assert main(["run", "svc_smoke", "--load", "NaN",
                     "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: knob 'load'")
        assert captured.err.count("\n") == 1 and not captured.out

