"""``RunResult.to_json`` splices a cache hit's stored observation text
instead of encoding the observation again; the result must be exactly
``canonical_json(run.to_dict())`` on every path a point can take —
computed in the parent or a pool worker, read back warm, or a mix."""

import json

import pytest

from repro import observe
from repro.runner import ExperimentSpec, ResultCache, Runner, point_key
from repro.runner.spec import canonical_json

#: (experiment, knobs): every point runs in well under a second, and
#: each has at least two points so ``workers=2`` uses the pool
SPECS = {
    "svc_smoke": {"queries": 5000},
    "chaos_smoke": {"intensity": [0.5, 1.0], "queries": 5000},
    "svc_pvc_qed": {"queries": 2000},
    # a short day keeps the observed sweep to ~3 MB of JSON
    "svc_etl": {"load": 1.0, "mode": ["eager", "consolidated"],
                "day_seconds": 600.0, "peak_seconds": 300.0,
                "freshness_sla_seconds": 560.0},
    "fig2": {"scale_factor": 0.001},
}

#: Runner keyword arguments -> the observer kinds they switch on
OBSERVERS = {
    "unobserved": ({}, ()),
    "trace": ({"trace": True}, ("telemetry",)),
    "record": ({"record": True}, ("flightrec",)),
    "both": ({"trace": True, "record": True}, ("telemetry", "flightrec")),
}


def _exact(run):
    text = run.to_json()
    assert text == canonical_json(run.to_dict())
    return text


@pytest.mark.parametrize("observers", OBSERVERS)
@pytest.mark.parametrize("experiment", SPECS)
def test_run_json_is_canonical_cold_warm_and_mixed(
        tmp_path, experiment, observers):
    spec = ExperimentSpec(experiment, knobs=SPECS[experiment])
    flags, kinds = OBSERVERS[observers]
    texts = set()
    for workers in (1, 2):
        cache = ResultCache(tmp_path / f"w{workers}")
        runner = Runner(workers=workers, cache=cache, **flags)
        cold = runner.run(spec)
        assert cold.cache_hits == 0
        texts.add(_exact(cold))

        warm = runner.run(spec)
        assert warm.cache_hits == len(warm.points)
        for point in warm.points:
            assert sorted(point.observed_json) == sorted(point.observed)
        texts.add(_exact(warm))

        point = spec.points()[0]
        cache._path(point_key(experiment, point, spec.point_seed(point),
                              observe=kinds)).unlink()
        mixed = runner.run(spec)
        assert [p.cache_hit for p in mixed.points][:2] == [False, True]
        assert mixed.points[0].observed_json == {}
        texts.add(_exact(mixed))
    assert len(texts) == 1


def test_int_clock_knob_splices_the_decoded_form(tmp_path):
    """An int ``epoch_seconds`` (what the CLI parses ``30`` to) puts the
    autoscaler's event times on an int clock; the stored recording must
    still be its own decoded-then-re-encoded form, or a hit would splice
    ``30`` where a fresh run prints ``30.0``."""
    spec = ExperimentSpec("svc_smoke", knobs={
        "policy": ["round_robin", "power_aware"], "queries": 2000,
        "epoch_seconds": 30})
    cache = ResultCache(tmp_path / "c")
    runner = Runner(workers=2, cache=cache, trace=True, record=True)
    cold = runner.run(spec)
    assert any(e.kind == "scale" for p in cold.points
               for e in p.recording.events)
    warm = runner.run(spec)
    assert warm.cache_hits == len(warm.points)
    for point in warm.points:
        for kind, text in point.observed_json.items():
            assert text == canonical_json(
                observe.decode(kind, json.loads(text)).to_dict())
    assert _exact(warm) == _exact(cold)


def test_recorded_points_splice_a_stored_text(tmp_path):
    """The splice really happens: a hit's observation text is the slice
    of its entry the worker wrote, not a fresh encoding."""
    spec = ExperimentSpec("svc_smoke", knobs={
        "policy": ["round_robin", "power_aware"], "queries": 2000})
    cache = ResultCache(tmp_path / "c")
    Runner(workers=2, cache=cache, record=True).run(spec)
    warm = Runner(workers=2, cache=cache, record=True).run(spec)
    for point, knobs in zip(warm.points, spec.points()):
        key = point_key("svc_smoke", knobs, spec.seed,
                        observe=("flightrec",))
        entry = cache._path(key).read_text(encoding="utf-8")
        text = point.observed_json["flightrec"]
        assert entry.startswith('{"experiment":"svc_smoke","flightrec":'
                                + text + ',"host_seconds":')
        assert text == canonical_json(point.recording.to_dict())


class TestRead:
    """``ResultCache.read``: one reader under ``get``."""

    PAYLOAD = {"b": [1, 2.5, None], "a": {"y": "é\n", "x": float("nan")},
               "c": True}

    def test_texts_are_the_canonical_field_slices(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k" * 64, self.PAYLOAD)
        payload, texts = cache.read("k" * 64, ("a", "c", "absent"))
        assert canonical_json(payload) == canonical_json(self.PAYLOAD)
        assert texts == {"a": canonical_json(self.PAYLOAD["a"]),
                         "c": "true"}
        assert cache.read("k" * 64)[1] == {}
        assert canonical_json(cache.get("k" * 64)) == \
            canonical_json(payload)
        cache.put("e" * 64, {})
        assert cache.read("e" * 64, ("a",)) == ({}, {})

    @pytest.mark.parametrize("text, texts", [
        ('{"a":1,"b":[2]}', {"a": "1", "b": "[2]"}),
        ('{"b":[2],"a":1}', {"a": "1", "b": "[2]"}),
    ])
    def test_any_valid_json_object_reads(self, tmp_path, text, texts):
        """An object with no whitespace between its top-level tokens
        reads in any key order, and carries its fields' texts."""
        cache = ResultCache(tmp_path / "c")
        path = cache._path("k" * 64)
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        assert cache.read("k" * 64, ("a", "b")) == ({"a": 1, "b": [2]},
                                                   texts)

    @pytest.mark.parametrize("text", [
        '{"a":1,"b":[2]}x', '{"a":1,"b":[2]', '{"a":1,}', '{"a"1}',
        '{"a":', '{', '{"a":1}{"b":2}', '["a"]',
        # valid JSON, but not the canonical text ``put`` writes
        '{"a": 1, "b": [2]}', '{"a":1 ,"b":[2]}', '{"a":1,"b":[2]}\n',
        ' {"a":1,"b":[2]}'])
    def test_malformed_text_is_a_miss(self, tmp_path, text):
        cache = ResultCache(tmp_path / "c")
        path = cache._path("k" * 64)
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        assert cache.read("k" * 64, ("a",)) is None
        assert cache.get("k" * 64) is None
