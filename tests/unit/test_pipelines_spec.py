"""Unit tests: the pipeline DAG API validates, hashes, and round-trips.

The spec layer is pure declaration — everything here runs without a
fleet.  The hash-stability tests pin the contract the catalog and the
observatory depend on: ``pipeline_hash`` is a function of the
pipeline's *content*, never of dict key order or construction path.
"""

import json

import pytest

from repro.workloads.pipelines import (EtlScheduler, PipelineError,
                                       PipelineSpec, Stage,
                                       default_pipeline)


def mini(**kwargs):
    defaults = dict(
        name="mini",
        stages=(
            Stage("pull", "extract", tasks=4, seconds_per_task=2.0),
            Stage("scrub", "clean", tasks=4, seconds_per_task=1.0,
                  inputs=("pull",)),
            Stage("publish", "load", tasks=1, seconds_per_task=1.0,
                  inputs=("scrub",), dataset="gold"),
        ),
        freshness_sla_seconds=600.0,
    )
    defaults.update(kwargs)
    return PipelineSpec(**defaults)


class TestStageValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(PipelineError, match="unknown kind"):
            Stage("x", "teleport", tasks=1, seconds_per_task=1.0)

    def test_nonpositive_tasks_rejected(self):
        with pytest.raises(PipelineError):
            Stage("x", "extract", tasks=0, seconds_per_task=1.0)

    def test_nonpositive_seconds_rejected(self):
        with pytest.raises(PipelineError):
            Stage("x", "extract", tasks=1, seconds_per_task=0.0)

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(PipelineError, match="duplicate input"):
            Stage("x", "clean", tasks=1, seconds_per_task=1.0,
                  inputs=("a", "a"))

    def test_dataset_only_on_load(self):
        with pytest.raises(PipelineError, match="only load stages"):
            Stage("x", "extract", tasks=1, seconds_per_task=1.0,
                  dataset="gold")

    def test_load_defaults_dataset_to_stage_name(self):
        s = Stage("publish", "load", tasks=1, seconds_per_task=1.0)
        assert s.published_dataset == "publish"


class TestDagValidation:
    def test_self_cycle_rejected(self):
        with pytest.raises(PipelineError, match="cycle"):
            PipelineSpec("bad", (
                Stage("a", "extract", 1, 1.0, inputs=("a",)),), 10.0)

    def test_two_stage_cycle_rejected(self):
        with pytest.raises(PipelineError, match="cycle"):
            PipelineSpec("bad", (
                Stage("a", "clean", 1, 1.0, inputs=("b",)),
                Stage("b", "clean", 1, 1.0, inputs=("a",)),), 10.0)

    def test_dangling_input_rejected(self):
        with pytest.raises(PipelineError, match="undeclared input"):
            PipelineSpec("bad", (
                Stage("a", "clean", 1, 1.0, inputs=("ghost",)),), 10.0)

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate stage"):
            PipelineSpec("bad", (
                Stage("a", "extract", 1, 1.0),
                Stage("a", "extract", 1, 1.0),), 10.0)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError, match="at least one stage"):
            PipelineSpec("bad", (), 10.0)

    def test_nonpositive_freshness_rejected(self):
        with pytest.raises(PipelineError, match="freshness"):
            mini(freshness_sla_seconds=0.0)

    def test_topological_respects_dependencies(self):
        order = [s.name for s in default_pipeline().topological()]
        assert order.index("extract_orders") < order.index("clean_orders")
        assert order.index("clean_orders") < order.index("join_enrich")
        assert order.index("extract_customers") < order.index("join_enrich")
        assert order[-1] == "load_warehouse"


class TestHashStability:
    def test_hash_survives_dict_key_reordering(self):
        p = mini()
        payload = p.to_dict()
        # reverse key order at every level: the hash must not care
        reordered = json.loads(json.dumps(payload))
        reordered = {k: reordered[k] for k in sorted(reordered, reverse=True)}
        reordered["stages"] = [
            {k: s[k] for k in sorted(s, reverse=True)}
            for s in reordered["stages"]]
        q = PipelineSpec.from_dict(reordered)
        assert q.pipeline_hash == p.pipeline_hash

    def test_hash_roundtrips_through_json(self):
        p = default_pipeline()
        q = PipelineSpec.from_dict(json.loads(json.dumps(p.to_dict())))
        assert q == p
        assert q.pipeline_hash == p.pipeline_hash

    def test_hash_sees_content_changes(self):
        a = mini()
        b = mini(freshness_sla_seconds=601.0)
        c = mini(name="mini2")
        assert a.pipeline_hash != b.pipeline_hash
        assert a.pipeline_hash != c.pipeline_hash

    def test_hash_sees_stage_order(self):
        a = PipelineSpec("p", (
            Stage("a", "extract", 1, 1.0),
            Stage("b", "extract", 1, 1.0),), 10.0)
        b = PipelineSpec("p", (
            Stage("b", "extract", 1, 1.0),
            Stage("a", "extract", 1, 1.0),), 10.0)
        assert a.pipeline_hash != b.pipeline_hash


class TestSchedulerValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(PipelineError, match="unknown scheduling mode"):
            EtlScheduler(mode="procrastinate")

    def test_negative_knobs_rejected(self):
        with pytest.raises(PipelineError):
            EtlScheduler(ready_seconds=-1.0)
        with pytest.raises(PipelineError):
            EtlScheduler(offpeak_start_seconds=-1.0)
        with pytest.raises(PipelineError):
            EtlScheduler(slack_fraction=-0.1)
        with pytest.raises(PipelineError):
            EtlScheduler(consolidation_node_equivalents=0.0)

    def test_impossible_freshness_raises(self):
        from repro.service.spec import FleetSpec
        p = mini(freshness_sla_seconds=1.0)
        with pytest.raises(PipelineError, match="cannot meet"):
            EtlScheduler().plan(p, FleetSpec.homogeneous(4))
