"""NaN / inf in the serving model's knobs is rejected at construction,
by name.

A NaN compares false against every bound, so ``NodePowerModel`` took
one in every field (``speed_factor=nan`` died much later as "policy
admitted no queries") and ``Autoscaler`` took ``epoch_seconds=nan``
(it never stepped) and ``min_nodes=nan``.  Each is now a one-line
:class:`ServiceError` naming the field.
"""

import pytest

from repro.service import ServiceError
from repro.service.autoscale import Autoscaler
from repro.service.node import NodePowerModel

NAN, INF = float("nan"), float("inf")

MODEL_FIELDS = ("idle_watts", "peak_watts", "boot_seconds", "boot_joules",
                "drain_seconds", "drain_joules", "speed_factor")

#: (knobs, the knob the error must name)
MODEL_CASES = [
    *[({name: bad}, name) for name in MODEL_FIELDS
      for bad in (NAN, INF, -INF)],
    ({"speed_factor": 0.0}, "speed_factor"),
    ({"idle_watts": -1.0}, "idle_watts"),
    ({"peak_watts": 100.0}, "peak_watts"),
    ({"drain_joules": -1.0}, "drain_joules"),
]

SCALER_CASES = [
    *[({name: bad}, name)
      for name in ("epoch_seconds", "target_utilization", "min_nodes")
      for bad in (NAN, INF, -INF)],
    ({"epoch_seconds": 0.0}, "epoch_seconds"),
    ({"min_nodes": 0}, "min_nodes"),
]


def _ids(cases):
    return ["-".join(f"{k}={v}" for k, v in knobs.items())
            for knobs, _ in cases]


def _refused(build, knob):
    with pytest.raises(ServiceError, match=knob) as err:
        build()
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("knobs, knob", MODEL_CASES, ids=_ids(MODEL_CASES))
def test_bad_model_knob_is_a_one_line_error_naming_it(knobs, knob):
    _refused(lambda: NodePowerModel(**knobs), knob)
    _refused(lambda: NodePowerModel.from_dict(
        {**NodePowerModel().to_dict(), **knobs}), knob)


@pytest.mark.parametrize("knobs, knob", SCALER_CASES,
                         ids=_ids(SCALER_CASES))
def test_bad_autoscaler_knob_is_a_one_line_error_naming_it(knobs, knob):
    _refused(lambda: Autoscaler(NodePowerModel(), **knobs), knob)


def test_from_server_speed_factor_nan_is_refused():
    _refused(lambda: NodePowerModel.from_server(speed_factor=NAN),
             "speed_factor")


def test_edge_values_still_build():
    NodePowerModel(idle_watts=0.0, peak_watts=0.0, boot_seconds=0.0,
                   boot_joules=0.0, drain_seconds=0.0, drain_joules=0.0)
    Autoscaler(NodePowerModel(), target_utilization=1.0, min_nodes=1)
