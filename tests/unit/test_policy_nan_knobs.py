"""NaN policy knobs are rejected at construction, by name.

The spec layer refuses non-finite knobs before a policy is built; the
Python API (policy constructors, :func:`make_policy`,
``simulate_service(**policy_kwargs)``) must refuse them too, since a
NaN compares false against every bound and would otherwise run as some
other policy — or, for QED's hold window, release every held query at
a NaN deadline and report a NaN p95.  ``None`` stays the spelling of
"no limit".
"""

import pytest

from repro.service import (DISPATCH_POLICIES, ServiceError, build_stream,
                           make_policy, simulate_service)

NAN = float("nan")

#: (policy, knobs, the knob the error must name)
CASES = [
    *[(name, {"admission_limit_seconds": NAN}, "admission_limit_seconds")
      for name in ("round_robin", "least_loaded", "power_aware",
                   "cost_aware", "pvc", "qed")],
    ("power_aware", {"pack_backlog_seconds": NAN}, "pack_backlog_seconds"),
    ("cost_aware", {"sla_slack_fraction": NAN}, "sla_slack_fraction"),
    ("pvc", {"frequency_steps": (1.0, NAN, 0.5)}, "frequency_steps"),
    ("qed", {"hold_seconds": NAN}, "hold_seconds"),
    ("qed", {"max_batch": NAN}, "max_batch"),
    ("qed", {"inner": "cost_aware", "sla_slack_fraction": NAN},
     "sla_slack_fraction"),
]


@pytest.mark.parametrize(
    "policy, knobs, knob", CASES,
    ids=[f"{policy}-{'-'.join(knobs)}" for policy, knobs, _ in CASES])
def test_nan_knob_is_a_one_line_error_naming_it(policy, knobs, knob):
    for build in (lambda: DISPATCH_POLICIES[policy](**knobs),
                  lambda: make_policy(policy, **knobs),
                  lambda: simulate_service(build_stream(50, seed=0),
                                           policy=policy, **knobs)):
        with pytest.raises(ServiceError, match=knob) as err:
            build()
        assert "\n" not in str(err.value)
