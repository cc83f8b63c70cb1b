"""Property test: QED's releases are a valid stream of shared
executions.

:meth:`QEDPolicy.releases` turns the arrival columns into one row per
shared execution in a single pass.  Over random arrival sequences and
policies, every arrival lands in exactly one row, no row releases
before its first member arrives or after that member's hold window
runs out, the release column never decreases (the kernels step
autoscaler epochs along it), and each row's combined demand is the
first member's plus the unshared part of every follower's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import QEDPolicy
from repro.service.workload import StreamColumns

#: per tenant: (p95 SLA, batch flag); 0.1 and 2.0 cap the window below
#: most holds
TENANTS = ((0.1, False), (2.0, True), (40.0, False))

rows = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0, 4.0]),  # time step
        st.integers(min_value=0, max_value=len(TENANTS) - 1),
        st.sampled_from([0.05, 0.3, 2.5])),                # query class
    min_size=1, max_size=60)

policies = st.builds(
    QEDPolicy,
    hold_seconds=st.sampled_from([0.0, 0.2, 1.0, 5.0])
    | st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    sla_headroom=st.sampled_from([0.25, 0.5, 1.0]),
    shared_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    max_batch=st.integers(min_value=1, max_value=4))


def arrivals(rows) -> StreamColumns:
    steps, tenants, services = zip(*rows)
    tenant = np.array(tenants, dtype=np.int64)
    sla, batch = (np.array(col) for col in zip(*TENANTS))
    return StreamColumns(
        times=np.cumsum(steps, dtype=np.float64),
        service_seconds=np.array(services, dtype=np.float64),
        tenant_index=tenant, sla_seconds=sla[tenant],
        batch_flags=batch[tenant])


@settings(max_examples=300, deadline=None)
@given(policies, rows)
def test_releases_are_a_stream_of_shared_executions(qed, rows):
    cols = arrivals(rows)
    out = qed.releases(cols)
    times = cols.times.tolist()
    services = cols.service_seconds.tolist()
    slas = cols.sla_seconds.tolist()

    flat = [m for members in out.members for m in members]
    assert sorted(flat) == list(range(len(cols)))
    assert len(out) == len(out.members)
    assert np.all(np.diff(out.times) >= 0)
    for row, members in enumerate(out.members):
        first = members[0]
        assert list(members) == sorted(set(members))
        assert len(members) <= qed.max_batch
        window = min(qed.hold_seconds, slas[first] * qed.sla_headroom)
        release = out.times[row]
        assert times[members[-1]] <= release <= times[first] + window
        combined = services[first]
        for m in members[1:]:
            assert (cols.tenant_index[m], services[m]) \
                == (cols.tenant_index[first], services[first])
            combined += services[m] * (1.0 - qed.shared_fraction)
        assert out.service_seconds[row] == combined
        assert out.tenant_index[row] == cols.tenant_index[first]
        assert out.sla_seconds[row] == cols.sla_seconds[first]
        assert out.batch_flags[row] == cols.batch_flags[first]


@settings(max_examples=100, deadline=None)
@given(rows)
def test_zero_hold_returns_the_arrivals(rows):
    cols = arrivals(rows)
    out = QEDPolicy(hold_seconds=0.0).releases(cols)
    assert out.members == [(k,) for k in range(len(cols))]
    for name in ("times", "service_seconds", "tenant_index",
                 "sla_seconds", "batch_flags"):
        assert np.array_equal(getattr(out, name), getattr(cols, name)), name
