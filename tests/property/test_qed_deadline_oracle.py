"""Property test: QED's stored next deadline is the minimum over its
open hold queues.

:meth:`QEDPolicy.next_deadline` returns state kept as queues open
(``offer``) and close (a full queue inside ``offer``, ``due``,
``flush``) instead of re-deriving ``min()`` per call.  The oracle is
that ``min()`` over ``_queues``, checked after every protocol call on
random offer / due / flush sequences — both engines trust the stored
value to schedule releases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import QEDPolicy

INF = float("inf")


def oracle(qed: QEDPolicy) -> float:
    return min((held.deadline for held in qed._queues.values()),
               default=INF)


offers = st.tuples(
    st.just("offer"),
    st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0, 4.0]),   # time step
    st.integers(min_value=0, max_value=2),              # tenant
    st.sampled_from([0.05, 0.3, 2.5]),                  # service class
    # None: no SLA; 0.1 and 2.0 cap the window below most holds
    st.sampled_from([None, 0.1, 2.0, 40.0]))
releases = st.tuples(
    st.sampled_from(["due", "due_next", "flush"]),
    st.sampled_from([0.0, 0.2, 1.0, 10.0]))

policies = st.builds(
    QEDPolicy,
    hold_seconds=st.sampled_from([0.0, 0.2, 1.0, 5.0])
    | st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    sla_headroom=st.sampled_from([0.25, 0.5, 1.0]),
    max_batch=st.integers(min_value=1, max_value=4))


@settings(max_examples=400, deadline=None)
@given(policies, st.lists(offers | releases, min_size=1, max_size=40))
def test_next_deadline_equals_min_over_open_queues(qed, ops):
    assert qed.next_deadline() == oracle(qed) == INF
    now = 0.0
    k = 0
    for op in ops:
        now += op[1]
        if op[0] == "offer":
            _, _, tenant, service, sla = op
            qed.offer(k, now, service, tenant, sla)
            k += 1
        elif op[0] == "due":
            qed.due(now)
        elif op[0] == "due_next":
            # the engines' call: release exactly at the stored deadline
            deadline = qed.next_deadline()
            if deadline < INF:
                now = max(now, deadline)
                assert qed.due(deadline)
        else:
            qed.flush()
        assert qed.next_deadline() == oracle(qed)
