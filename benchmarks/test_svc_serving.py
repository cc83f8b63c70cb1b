"""Fleet serving (§4.2, [TWM+08]): dispatch-policy sweep on a 16-node
cluster under the multi-tenant open-loop default stream.

The consolidation-in-space story this bench must reproduce in shape:
  * round-robin and least-loaded keep the whole fleet powered, so
    their Joules/query are nearly identical;
  * power-aware packing concentrates load and lets the autoscaler
    power the cold tail down, cutting Joules/query by >= 15 % at an
    equal-or-better fleet p95;
  * every tenant's p95 SLA holds under every policy.

Runs at ``svc_smoke`` scale (3 x 20k queries) so the CI suite stays
fast; the acceptance-scale sweep (3 x 350k) is ``svc_policies`` via
``python -m repro.runner run svc_policies``.
"""

from conftest import emit, run_once, run_spec

from repro.runner import ExperimentSpec


def test_svc_policy_sweep(benchmark):
    spec = ExperimentSpec("svc_smoke", profile="commodity")
    run = run_once(benchmark, lambda: run_spec(spec))
    by_policy = {r.policy: r for r in run.reports}
    rr, ll, packing = (by_policy[name] for name in
                       ("round_robin", "least_loaded", "power_aware"))
    savings = 1.0 - packing.joules_per_query / rr.joules_per_query
    emit(benchmark,
         "Serving: dispatch policies on a 16-node fleet "
         "(packing + autoscaling vs. all-on baselines)",
         ["policy", "completed", "J_per_query", "p95_s", "avg_nodes_on",
          "SLAs"],
         [(r.policy, r.queries_completed, round(r.joules_per_query, 3),
           round(r.p95_latency_seconds, 3),
           round(r.average_active_nodes, 2),
           "met" if r.slas_met else "MISSED") for r in run.reports],
         savings_vs_round_robin_pct=round(savings * 100, 1),
         power_aware_p95_s=round(packing.p95_latency_seconds, 3),
         round_robin_p95_s=round(rr.p95_latency_seconds, 3),
         spec_hash=spec.spec_hash()[:12],
         cache_hits=run.cache_hits)

    # the all-on baselines pay for the whole fleet either way
    assert abs(1.0 - ll.joules_per_query / rr.joules_per_query) < 0.02
    # packing + autoscaling: the acceptance ordering
    assert savings >= 0.15
    assert packing.p95_latency_seconds <= rr.p95_latency_seconds
    # consolidation is visible in the duty ledger, not just the Joules
    assert packing.average_active_nodes < rr.average_active_nodes
    # and no policy buys energy with a missed SLA
    for report in run.reports:
        assert report.slas_met
