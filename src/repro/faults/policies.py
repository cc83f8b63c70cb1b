"""Graceful-degradation policies: retry with backoff, per-tenant shedding.

When a dispatch attempt fails — the routed node's RPC times out, or
the node crashes with the query in flight — the fleet does not shrug:
a :class:`RetryPolicy` re-dispatches the query onto a survivor after
an exponential backoff, and a :class:`ShedPolicy` sheds arrivals that
could no longer meet their tenant's SLA anyway, protecting the
latency of the queries that still can.  Both are small frozen value
objects so they serialize into chaos-report provenance and hash into
spec identities unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.schedule import FaultError

#: each further failed attempt doubles the pause
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry for failed dispatch attempts.

    ``max_attempts`` bounds the *total* dispatch attempts per query
    (first try included).  ``backoff_seconds(n)`` is the pause before
    attempt ``n + 1`` after ``n`` failed attempts;
    ``timeout_detect_seconds`` is how long a client waits before
    declaring a dispatch attempt timed out (it is paid in latency on
    every timeout hit).

    >>> policy = RetryPolicy(max_attempts=4, base_backoff_seconds=0.1)
    >>> [policy.backoff_seconds(n) for n in (1, 2, 3)]
    [0.1, 0.2, 0.4]
    >>> policy.exhausted(4)
    True
    >>> RetryPolicy().exhausted(1)
    False
    """

    max_attempts: int = 4
    base_backoff_seconds: float = 0.05
    timeout_detect_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError("need at least one dispatch attempt")
        if self.base_backoff_seconds < 0 or self.timeout_detect_seconds < 0:
            raise FaultError("backoff and timeout detection cannot be "
                             "negative")

    def backoff_seconds(self, failed_attempts: int) -> float:
        """Pause after ``failed_attempts`` consecutive failures."""
        if failed_attempts < 1:
            raise FaultError("backoff is only defined after a failure")
        return (self.base_backoff_seconds
                * BACKOFF_MULTIPLIER ** (failed_attempts - 1))

    def exhausted(self, attempts: int) -> bool:
        """Whether ``attempts`` dispatch attempts used up the budget."""
        return attempts >= self.max_attempts


@dataclass(frozen=True)
class ShedPolicy:
    """Per-tenant admission shedding keyed to SLA headroom.

    An arrival is shed when the backlog it would join, plus its own
    service demand, already exceeds ``slack_fraction`` of its tenant's
    p95 SLA — the query was going to miss anyway, so the fleet drops
    it at the door instead of letting it push every query behind it
    over the line.  Tighter-SLA tenants therefore shed *earlier* under
    the same backlog, which is exactly the per-tenant part: a 2 s
    dashboard SLA stops accepting at a backlog a 15 s analytics SLA
    happily rides out.

    >>> shed = ShedPolicy(slack_fraction=0.5)
    >>> shed.threshold_seconds(2.0)
    1.0
    >>> shed.sheds(backlog_seconds=1.2, service_seconds=0.05,
    ...            sla_p95_seconds=2.0)
    True
    >>> shed.sheds(backlog_seconds=1.2, service_seconds=0.05,
    ...            sla_p95_seconds=15.0)
    False
    """

    slack_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.slack_fraction <= 0:
            raise FaultError("shed slack fraction must be positive")

    def threshold_seconds(self, sla_p95_seconds: float) -> float:
        """Backlog beyond which a tenant's arrival is shed."""
        return self.slack_fraction * sla_p95_seconds

    def sheds(self, backlog_seconds: float, service_seconds: float,
              sla_p95_seconds: float) -> bool:
        """Whether to shed an arrival facing ``backlog_seconds``."""
        return (backlog_seconds + service_seconds
                > self.threshold_seconds(sla_p95_seconds))
