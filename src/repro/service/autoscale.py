"""Fleet autoscaling with spin-up break-even accounting (§2.4, §4.2).

The autoscaler is the temporal half of consolidation: the dispatcher
packs load in space, the autoscaler turns the resulting cold tail off —
but only when the power cycle pays for itself.  Every scale-down is
gated by the candidate node's break-even time (boot + drain Joules
repaid at the avoided idle draw), the same arithmetic as
:meth:`repro.consolidation.migration.MigrationOutcome.breakeven_seconds`
— a node is only worth switching off if demand has stayed low for at
least that long.

On a heterogeneous :class:`~repro.service.spec.FleetSpec` fleet the
scaler is class-aware: demand is tracked in speed-1 node-equivalents
(capacity), scale-ups boot the class with the lowest energy per unit
of work at target utilization first, scale-downs drain the most
expensive class first, and both the cooldown hold and the emergency
crash-boot gate use each candidate's *own* break-even time — a wimpy
node with a small boot lump is worth cycling in outages a beefy node
should ride out.  On a single-class fleet every rule degenerates to
the classic count-based behavior, bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.observe import current_recorder
from repro.service.node import FleetNode, NodePowerModel
from repro.service.report import ServiceError


class Autoscaler:
    """Epoch-based reactive scaler over a fixed node order.

    Every ``epoch_seconds`` it smooths the observed demand (service
    seconds offered per second, EWMA) into a desired fleet *capacity*
    at ``target_utilization``, then:

    * scales **up** immediately — latency is on the line — booting
      powered-off nodes cheapest-energy-per-work first (index order
      within a class, which on a single-class fleet is plain index
      order);
    * scales **down** only after demand has stayed below the current
      capacity for both ``cooldown_epochs`` and the candidate's
      break-even time, powering off drained nodes costliest class
      first, from the tail of the index order (the dispatcher packs
      from the head, so the tail is cold).

    ``model`` is the fleet's reference :class:`NodePowerModel`; every
    decision reads each node's own model.
    """

    def __init__(self, model: NodePowerModel,
                 epoch_seconds: float = 30.0,
                 target_utilization: float = 0.55,
                 min_nodes: int = 2,
                 ewma_alpha: float = 0.4,
                 cooldown_epochs: int = 2) -> None:
        # written `not x >= bound` so NaN fails too (a NaN epoch never
        # steps); an infinite epoch, floor or cooldown is no setting
        if not (epoch_seconds > 0 and math.isfinite(epoch_seconds)):
            raise ServiceError(
                "epoch must be finite and positive, got "
                f"epoch_seconds={epoch_seconds}")
        if not 0.0 < target_utilization <= 1.0:
            raise ServiceError(
                "target utilization must be in (0, 1], got "
                f"target_utilization={target_utilization}")
        if not (min_nodes >= 1 and math.isfinite(min_nodes)):
            raise ServiceError(
                "need at least one node powered on, got "
                f"min_nodes={min_nodes}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ServiceError(
                f"EWMA alpha must be in (0, 1], got ewma_alpha={ewma_alpha}")
        if not (cooldown_epochs >= 0 and math.isfinite(cooldown_epochs)):
            raise ServiceError(
                "cooldown must be finite and >= 0 epochs, got "
                f"cooldown_epochs={cooldown_epochs}")
        self.model = model
        self.epoch_seconds = epoch_seconds
        self.target_utilization = target_utilization
        self.min_nodes = min_nodes
        self.ewma_alpha = ewma_alpha
        self.cooldown_epochs = cooldown_epochs
        self._epoch_demand_seconds = 0.0
        self._smoothed_rate: float | None = None
        self._below_since: float | None = None
        #: (time, powered-on count) decision log for reports/tests
        self.decisions: list[tuple[float, int]] = []
        #: replacement boots performed at crash instants (not epochs)
        self.emergency_boots = 0

    def observe(self, service_seconds: float) -> None:
        """Account one arrival's service demand into the current epoch."""
        self._epoch_demand_seconds += service_seconds

    def desired_capacity(self) -> float:
        """Capacity (speed-1 node-equivalents) that serves the
        smoothed demand at target utilization (unclamped)."""
        return (self._smoothed_rate or 0.0) / self.target_utilization

    @staticmethod
    def _work_cost(model: NodePowerModel, target: float) -> float:
        """Energy per unit of speed-1 work at ``target`` utilization —
        the class-ranking key for boot/drain preference."""
        return model.power(target) / (target * model.speed_factor)

    def step(self, now: float, nodes: Sequence[FleetNode],
             on_ids: list[int]) -> None:
        """Close the epoch ending at ``now`` and adjust the fleet.

        ``on_ids`` is the fleet's live powered-on index list (ascending)
        and is mutated in place.
        """
        observed = self._epoch_demand_seconds / self.epoch_seconds
        self._epoch_demand_seconds = 0.0
        if self._smoothed_rate is None:
            self._smoothed_rate = observed
        else:
            self._smoothed_rate += self.ewma_alpha * (observed
                                                     - self._smoothed_rate)
        total_capacity = sum(n.model.speed_factor for n in nodes)
        want = min(total_capacity, self.desired_capacity())
        on_capacity = sum(nodes[i].model.speed_factor for i in on_ids)

        rec = current_recorder()
        log = (None if rec is None else
               {"booted": [], "drained": [], "rejected": []})
        if on_capacity < want or len(on_ids) < self.min_nodes:
            self._scale_up(now, nodes, on_ids, on_capacity, want, log)
            self._below_since = None
        elif self._can_shrink(nodes, on_ids, on_capacity, want):
            if self._below_since is None:
                self._below_since = now
            self._scale_down(now, nodes, on_ids, on_capacity, want, log)
        else:
            self._below_since = None
        self.decisions.append((now, len(on_ids)))
        if rec is not None:
            for i in log["booted"]:
                rec.events.append((now, "boot", i, None, None,
                                   {"reason": "scale_up"}))
            for i in log["drained"]:
                rec.events.append((now, "drain", i, None, None,
                                   {"reason": "scale_down"}))
            rec.events.append(
                (now, "scale", None, None, None,
                 {"on": len(on_ids), "want_capacity": want,
                  "on_capacity": on_capacity, **log}))

    def _scale_up(self, now: float, nodes: Sequence[FleetNode],
                  on_ids: list[int], on_capacity: float,
                  want: float, log=None) -> None:
        target = self.target_utilization
        off = sorted(
            (i for i in range(len(nodes)) if not nodes[i].on),
            key=lambda i: (self._work_cost(nodes[i].model, target), i))
        claimed_capacity = on_capacity
        claimed = 0
        booted: list[int] = []
        for i in off:
            if claimed_capacity >= want \
                    and len(on_ids) + claimed >= self.min_nodes:
                break
            # the claim sticks even when the node cannot boot yet — a
            # draining node (busy_until ahead of now) waits a turn
            claimed_capacity += nodes[i].model.speed_factor
            claimed += 1
            if nodes[i].busy_until <= now:
                nodes[i].power_on(now)
                booted.append(i)
            elif log is not None:
                log["rejected"].append([i, "draining"])
        on_ids.extend(booted)
        on_ids.sort()
        if log is not None:
            log["booted"].extend(booted)

    def _can_shrink(self, nodes: Sequence[FleetNode], on_ids: list[int],
                    on_capacity: float, want: float) -> bool:
        """Whether some powered-on node could be removed while keeping
        capacity at ``want`` and the count at ``min_nodes``."""
        if len(on_ids) - 1 < self.min_nodes:
            return False
        return any(on_capacity - nodes[i].model.speed_factor >= want
                   for i in on_ids)

    def emergency(self, now: float, nodes: Sequence[FleetNode],
                  on_ids: list[int],
                  downtime_seconds: float) -> list[int]:
        """React to a crash *now* instead of waiting for the epoch.

        Boots spare (powered-off, repaired, drained) nodes until the
        smoothed demand is covered again — but only nodes for which the
        outage is worth a power cycle: a crash shorter than a
        candidate's *own* break-even time costs less in queueing than
        the boot + drain lumps that replacement would burn, the same
        accounting that gates every scale-down.  Cheap-to-cycle classes
        therefore answer short outages that expensive classes sit out.
        Returns the indices booted; the boot energy is priced through
        :meth:`FleetNode.power_on` as usual.
        """
        total_capacity = sum(n.model.speed_factor for n in nodes)
        want = min(total_capacity, self.desired_capacity())
        on_capacity = sum(nodes[i].model.speed_factor for i in on_ids)
        target = self.target_utilization
        spares = sorted(
            (i for i in range(len(nodes)) if not nodes[i].on),
            key=lambda i: (self._work_cost(nodes[i].model, target), i))
        rec = current_recorder()
        rejected: list[list] = []
        booted: list[int] = []
        for i in spares:
            if on_capacity >= want \
                    and len(on_ids) + len(booted) >= self.min_nodes:
                break
            node = nodes[i]
            if downtime_seconds < node.model.breakeven_seconds():
                rejected.append([i, "breakeven"])
                continue
            if node.busy_until <= now:
                node.power_on(now)
                booted.append(i)
                on_capacity += node.model.speed_factor
            else:
                rejected.append([i, "draining"])
        if booted:
            on_ids.extend(booted)
            on_ids.sort()
            self.emergency_boots += len(booted)
            self.decisions.append((now, len(on_ids)))
        if rec is not None:
            for i in booted:
                rec.events.append((now, "boot", i, None, None,
                                   {"reason": "emergency"}))
            rec.events.append(
                (now, "emergency_scale", None, None, None,
                 {"downtime_seconds": downtime_seconds,
                  "want_capacity": want, "booted": booted,
                  "rejected": rejected}))
        return booted

    def _scale_down(self, now: float, nodes: Sequence[FleetNode],
                    on_ids: list[int], on_capacity: float,
                    want: float, log=None) -> None:
        below_for = now - self._below_since
        cooldown = self.cooldown_epochs * self.epoch_seconds
        # costliest class first, tail-first within a class, and only
        # nodes whose pipes have fully drained — power_off would
        # (rightly) refuse a node with backlog
        target = self.target_utilization
        order = sorted(
            on_ids,
            key=lambda i: (self._work_cost(nodes[i].model, target), i),
            reverse=True)
        for i in order:
            if len(on_ids) - 1 < self.min_nodes:
                break
            node = nodes[i]
            if on_capacity - node.model.speed_factor < want:
                if log is not None:
                    log["rejected"].append([i, "capacity"])
                continue
            if below_for < max(cooldown, node.model.breakeven_seconds()):
                if log is not None:
                    log["rejected"].append([i, "breakeven"])
                continue
            if node.backlog(now) <= 0.0:
                node.power_off(now)
                on_ids.remove(i)
                on_capacity -= node.model.speed_factor
                if log is not None:
                    log["drained"].append(i)
            elif log is not None:
                log["rejected"].append([i, "backlog"])
