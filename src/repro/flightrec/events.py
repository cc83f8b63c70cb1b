"""Typed flight-recorder events and the serializable recording.

A :class:`FlightRecording` is the frozen product of one recorded run:
a columnar per-query table (arrival, service demand, tenant, chosen
node, execution window, power state, outcome), a table of shared batch
executions (QED), and a time-ordered list of discrete
:class:`FleetEvent` decision records (boots, drains, crashes, repairs,
throttle windows, hold open/join, batch flushes, autoscaler verdicts,
sheds, retries, timeouts, truncated executions).  Everything is plain
floats/ints/strings, so :meth:`FlightRecording.to_dict` /
:meth:`FlightRecording.from_dict` invert exactly and recordings ride
runner payloads through the process pool and the result cache the way
:class:`~repro.telemetry.trace.TelemetryTrace` does.

The recording is self-auditing: :meth:`FlightRecording.
replayed_energy_joules` re-prices the run from nothing but the event
stream — boot/drain lumps, idle draw over powered-on spans, and each
execution window's active draw — and the integration tests pin that
replay to the closed-form :class:`~repro.service.report.ServiceReport`
total to 1e-9 relative, which is what makes the stream trustworthy as
an *attribution* of the report's Joules rather than a parallel
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

from repro.records import RecordError

# -- event kinds -----------------------------------------------------
#: node lifecycle: powered on (data: reason = initial | scale_up |
#: emergency | repair), powered off into a drain window, crashed
#: (data: repair_at), repaired back into service
BOOT = "boot"
DRAIN = "drain"
CRASH = "crash"
REPAIR = "repair"
#: chaos windows: thermal throttle and RAID disk-failure spans
THROTTLE_START = "throttle_start"
THROTTLE_END = "throttle_end"
DISK_FAIL = "disk_fail"
DISK_RECOVER = "disk_recover"
#: QED hold queues: a queue opened (data: deadline, window), a later
#: arrival joined it, the queue flushed into a shared batch (data:
#: batch, members, reason = deadline | full | solo)
HOLD_OPEN = "hold_open"
HOLD_JOIN = "hold_join"
BATCH_FLUSH = "batch_flush"
#: autoscaler verdicts (data: want capacity, on capacity, booted /
#: drained node lists, rejected candidates with reasons)
SCALE = "scale"
EMERGENCY_SCALE = "emergency_scale"
#: degradation incidents
REJECT = "reject"
SHED = "shed"
RETRY = "retry"
TIMEOUT = "timeout"
LOST = "lost"
#: a crash cut an execution short: the span up to the crash instant
#: drew power (data: start, end, watts); the query itself settles
#: elsewhere (retry) or is lost
TRUNCATED_SERVE = "truncated_serve"
#: derived at finalize: per-node governor state shifts (data: from,
#: to) and per-query SLA overshoots (data: latency, sla)
DVFS_SHIFT = "dvfs_shift"
SLA_BREACH = "sla_breach"

#: per-query outcome codes in the columnar table
DONE = "done"
REJECTED = "rejected"
SHED_STATE = "shed"
LOST_STATE = "lost"


@dataclass(frozen=True, slots=True, init=False)
class FleetEvent:
    """One timestamped, typed record of a fleet decision or incident.

    ``node`` / ``tenant`` / ``query`` index the recording's node,
    tenant, and arrival tables; each is ``None`` when the event is not
    about one (an autoscaler verdict has no tenant, a hold-open no
    node).  ``data`` carries the kind-specific payload and is always
    JSON-safe (``None`` stands for an empty one).
    """

    t: float
    kind: str
    node: Optional[int] = None
    tenant: Optional[int] = None
    query: Optional[int] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def __init__(self, t: float, kind: str, node: Optional[int] = None,
                 tenant: Optional[int] = None, query: Optional[int] = None,
                 data: Optional[Mapping[str, Any]] = None) -> None:
        # built once per event by the recorder and again by every
        # decode: storing through the slots' own descriptors skips the
        # six object.__setattr__ calls a frozen dataclass's __init__ makes
        _set_t(self, t)
        _set_kind(self, kind)
        _set_node(self, node)
        _set_tenant(self, tenant)
        _set_query(self, query)
        _set_data(self, {} if data is None else data)

    def to_row(self) -> list:
        return [self.t, self.kind, self.node, self.tenant, self.query,
                dict(self.data)]

    @classmethod
    def from_row(cls, row) -> "FleetEvent":
        t, kind, node, tenant, query, data = row
        return cls(float(t), str(kind),
                   None if node is None else int(node),
                   None if tenant is None else int(tenant),
                   None if query is None else int(query), dict(data))


(_set_t, _set_kind, _set_node, _set_tenant, _set_query,
 _set_data) = (FleetEvent.__dict__[name].__set__
               for name in FleetEvent.__slots__)


#: the parallel per-query columns, in serialization order
_QUERY_COLUMNS = ("arrival", "service", "tenant", "node", "start",
                  "completion", "watts", "frequency", "state", "batch",
                  "attempts")

#: the per-batch columns (one row per shared QED execution)
_BATCH_COLUMNS = ("members", "first", "release_at", "combined_seconds",
                  "raw_seconds", "reason", "node", "start", "completion",
                  "watts", "frequency")


def _as_list(column) -> list:
    """A query column as a plain list (numpy arrays convert)."""
    tolist = getattr(column, "tolist", None)
    return tolist() if tolist is not None else column


@dataclass
class FlightRecording:
    """The frozen, serializable product of one recorded run.

    ``meta`` describes the run (engine, policy, node/tenant tables,
    the closed-form report); ``queries`` is the columnar per-arrival
    table (:data:`_QUERY_COLUMNS`); ``batches`` holds one row per
    shared QED execution (:data:`_BATCH_COLUMNS`; solo queries carry
    ``batch = None``); ``events`` is the time-ordered discrete stream.
    """

    meta: dict[str, Any]
    queries: dict[str, list]
    batches: dict[str, list]
    events: list[FleetEvent]

    # -- shape ---------------------------------------------------------

    @property
    def n_queries(self) -> int:
        return len(self.queries["arrival"])

    @property
    def n_nodes(self) -> int:
        return len(self.meta["nodes"])

    @property
    def end(self) -> float:
        return float(self.meta["end"])

    def node_name(self, i: int) -> str:
        return self.meta["nodes"][i]["name"]

    def tenant_name(self, ti: int) -> str:
        return self.meta["tenants"][ti]["name"]

    def events_of(self, *kinds: str) -> Iterator[FleetEvent]:
        wanted = set(kinds)
        return (e for e in self.events if e.kind in wanted)

    def counts(self) -> dict[str, int]:
        """Event counts by kind, descending."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    # -- spans and the energy audit -----------------------------------

    def on_spans(self) -> tuple[list[list[tuple[float, float, float]]],
                                list[list[tuple[float, float]]]]:
        """Per node: powered-on spans (start, end, boot_window) and
        transition lumps [(t, joules)], read off the lifecycle events.

        A boot opens a span whose first ``boot_window`` seconds its
        lump already paid for; a drain or crash closes it (a drain adds
        its lump); the run's end closes whatever is still on."""
        nodes = self.meta["nodes"]
        on: list[list[tuple[float, float, float]]] = [[] for _ in nodes]
        lumps: list[list[tuple[float, float]]] = [[] for _ in nodes]
        lifecycle: list[list[tuple[float, str]]] = [[] for _ in nodes]
        for e in self.events_of(BOOT, DRAIN, CRASH):
            lifecycle[e.node].append((e.t, e.kind))
        for i, spec in enumerate(nodes):
            model = spec["model"]
            on_since = 0.0 if spec["initially_on"] else None
            boot_window = 0.0  # the initial ON span has no boot
            for t, kind in sorted(lifecycle[i]):
                if kind == BOOT:
                    lumps[i].append((t, model["boot_joules"]))
                    on_since = t
                    boot_window = model["boot_seconds"]
                elif on_since is not None:  # DRAIN or CRASH closes it
                    on[i].append((on_since, t, boot_window))
                    if kind == DRAIN:
                        lumps[i].append((t, model["drain_joules"]))
                    on_since = None
            if on_since is not None:  # finalize closes without drain
                on[i].append((on_since, self.end, boot_window))
        return on, lumps

    def execution_spans(self) \
            -> Iterator[tuple[int, float, float, float, float]]:
        """Every distinct execution span: (node, start, end, busy_watts,
        frequency) — solo queries, shared batches once each, and
        crash-truncated partial spans."""
        peak = [n["model"]["peak_watts"] for n in self.meta["nodes"]]
        q = self.queries
        for node, start, completion, watts, batch, freq in zip(
                q["node"], q["start"], q["completion"], q["watts"],
                q["batch"], q["frequency"]):
            if completion is not None and batch is None:
                yield (node, start, completion,
                       peak[node] if watts is None else watts, freq)
        b = self.batches
        for node, start, completion, watts, freq in zip(
                b["node"], b["start"], b["completion"], b["watts"],
                b["frequency"]):
            if completion is not None:
                yield (node, start, completion,
                       peak[node] if watts is None else watts, freq)
        for e in self.events_of(TRUNCATED_SERVE):
            yield (e.node, e.data["start"], e.data["end"],
                   e.data["watts"], 1.0)

    def replayed_energy_joules(self) -> float:
        """Re-price the whole run from the event stream alone.

        Idle draw over every powered-on span net of its atomic boot
        window, the boot and drain lumps, and every execution span's
        active draw above idle.  The result must match the closed-form
        ``ServiceReport.energy_joules`` to 1e-9 relative; any drift
        means the stream lost or double-counted a decision.
        """
        idle = [n["model"]["idle_watts"] for n in self.meta["nodes"]]
        on, lumps = self.on_spans()
        terms = [idle[i] * (s1 - s0 - boot_window)
                 for i, spans in enumerate(on)
                 for s0, s1, boot_window in spans]
        terms.extend(joules for node in lumps for _t, joules in node)
        terms.extend((busy_watts - idle[i]) * (end - start)
                     for i, start, end, busy_watts, _freq
                     in self.execution_spans())
        return math.fsum(terms)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        # columnar: the tables serialize column by column and events as
        # rows, not field by field, so this codec stays explicit.
        # query columns may be numpy arrays (the recorder's all-plain
        # fast path defers list materialization to here — see
        # ``FlightRecorder.finalize``); serialize them as plain lists
        return {
            "meta": self.meta,
            "queries": {c: _as_list(self.queries[c])
                        for c in _QUERY_COLUMNS},
            "batches": {c: self.batches[c] for c in _BATCH_COLUMNS},
            "events": [e.to_row() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlightRecording":
        # columnar (see to_dict); a missing table or column, or a row
        # of the wrong arity, is a malformed payload, not a crash
        try:
            queries = {c: list(data["queries"][c])
                       for c in _QUERY_COLUMNS}
            batches = {c: list(data["batches"][c])
                       for c in _BATCH_COLUMNS}
            return cls(
                meta=dict(data["meta"]),
                queries=queries,
                batches=batches,
                events=[FleetEvent.from_row(row)
                        for row in data["events"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordError(
                f"malformed flight recording: {exc!r}") from None
