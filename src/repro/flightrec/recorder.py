"""The flight-recorder collector: raw lanes in, typed recording out.

Hot-path philosophy (the telemetry collector's, applied to the fleet):
the serving engines never build event objects per query.  The common
case — a healthy, full-speed execution — costs the recorder nothing
while the run is in flight: both serving cores emit a per-query node
lane whether or not anyone is watching, ``serve_lane`` *is* that lane,
handed over when the pass returns, and each span is reconstructed
vectorized at :meth:`FlightRecorder.finalize` from the engine's own
latency array.  Rarer executions (downclocked, batched, under faults)
append one small tuple to a *lane* (``dvfs_serves``, ``batch_serves``),
and cold decisions go to the raw ``events`` list — everything
derivable (execution ends, latencies, SLA breaches, DVFS shift
windows, batch join-up) is derived once, in
``finalize``, from those lanes plus the arrival arrays captured at
:meth:`FlightRecorder.begin_run`.  With no recorder installed every
site is one module-global read; with one installed a recorded run is
still an event-core run — ``benchmarks/test_flightrec_overhead.py``
asserts that, and perfbench's ``flightrec.overhead_ratio`` carries the
wall-clock number.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.flightrec.events import (BATCH_FLUSH, DONE, DVFS_SHIFT, LOST,
                                    LOST_STATE, REJECT, REJECTED, RETRY,
                                    SHED, SHED_STATE, SLA_BREACH,
                                    FleetEvent, FlightRecording)
from repro.observe import installed


class FlightRecorder:
    """Collects one run's raw event lanes; :meth:`finalize` freezes
    them into a :class:`~repro.flightrec.events.FlightRecording`."""

    def __init__(self) -> None:
        #: healthy plain executions: per-query node index (-1 = not
        #: plain-served), one entry per arrival — all -1 from
        #: :meth:`begin_run`, replaced by the serving pass's own lane
        #: column on a healthy run; spans are reconstructed vectorized
        #: at :meth:`finalize` from the engine's own latency array
        #: (see :meth:`end_run`)
        self.serve_lane: Sequence[int] = []
        #: healthy downclocked executions: (query, node, start,
        #: frequency, busy_watts)
        self.dvfs_serves: list[tuple] = []
        #: executions that carry their exact start — a batching run's
        #: shared executions and the chaos engine's settled ones (there
        #: ``release_at`` is the start): (members, node, release_at,
        #: start, done, combined_seconds, frequency, busy_watts)
        self.batch_serves: list[tuple] = []
        #: cold raw events: (t, kind, node, tenant, query, data)
        self.events: list[tuple] = []
        self._meta: Optional[dict[str, Any]] = None
        self._stream = None
        self._latencies = None
        self._ended = False

    # -- run lifecycle -------------------------------------------------

    def begin_run(self, engine: str, stream, nodes,
                  policy_name: str, autoscaled: bool) -> None:
        """Capture the run's fixed context (arrival arrays, node and
        tenant tables).  One recorder records one run."""
        if self._meta is not None:
            from repro.errors import ReproError
            raise ReproError("flight recorder already holds a run; "
                             "recordings do not span runs")
        self._stream = stream
        self.serve_lane = [-1] * len(stream.times)
        self._meta = {
            "engine": engine,
            "policy": policy_name,
            "autoscaled": autoscaled,
            "nodes": [{
                "name": node.name,
                "node_class": node.node_class,
                "initially_on": bool(node.on),
                "model": node.model.to_dict(),
            } for node in nodes],
            "tenants": [{
                "name": t.name,
                "rate_per_s": t.rate_per_s,
                "sla_p95_seconds": t.sla_p95_seconds,
            } for t in stream.tenants],
        }

    def end_run(self, end: float, report, latencies=None) -> None:
        """Close the run at ``end`` with its closed-form report.

        ``latencies`` is the engine's per-query latency array (NaN for
        queries that never completed); with it, :meth:`finalize`
        reconstructs every plain serve's span vectorized instead of
        one append per query on the hot path.
        """
        if self._meta is None:
            from repro.errors import ReproError
            raise ReproError("flight recorder closed without a run")
        self._meta["end"] = float(end)
        self._meta["report"] = report.to_dict()
        self._latencies = latencies
        self._ended = True

    @property
    def has_run(self) -> bool:
        """Whether a completed run is ready to :meth:`finalize` (false
        when the recorded code never entered a serving engine)."""
        return self._meta is not None and self._ended

    def harvest(self) -> Optional[dict]:
        """The finalized recording as the runner's payload dict;
        ``None`` when the point never entered a serving engine."""
        return self.finalize().to_dict() if self.has_run else None

    # -- the derivation pass -------------------------------------------

    def finalize(self) -> FlightRecording:
        """Derive the typed recording from the raw lanes."""
        if self._meta is None or not self._ended:
            from repro.errors import ReproError
            raise ReproError("flight recorder has no completed run to "
                             "finalize")
        meta = self._meta
        stream = self._stream
        times_np = np.asarray(stream.times, dtype=float)
        service_np = np.asarray(stream.service_seconds, dtype=float)
        tenant_np = np.asarray(stream.tenant_index)
        n = len(times_np)
        speed = [spec["model"]["speed_factor"] for spec in meta["nodes"]]

        # parallel numpy shadows of the span columns, kept current by
        # every lane below so the derived-event pass stays vectorized
        if len(self.serve_lane) != n:
            from repro.errors import ReproError
            raise ReproError(
                f"flight recorder's serve lane holds "
                f"{len(self.serve_lane)} entries for a stream of {n} "
                "arrivals")
        # a copy: the lanes below write their nodes into it
        lane_np = np.array(self.serve_lane, dtype=np.int64)
        start_np = np.full(n, np.nan)
        comp_np = np.full(n, np.nan)
        freq_np = np.ones(n)

        plain = lane_np >= 0
        any_plain = bool(plain.any())
        if any_plain and self._latencies is None:
            from repro.errors import ReproError
            raise ReproError(
                "recorder holds plain serves but end_run() received no "
                "latency array to reconstruct their spans from")
        if any_plain:
            lat_np = np.asarray(self._latencies, dtype=float)
            speed_np = np.asarray(speed, dtype=float)
            comp_np = np.where(plain, times_np + lat_np, np.nan)
            start_np = comp_np - service_np \
                / speed_np[np.where(plain, lane_np, 0)]
        # all-plain fast path: every query is a healthy full-speed
        # serve, so no column ever holds a None — the recording keeps
        # the numpy arrays themselves and ``to_dict`` materializes
        # python lists only when the recording is serialized
        rare = bool(self.dvfs_serves or self.batch_serves)
        fast = any_plain and not rare and bool(plain.all())
        if fast:
            arrival: Any = times_np
            service: Any = service_np
            tenant: Any = tenant_np
            node_col: Any = lane_np
            start_col: Any = start_np
            completion: Any = comp_np
            state: list = [DONE] * n
        else:
            arrival = times_np.tolist()
            service = service_np.tolist()
            tenant = tenant_np.tolist()
            node_col = [None] * n
            start_col = [None] * n
            completion = [None] * n
            state = [None] * n
            if any_plain:
                lane_l = lane_np.tolist()
                s_l = start_np.tolist()
                c_l = comp_np.tolist()
                for k in np.nonzero(plain)[0].tolist():
                    node_col[k] = lane_l[k]
                    start_col[k] = s_l[k]
                    completion[k] = c_l[k]
                    state[k] = DONE
        watts_col: list = [None] * n
        freq_col: list = [1.0] * n
        batch_col: list = [None] * n
        attempts: list = [1] * n
        dvfs_nodes: set[int] = set()

        def put_span(k, i, start, done, busy_watts, freq) -> None:
            """One finished execution: query ``k``'s span columns and
            their numpy shadows."""
            node_col[k] = i
            start_col[k] = start
            completion[k] = done
            watts_col[k] = busy_watts
            freq_col[k] = freq
            state[k] = DONE
            lane_np[k] = i
            start_np[k] = start
            comp_np[k] = done
            freq_np[k] = freq
            if freq < 1.0:
                dvfs_nodes.add(i)

        for k, i, start, freq, busy_watts in self.dvfs_serves:
            put_span(k, i, start, start + service[k] / (speed[i] * freq),
                     busy_watts, freq)

        batches: dict[str, list] = {
            "members": [], "first": [], "release_at": [],
            "combined_seconds": [], "raw_seconds": [], "reason": [],
            "node": [], "start": [], "completion": [], "watts": [],
            "frequency": [],
        }
        flush_by_first: dict[int, dict] = {}
        for t, kind, node, ti, query, data in self.events:
            if kind == BATCH_FLUSH:
                flush_by_first[data["first"]] = data

        def add_batch(members, i, release_at, start, done, combined,
                      freq, busy_watts) -> None:
            bid = len(batches["members"])
            first = members[0]
            flush = flush_by_first.get(first)
            batches["members"].append(len(members))
            batches["first"].append(first)
            batches["release_at"].append(release_at)
            batches["combined_seconds"].append(combined)
            batches["raw_seconds"].append(
                sum(service[m] for m in members))
            batches["reason"].append(
                flush["reason"] if flush is not None else "solo")
            batches["node"].append(i)
            batches["start"].append(start)
            batches["completion"].append(done)
            batches["watts"].append(busy_watts)
            batches["frequency"].append(freq)
            if flush is not None:
                flush["batch"] = bid
            for m in members:
                put_span(m, i, start, done, busy_watts, freq)
                batch_col[m] = bid

        for members, i, release_at, start, done, combined, freq, \
                busy_watts in self.batch_serves:
            if len(members) == 1 and members[0] not in flush_by_first:
                # a degenerate solo release is the un-batched engine
                # event: record it as a plain (or downclocked) serve
                put_span(members[0], i, start, done, busy_watts, freq)
            else:
                add_batch(members, i, release_at, start, done, combined,
                          freq, busy_watts)

        for t, kind, node, ti, query, data in self.events:
            if kind == RETRY:
                for k in data.get("members", (query,)):
                    if k is not None:
                        attempts[k] += 1
            elif kind == REJECT:
                for k in data.get("members", (query,)):
                    state[k] = REJECTED
            elif kind == SHED:
                for k in data.get("members", (query,)):
                    state[k] = SHED_STATE
            elif kind == LOST:
                for k in data.get("members", (query,)):
                    state[k] = LOST_STATE

        # float(t): an int clock (an int epoch_seconds knob) must
        # serialize as from_row decodes it, so a recording's canonical
        # JSON is the same before and after a cache round trip
        events = [FleetEvent(t=float(t), kind=kind, node=node, tenant=ti,
                             query=query, data=data)
                  for t, kind, node, ti, query, data in self.events]
        events.extend(self._derived_events(
            times_np, tenant_np, lane_np, start_np, comp_np, freq_np,
            dvfs_nodes))
        events.sort(key=lambda e: e.t)

        queries = {
            "arrival": arrival, "service": service, "tenant": tenant,
            "node": node_col, "start": start_col,
            "completion": completion, "watts": watts_col,
            "frequency": freq_col, "state": state, "batch": batch_col,
            "attempts": attempts,
        }
        recording = FlightRecording(meta=dict(meta), queries=queries,
                                    batches=batches, events=events)
        recording.meta["event_counts"] = recording.counts()
        return recording

    def _derived_events(self, times_np, tenant_np, lane_np, start_np,
                        comp_np, freq_np,
                        dvfs_nodes: set) -> list[FleetEvent]:
        """DVFS shift windows per node and per-query SLA breaches,
        derived vectorized from the numpy span shadows (NaN completion
        = never executed)."""
        out: list[FleetEvent] = []
        slas = [t["sla_p95_seconds"] for t in self._meta["tenants"]]
        sla_np = np.asarray(
            [s if s is not None else np.inf for s in slas]
        )[tenant_np]
        latency_np = comp_np - times_np
        for k in np.nonzero(latency_np > sla_np)[0].tolist():
            out.append(FleetEvent(
                t=float(comp_np[k]), kind=SLA_BREACH,
                node=int(lane_np[k]),
                tenant=int(tenant_np[k]), query=k,
                data={"latency": float(latency_np[k]),
                      "sla": slas[tenant_np[k]]}))
        for i in sorted(dvfs_nodes):
            idx = np.nonzero(lane_np == i)[0]
            spans = sorted(zip(start_np[idx].tolist(),
                               freq_np[idx].tolist()))
            last = 1.0
            for t, freq in spans:
                if freq != last:
                    out.append(FleetEvent(
                        t=t, kind=DVFS_SHIFT, node=i,
                        data={"from": last, "to": freq}))
                    last = freq
        return out


@contextmanager
def record() -> Iterator[FlightRecorder]:
    """Install a :class:`FlightRecorder` for the enclosed run.

    >>> from repro.flightrec import record
    >>> from repro.observe import current_recorder
    >>> with record() as rec:
    ...     current_recorder() is rec
    True
    >>> current_recorder() is None
    True
    """
    with installed("flightrec", FlightRecorder()) as recorder:
        yield recorder
