"""The parallel experiment runner.

``Runner.run(spec)`` expands the spec's knob grid, skips every point
already present in the on-disk result cache, fans the rest out across
a process pool (``workers=1`` runs inline), and reassembles the
payloads in grid order.  Because each point is simulated from
nothing but its resolved knobs and its deterministic seed, a
``workers=4`` run is byte-identical to a serial one — the pool only
changes host wall-clock, never results.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Collection, Mapping, Optional, \
    Sequence, Union

from repro import observe
from repro.errors import ReproError
from repro.records import RecordError
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache, point_key
from repro.runner.events import (
    EventSink,
    PointFinished,
    RunFinished,
    RunStarted,
)
from repro.runner.registry import get_experiment
from repro.runner.reports import decode_report
from repro.runner.spec import ExperimentSpec, canonical_json
from repro.runner.worker import (
    PointItem,
    PointTask,
    execute_indexed,
    payload_matches,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.flightrec.events import FlightRecording
    from repro.telemetry.trace import TelemetryTrace

CacheLike = Union[ResultCache, str, os.PathLike, bool, None]


@dataclass
class PointResult:
    """One finished sweep point.

    A point computed in this run keeps each observation as the payload
    dict its worker harvested, which ``to_dict`` returns as is, and
    decodes it on first read; a cache hit's are decoded when it is read.
    ``==`` leaves out host timing, cache provenance and the
    observations, so a computed point equals its own cache hit.
    """

    index: int
    knobs: dict[str, Any]
    seed: int
    report: Any
    sim_seconds: float
    joules: float
    host_seconds: float = field(default=0.0, compare=False)
    cache_hit: bool = field(default=False, compare=False)
    #: observer kind (see :mod:`repro.observe`) -> harvested payload
    payloads: dict[str, Mapping[str, Any]] = field(
        default_factory=dict, compare=False, repr=False)
    #: observer kind -> decoded observation (a payload's once read)
    decoded: dict[str, Any] = field(
        default_factory=dict, compare=False, repr=False)
    #: observer kind -> the canonical JSON text a cache hit's
    #: observation was stored as, spliced by :meth:`RunResult.to_json`
    #: in place of encoding ``decoded[kind]`` again
    observed_json: dict[str, str] = field(
        default_factory=dict, compare=False, repr=False)

    def _observation(self, kind: str) -> Any:
        if kind not in self.decoded and kind in self.payloads:
            self.decoded[kind] = observe.decode(kind, self.payloads[kind])
        return self.decoded.get(kind)

    @property
    def observed(self) -> dict[str, Any]:
        """Observer kind -> decoded observation, in ``KINDS`` order."""
        return {kind: self._observation(kind) for kind in observe.KINDS
                if kind in self.payloads or kind in self.decoded}

    @property
    def telemetry(self) -> Optional["TelemetryTrace"]:
        """The point's telemetry trace, if it ran traced."""
        return self._observation("telemetry")

    @property
    def recording(self) -> Optional["FlightRecording"]:
        """The point's flight recording, if it ran recorded (and
        entered a serving engine)."""
        return self._observation("flightrec")

    def to_dict(self) -> dict[str, Any]:
        """Deterministic content only — host timing and cache
        provenance stay off the record so parallel, serial, and cached
        runs serialize to the same bytes.  Telemetry traces and flight
        recordings are sim-time-deterministic, so traced/recorded
        points carry theirs."""
        return self._content()

    def _content(self, skip: Collection[str] = ()) -> dict[str, Any]:
        # bulk: a type-tagged polymorphic report plus optional payload
        # keys, so this stays explicit (RunResult.from_dict inverts it)
        return {
            "index": self.index,
            "knobs": {k: v for k, v in sorted(self.knobs.items())},
            "seed": self.seed,
            "report": {"type": type(self.report).__name__,
                       "data": self.report.to_dict()},
            "sim_seconds": self.sim_seconds,
            "joules": self.joules,
            **{kind: seen.to_dict() for kind, seen in self.decoded.items()
               if kind not in skip and kind not in self.payloads},
            **{kind: data for kind, data in self.payloads.items()
               if kind not in skip},
        }

    def _json_parts(self, out: list[str]) -> None:
        """Append ``canonical_json(self.to_dict())`` to ``out`` as
        fragments: each field encoded on its own, except an observation
        with a stored text, which is spliced in as is."""
        fields = {key: canonical_json(value) for key, value
                  in self._content(skip=self.observed_json).items()}
        fields.update(self.observed_json)
        out.append("{")
        for n, key in enumerate(sorted(fields)):
            out += ("," if n else "", canonical_json(key), ":", fields[key])
        out.append("}")


def _point(payload: Mapping[str, Any], index: int,
           texts: Optional[Mapping[str, str]] = None,
           **provenance: Any) -> PointResult:
    """The point a payload describes.  A worker's (no ``texts``) keeps
    its observations as harvested; a stored one's are decoded now, as
    its shape check (RecordError), and ``texts`` replace the payloads.
    A ``None`` entry is a recorded point that never entered a serving
    engine: no observation."""
    point = PointResult(
        index=index, knobs=dict(payload["knobs"]), seed=payload["seed"],
        report=decode_report(payload["report"]),
        sim_seconds=payload["sim_seconds"], joules=payload["joules"],
        payloads={kind: payload[kind] for kind in observe.KINDS
                  if payload.get(kind) is not None}, **provenance)
    if texts is not None:
        observed = point.observed
        point.payloads = {}
        point.observed_json = {kind: text for kind, text in texts.items()
                               if kind in observed}
    return point


@dataclass
class RunResult:
    """Everything a finished spec produced, in grid order."""

    spec: ExperimentSpec
    points: list[PointResult] = field(default_factory=list)
    host_seconds: float = 0.0

    @property
    def reports(self) -> list[Any]:
        return [p.report for p in self.points]

    @property
    def cache_hits(self) -> int:
        return sum(1 for p in self.points if p.cache_hit)

    def rows(self) -> list[tuple]:
        """(index, swept knobs, sim seconds, Joules) summary rows."""
        axes = list(self.spec.sweep_axes())
        return [
            (p.index,
             " ".join(f"{k}={p.knobs[k]}" for k in axes) or "-",
             p.sim_seconds, p.joules, "hit" if p.cache_hit else "run")
            for p in self.points
        ]

    def to_dict(self) -> dict[str, Any]:
        # bulk + derived keys: the spec with defaults resolved, its
        # hash, and the explicit per-point dicts
        return {
            "spec": self.spec.canonical(),
            "spec_hash": self.spec.spec_hash(),
            "points": [p.to_dict() for p in self.points],
        }

    def to_json(self) -> str:
        """``canonical_json(self.to_dict())``, assembled from fragments
        in sorted-key order and joined once, so a cache hit's stored
        observation text is copied, not re-encoded.  Exact because the
        canonical JSON of a str-keyed dict is ``"{"`` + ``","``-joined
        ``key:value`` texts in sorted key order + ``"}"``."""
        out = ['{"points":[']
        for n, point in enumerate(self.points):
            if n:
                out.append(",")
            point._json_parts(out)
        out += ['],"spec":', canonical_json(self.spec.canonical()),
                ',"spec_hash":', canonical_json(self.spec.spec_hash()), "}"]
        return "".join(out)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        # bulk (see to_dict): "spec_hash" is derived and ignored
        try:
            spec = ExperimentSpec.from_dict(data["spec"])
            points = [_point(p, p["index"], {}) for p in data["points"]]
        except (KeyError, TypeError, AttributeError) as exc:
            raise RecordError(f"malformed run result: {exc!r}") from None
        return cls(spec=spec, points=points)


def _resolve_cache(cache: CacheLike) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache(os.environ.get("REPRO_CACHE_DIR",
                                          DEFAULT_CACHE_DIR))
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


class Runner:
    """Executes :class:`ExperimentSpec` grids, possibly in parallel.

    ``workers`` is the process-pool size (1 = inline, no pool);
    ``cache`` is ``True`` for the default ``.repro-cache/`` store
    (honouring ``$REPRO_CACHE_DIR``), ``False``/``None`` to disable,
    or a path / :class:`ResultCache`; ``on_event`` receives the
    structured progress events from :mod:`repro.runner.events`;
    ``trace=True`` runs every point under a telemetry capture —
    results gain ``PointResult.telemetry``; ``record=True`` runs every
    point under a fleet flight recorder the same way — results gain
    ``PointResult.recording``.  Tracing and recording are runtime options, not part of the spec:
    traced/recorded and plain runs of the same spec produce identical
    reports (and cache separately).
    """

    def __init__(self, workers: int = 1, cache: CacheLike = True,
                 on_event: Optional[EventSink] = None,
                 trace: bool = False, record: bool = False):
        if workers < 1:
            raise ReproError("workers must be >= 1")
        self.workers = workers
        self.cache = _resolve_cache(cache)
        self.on_event = on_event
        #: the observer kinds (see :mod:`repro.observe`) on every point
        self.observe = tuple(
            kind for kind, on in (("telemetry", trace),
                                  ("flightrec", record)) if on)

    # -- internals ---------------------------------------------------

    def _emit(self, event: Any) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def _tasks(self, spec: ExperimentSpec
               ) -> list[tuple[PointTask, str]]:
        tasks = []
        for point in spec.points():
            task: PointTask = (spec.experiment, point,
                               spec.point_seed(point))
            tasks.append((task, point_key(*task, observe=self.observe)))
        return tasks

    def _finish(self, spec: ExperimentSpec, index: int, total: int,
                payload: Mapping[str, Any],
                texts: Optional[Mapping[str, str]] = None) -> PointResult:
        cache_hit = texts is not None  # else computed in this run
        host_seconds = 0.0 if cache_hit else payload["host_seconds"]
        result = _point(payload, index, texts, host_seconds=host_seconds,
                        cache_hit=cache_hit)
        self._emit(PointFinished(
            index=index, total_points=total, knobs=result.knobs,
            sim_seconds=result.sim_seconds, joules=result.joules,
            host_seconds=host_seconds, cache_hit=cache_hit))
        return result

    # -- the entry point ---------------------------------------------

    def run(self, spec: ExperimentSpec) -> RunResult:
        # fail fast on unknown names, before any point runs
        get_experiment(spec.experiment).validate_knobs(spec.knobs)
        started = time.perf_counter()
        tasks = self._tasks(spec)
        total = len(tasks)
        self._emit(RunStarted(experiment=spec.experiment,
                              spec_hash=spec.spec_hash(),
                              total_points=total, workers=self.workers))

        results: dict[int, PointResult] = {}
        pending: list[PointItem] = []
        healed = 0
        for index, (task, key) in enumerate(tasks):
            entry = self.cache.read(key, self.observe) if self.cache \
                else None
            if entry is not None and payload_matches(
                    entry[0], task, self.observe):
                try:
                    results[index] = self._finish(
                        spec, index, total, entry[0], texts=entry[1])
                    continue
                except RecordError:
                    pass  # valid JSON, wrong shape: a miss like any other
            # a readable entry turned down is re-simulated and rewritten
            healed += entry is not None
            pending.append((index, task, self.observe, self.cache, key))

        if self.workers > 1 and len(pending) > 1:
            self._run_pool(spec, pending, total, results)
        else:
            self._run_serial(spec, pending, total, results)

        run = RunResult(
            spec=spec,
            points=[results[i] for i in range(total)],
            host_seconds=time.perf_counter() - started)
        self._emit(RunFinished(experiment=spec.experiment,
                               total_points=total,
                               cache_hits=run.cache_hits,
                               host_seconds=run.host_seconds,
                               healed=healed))
        return run

    def _computed(self, spec: ExperimentSpec, total: int,
                  done: tuple[int, dict[str, Any]],
                  results: dict[int, PointResult]) -> None:
        index, payload = done
        results[index] = self._finish(spec, index, total, payload)

    def _run_serial(self, spec: ExperimentSpec,
                    pending: Sequence[PointItem], total: int,
                    results: dict[int, PointResult]) -> None:
        for item in pending:
            self._computed(spec, total, execute_indexed(item), results)

    def _run_pool(self, spec: ExperimentSpec,
                  pending: Sequence[PointItem], total: int,
                  results: dict[int, PointResult]) -> None:
        # imported here: only a pooled run pays for the executor (1.4 MB
        # and ~20 ms that every `import repro.runner` would carry)
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool
        # the default context: under fork the executor launches every
        # worker on the first submit, before its manager thread exists
        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)),
            mp_context=multiprocessing.get_context())
        try:
            # no list of the futures is kept: as_completed lets go of
            # each as it yields it, so a payload is freed once finished
            for done, future in enumerate(as_completed(
                    [pool.submit(execute_indexed, item)
                     for item in pending])):
                try:
                    self._computed(spec, total, future.result(), results)
                except BrokenProcessPool:
                    raise ReproError(
                        f"a pool worker died (killed, or a point "
                        f"crashed its interpreter) with "
                        f"{len(pending) - done} of {len(pending)} "
                        f"points still pending; every point that "
                        f"finished is stored, so a rerun on the same "
                        f"cache resumes") from None
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
