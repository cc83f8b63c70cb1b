"""Declarative batch-ETL pipelines: the ``Stage``/``PipelineSpec`` DAG.

The paper's agenda (§3-§4) asks when data-management work should be
*delayed and consolidated* rather than executed the moment it arrives.
Interactive serving cannot ask that question — a dashboard query
deferred for twenty minutes is a failure — but batch ETL can: a nightly
pipeline does not care *when* it runs, only that its datasets are fresh
by a complete-by instant.  This module declares that kind of work.

A :class:`Stage` is one step of a pipeline (``extract``, ``clean``,
``transform``, ``join``, ``aggregate``, or ``load``) expressed as a
*group of identical tasks*: ``tasks`` executions of
``seconds_per_task`` speed-1 node-seconds each.  Stages name their
``inputs``, forming a DAG; ``load`` stages publish a ``dataset`` as a
:class:`~repro.workloads.pipelines.catalog.DatasetVersion`.

A :class:`PipelineSpec` is the whole DAG plus one *freshness SLA*: the
absolute stream instant by which the final stage must have completed.
That single number replaces the per-query latency SLAs of interactive
tenants and is what gives the scheduler
(:class:`~repro.workloads.pipelines.schedule.EtlScheduler`) its
latitude — everything before the deadline is free to move.

Specs serialize (``to_dict``/``from_dict`` invert exactly) and hash
stably (:meth:`PipelineSpec.pipeline_hash` — the same canonical-JSON
SHA-256 discipline as :meth:`~repro.service.spec.FleetSpec.fleet_hash`)
so pipelines ride the runner cache and observatory provenance like any
other knob.

>>> p = PipelineSpec(
...     name="mini",
...     stages=(
...         Stage("pull", "extract", tasks=4, seconds_per_task=2.0),
...         Stage("agg", "aggregate", tasks=2, seconds_per_task=3.0,
...               inputs=("pull",)),
...         Stage("publish", "load", tasks=1, seconds_per_task=1.0,
...               inputs=("agg",), dataset="mini_daily"),
...     ),
...     freshness_sla_seconds=600.0,
... )
>>> [s.name for s in p.topological()]
['pull', 'agg', 'publish']
>>> sum(s.work_seconds for s in p.stages)
15.0
>>> p == PipelineSpec.from_dict(p.to_dict())
True
>>> p.pipeline_hash == PipelineSpec.from_dict(p.to_dict()).pipeline_hash
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError
from repro.records import Record


class PipelineError(ReproError):
    """Pipeline declaration, planning, or bookkeeping failure."""


#: the stage vocabulary, in the canonical extract → load order
KINDS: tuple[str, ...] = ("extract", "clean", "transform", "join",
                          "aggregate", "load")


@dataclass(frozen=True)
class Stage(Record):
    """One pipeline step: ``tasks`` identical units of batch work.

    ``inputs`` names the stages whose outputs this stage consumes (its
    DAG parents); only ``load`` stages may carry a ``dataset`` — the
    catalog name their output publishes under (defaults to the stage
    name when omitted on a ``load`` stage).

    >>> Stage("clean_orders", "clean", tasks=8, seconds_per_task=4.0,
    ...       inputs=("extract_orders",)).work_seconds
    32.0
    """

    name: str
    kind: str
    tasks: int
    seconds_per_task: float
    inputs: tuple[str, ...] = ()
    dataset: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if not self.name:
            raise PipelineError("stage needs a name")
        if self.kind not in KINDS:
            raise PipelineError(
                f"stage {self.name!r}: unknown kind {self.kind!r} "
                f"(one of {', '.join(KINDS)})")
        if self.tasks < 1:
            raise PipelineError(
                f"stage {self.name!r}: needs at least one task")
        if self.seconds_per_task <= 0:
            raise PipelineError(
                f"stage {self.name!r}: seconds_per_task must be positive")
        if len(set(self.inputs)) != len(self.inputs):
            raise PipelineError(
                f"stage {self.name!r}: duplicate input names")
        if self.dataset is not None and self.kind != "load":
            raise PipelineError(
                f"stage {self.name!r}: only load stages publish a "
                "dataset")

    @property
    def work_seconds(self) -> float:
        """Total speed-1 node-seconds this stage demands."""
        return self.tasks * self.seconds_per_task

    @property
    def published_dataset(self) -> Optional[str]:
        """Catalog name a ``load`` stage publishes (None otherwise)."""
        if self.kind != "load":
            return None
        return self.dataset if self.dataset is not None else self.name


@dataclass(frozen=True)
class PipelineSpec(Record):
    """A named stage DAG with one freshness SLA.

    ``freshness_sla_seconds`` is the absolute complete-by instant on
    the arrival-stream clock (the simulated "day" starts at 0): every
    stage must have completed by then.  Validation rejects dangling
    inputs and cycles at construction, so a spec that exists is
    runnable.

    >>> PipelineSpec("bad", (Stage("a", "extract", 1, 1.0,
    ...                            inputs=("a",)),), 10.0)
    Traceback (most recent call last):
        ...
    repro.workloads.pipelines.spec.PipelineError: pipeline 'bad': \
cycle through stage 'a'
    """

    name: str
    stages: tuple[Stage, ...]
    freshness_sla_seconds: float

    def __post_init__(self) -> None:
        if not isinstance(self.stages, tuple):
            object.__setattr__(self, "stages", tuple(self.stages))
        if not self.name:
            raise PipelineError("pipeline needs a name")
        if not self.stages:
            raise PipelineError(
                f"pipeline {self.name!r}: needs at least one stage")
        if self.freshness_sla_seconds <= 0:
            raise PipelineError(
                f"pipeline {self.name!r}: freshness SLA must be a "
                "positive complete-by instant")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise PipelineError(
                f"pipeline {self.name!r}: duplicate stage names")
        declared = set(names)
        for s in self.stages:
            for dep in s.inputs:
                if dep not in declared:
                    raise PipelineError(
                        f"pipeline {self.name!r}: stage {s.name!r} "
                        f"consumes undeclared input {dep!r}")
        self.topological()  # raises PipelineError on a cycle

    def stage(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise PipelineError(
            f"pipeline {self.name!r} has no stage {name!r}")

    def topological(self) -> tuple[Stage, ...]:
        """Stages in dependency order (deterministic Kahn: ties break
        by declaration order, so the result is stable provenance)."""
        index = {s.name: i for i, s in enumerate(self.stages)}
        indegree = {s.name: len(s.inputs) for s in self.stages}
        children: dict[str, list[str]] = {s.name: [] for s in self.stages}
        for s in self.stages:
            for dep in s.inputs:
                children[dep].append(s.name)
        ready = sorted((n for n, d in indegree.items() if d == 0),
                       key=index.__getitem__)
        order: list[Stage] = []
        while ready:
            name = ready.pop(0)
            order.append(self.stages[index[name]])
            grew = False
            for child in children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
                    grew = True
            if grew:
                ready.sort(key=index.__getitem__)
        if len(order) != len(self.stages):
            stuck = min((n for n, d in indegree.items() if d > 0),
                        key=index.__getitem__)
            raise PipelineError(
                f"pipeline {self.name!r}: cycle through stage {stuck!r}")
        return tuple(order)

    @property
    def pipeline_hash(self) -> str:
        """Canonical-JSON SHA-256 of the spec: stable across process
        restarts, dict key order, and stage-tuple identity — the same
        discipline as ``ExperimentSpec.spec_hash``."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
