"""Timing shims for the traced pass — installed from here, nowhere else.

The untraced pass calls the program exactly as a user would.  The
traced pass additionally wraps the public callables a layer boundary
runs through *inside* the program (where the workload's own call site
cannot put a span) by replacing module or class attributes for the
duration of one repetition, and supplies two benchmark-side
subclasses: a :class:`~repro.sim.Simulation` that counts dispatched
events through its public ``step`` and an
:class:`~repro.service.autoscale.Autoscaler` that times its public
``step``.  Everything is restored when the ``with`` block ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import repro.service.engine as service_engine
import repro.workloads.scan_workload as scan_workload
from repro.relational.executor import Executor
from repro.runner.cache import ResultCache
from repro.service.autoscale import Autoscaler
from repro.sim import Simulation
from repro.storage import compression

from perfbench.spans import Tracer

_CODECS = (compression.NoneCodec, compression.RleCodec,
           compression.DictionaryCodec, compression.DeltaCodec,
           compression.LzLiteCodec)


class Counts:
    """Exact counts the shims take during one repetition."""

    def __init__(self) -> None:
        #: events dispatched by every counting simulation
        self.events = 0
        #: rows in every TPC-H database generated inside ``run_scan``
        self.rows = 0

    def simulation_class(self) -> type[Simulation]:
        counts = self

        class CountingSimulation(Simulation):
            def step(self) -> None:
                counts.events += 1
                super().step()

        return CountingSimulation


def timed_autoscaler(tracer: Tracer, *args, **kwargs) -> Autoscaler:
    """An autoscaler whose every ``step`` is a span."""

    class TimedAutoscaler(Autoscaler):
        def step(self, now, nodes, on_ids) -> None:
            with tracer.span("service.autoscale.step"):
                super().step(now, nodes, on_ids)

    return TimedAutoscaler(*args, **kwargs)


@contextmanager
def installed(tracer: Tracer, counts: Counts) -> Iterator[None]:
    """Wrap the in-program layer boundaries for one traced repetition."""
    generate = scan_workload.generate_tpch

    def traced_generate(*args, **kwargs):
        with tracer.span("workloads.tpch_gen.generate"):
            db = generate(*args, **kwargs)
        counts.rows += sum(t.row_count for t in db.tables.values())
        return db

    patches = [
        (service_engine, "serve_event",
         tracer.wrap("service.engine.serve_event",
                     service_engine.serve_event)),
        (scan_workload, "generate_tpch", traced_generate),
        (scan_workload, "Simulation", counts.simulation_class()),
        (Executor, "run",
         tracer.wrap("relational.executor.scan", Executor.run)),
        (ResultCache, "get",
         tracer.wrap("runner.cache.get", ResultCache.get)),
        (ResultCache, "put",
         tracer.wrap("runner.cache.put", ResultCache.put)),
        *((codec, "encode",
           tracer.wrap("storage.compression.encode", codec.encode))
          for codec in _CODECS),
    ]
    originals = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in patches]
    for owner, name, replacement in patches:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
