"""The dataset manifest: what pipelines published, when.

Modeled on manifest-driven dataset managers (a ``manifest.json`` of
versioned datasets): every ``load`` stage that completes publishes a
:class:`DatasetVersion` — which dataset, which pipeline and stage
produced it, the producing spec's ``pipeline_hash`` as the version
token, the completion instant, and whether the pipeline's freshness
SLA held.  An :class:`~repro.workloads.pipelines.report.EtlReport`
carries its run's versions in ``catalog``.

>>> v = DatasetVersion(dataset="sales_daily", version="abc123def456",
...                    pipeline="nightly_sales", stage="load_warehouse",
...                    produced_at_seconds=1042.5, fresh=True, tasks=2)
>>> DatasetVersion.from_dict(v.to_dict()) == v
True
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.records import Record


@dataclass(frozen=True)
class DatasetVersion(Record):
    """One published dataset version (one load-stage completion)."""

    dataset: str
    #: the producing spec's ``pipeline_hash`` prefix — two runs of the
    #: same spec publish the same version token, distinguished by
    #: :attr:`produced_at_seconds`
    version: str
    pipeline: str
    stage: str
    #: completion instant of the publishing stage (stream clock)
    produced_at_seconds: float
    #: whether the producing pipeline met its freshness SLA
    fresh: bool
    #: tasks the publishing stage completed
    tasks: int
