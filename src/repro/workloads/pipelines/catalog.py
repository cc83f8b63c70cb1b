"""The dataset catalog: a manifest of what pipelines published, when.

Modeled on manifest-driven dataset managers (a ``manifest.json`` of
versioned datasets): every ``load`` stage that completes publishes a
:class:`DatasetVersion` — which dataset, which pipeline and stage
produced it, the producing spec's ``pipeline_hash`` as the version
token, the completion instant, and whether the pipeline's freshness
SLA held.  A :class:`DatasetCatalog` accumulates versions across runs
(append-only, like the observatory's ledgers) and answers the
operator's question: *is this dataset fresh, and which pipeline run
made it so?*

>>> cat = DatasetCatalog()
>>> v = DatasetVersion(dataset="sales_daily", version="abc123def456",
...                    pipeline="nightly_sales", stage="load_warehouse",
...                    produced_at_seconds=1042.5, fresh=True, tasks=2)
>>> cat.publish(v)
>>> cat.latest("sales_daily").fresh
True
>>> cat2 = DatasetCatalog.from_dict(cat.to_dict())
>>> cat2.latest("sales_daily") == cat.latest("sales_daily")
True
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.records import Record
from repro.workloads.pipelines.spec import PipelineError


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


@dataclass
class DatasetCatalog(Record):
    """An append-only manifest of published dataset versions."""

    entries: list[DatasetVersion] = field(default_factory=list)

    def publish(self, version: DatasetVersion) -> None:
        self.entries.append(version)

    def datasets(self) -> list[str]:
        """Distinct dataset names, first-published order."""
        seen: list[str] = []
        for e in self.entries:
            if e.dataset not in seen:
                seen.append(e.dataset)
        return seen

    def versions(self, dataset: str) -> list[DatasetVersion]:
        return [e for e in self.entries if e.dataset == dataset]

    def latest(self, dataset: str) -> DatasetVersion:
        """The most recently published version of ``dataset``."""
        versions = self.versions(dataset)
        if not versions:
            raise PipelineError(
                f"catalog has no dataset {dataset!r}; published: "
                f"{', '.join(self.datasets()) or '(none)'}")
        return versions[-1]

    def fresh(self, dataset: str) -> bool:
        """Whether the latest version of ``dataset`` met freshness."""
        return self.latest(dataset).fresh
