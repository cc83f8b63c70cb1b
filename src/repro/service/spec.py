"""Fleet composition: node classes and the ``FleetSpec`` serving API.

The paper's §2.4 argues that energy-proportional *clusters* are built
by composition — choosing which, and what kind of, machines to power —
out of servers that are individually non-proportional.  Lang,
Harizopoulos, Patel, Shah & Tsirogiannis (arXiv 1208.1933) measure the
consequence: a cluster of many "wimpy" low-power nodes beats a few
"beefy" ones on Joules per query only in some load/SLA regimes, and
loses in others.  Expressing that question requires a fleet that is a
*composition*, not a count — which is what this module provides.

A :class:`NodeClass` is ``count`` identical nodes sharing one
:class:`~repro.service.node.NodePowerModel`; a :class:`FleetSpec` is an
ordered tuple of classes.  Specs serialize (``to_dict``/``from_dict``
invert exactly) and hash stably (:meth:`FleetSpec.fleet_hash`, the same
canonical-JSON SHA-256 discipline as
:meth:`~repro.runner.ExperimentSpec.spec_hash`), so fleet
compositions ride the runner cache and observatory provenance like any
other knob.

Named classes resolve through a registry seeded with the two
calibrated archetypes of the crossover literature:

* ``beefy`` (and the homogeneous default ``node``) — the ``commodity``
  hardware profile: a 4-core Xeon-class box, high idle floor, best
  energy per unit of work when busy.
* ``wimpy`` — the paper's own low-power ``flash_scan_node`` profile at
  a fractional ``speed_factor``: a much lower idle floor, but *worse*
  Joules per unit of work at full tilt — exactly the 1208.1933 shape.

Quick start::

    from repro.service import FleetSpec, simulate_service

    fleet = FleetSpec.of(beefy=4, wimpy=24)
    report = simulate_service(stream, fleet=fleet)
    for cls in report.classes:
        print(cls.node_class, cls.energy_joules)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.records import Record
from repro.service.node import NodePowerModel
from repro.service.report import ServiceError

#: wimpy-class service rate relative to a beefy node (arXiv 1208.1933
#: models wimpy nodes as slower per query as well as lower-powered)
WIMPY_SPEED_FACTOR = 0.45


@dataclass(frozen=True)
class NodeClass(Record):
    """``count`` identical serving nodes sharing one power model."""

    name: str
    count: int
    model: NodePowerModel

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceError("node class needs a name")
        if self.count < 0:
            raise ServiceError(
                f"node class {self.name!r}: count cannot be negative")

    @property
    def capacity(self) -> float:
        """Speed-1 node-equivalents this class contributes."""
        return self.count * self.model.speed_factor


@dataclass(frozen=True)
class FleetSpec(Record):
    """An ordered composition of node classes — the fleet, declared.

    Node indices run class by class in declaration order (``beefy``
    before ``wimpy`` in ``FleetSpec.of(beefy=4, wimpy=24)``), which is
    load-bearing: the packing dispatcher fills from the head of the
    index order and the autoscaler drains from its cold tail, so the
    declaration order is also the default preference order.  Duplicate
    class names are allowed (their report rollups merge), which is what
    makes a homogeneous fleet split into two chunks of the same class
    byte-identical to the unsplit one.
    """

    classes: tuple[NodeClass, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.classes, tuple):
            object.__setattr__(self, "classes", tuple(self.classes))
        if self.n_nodes < 1:
            raise ServiceError("fleet needs at least one node")

    @property
    def n_nodes(self) -> int:
        return sum(c.count for c in self.classes)

    @property
    def total_capacity(self) -> float:
        """Fleet capacity in speed-1 node-equivalents."""
        return sum(c.capacity for c in self.classes)

    def members(self) -> Iterator[tuple[str, str, NodePowerModel]]:
        """Yield ``(node_name, class_name, model)`` per node, in index
        order; names are ``{class}{global_index:03d}`` so the default
        homogeneous fleet keeps its historical ``node000 ...`` names."""
        idx = 0
        for cls in self.classes:
            for _ in range(cls.count):
                yield f"{cls.name}{idx:03d}", cls.name, cls.model
                idx += 1

    @classmethod
    def homogeneous(cls, n_nodes: int,
                    model: Optional[NodePowerModel] = None,
                    name: str = "node") -> "FleetSpec":
        """The classic single-class fleet (``model`` defaults to the
        calibrated ``commodity`` profile, as ``simulate_service``
        always has)."""
        if model is None:
            model = node_class_model("node")
        return cls(classes=(NodeClass(name=name, count=n_nodes,
                                      model=model),))

    @classmethod
    def of(cls, **counts: int) -> "FleetSpec":
        """Compose a fleet from registered class names, e.g.
        ``FleetSpec.of(beefy=4, wimpy=24)``.  Keyword order is the
        class (and therefore packing-preference) order; zero counts are
        dropped."""
        if not counts:
            raise ServiceError("FleetSpec.of() needs at least one class")
        classes = tuple(
            NodeClass(name=name, count=count,
                      model=node_class_model(name))
            for name, count in counts.items() if count != 0)
        return cls(classes=classes)

    DERIVED_KEYS = ("hash",)

    def to_dict(self) -> dict[str, Any]:
        # derived key: the composition's own hash, checked on the way in
        return {**super().to_dict(), "hash": self.fleet_hash()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetSpec":
        # derived key: verifies the hash ``to_dict`` emitted
        spec = super().from_dict(data)
        expected = data.get("hash")
        if expected is not None and expected != spec.fleet_hash():
            raise ServiceError(
                "fleet spec hash mismatch: the serialized composition "
                "was edited or corrupted")
        return spec

    def fleet_hash(self) -> str:
        """Stable SHA-256 over the canonical JSON composition — the
        same discipline as :meth:`~repro.runner.ExperimentSpec.
        spec_hash`, so specs key caches and provenance records."""
        from repro.runner.spec import stable_hash
        return stable_hash(super().to_dict())


#: registered class name -> model factory (resolved lazily: calibration
#: builds a throwaway simulation, which imports must not trigger)
NODE_CLASS_REGISTRY: dict[str, Callable[[], NodePowerModel]] = {}
_MODEL_CACHE: dict[str, NodePowerModel] = {}


def register_node_class(name: str,
                        factory: Callable[[], NodePowerModel]) -> None:
    """Register (or replace) a named node-class calibration."""
    NODE_CLASS_REGISTRY[name] = factory
    _MODEL_CACHE.pop(name, None)


def node_class_model(name: str) -> NodePowerModel:
    """Resolve a registered class name to its calibrated model."""
    try:
        factory = NODE_CLASS_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(NODE_CLASS_REGISTRY))
        raise ServiceError(
            f"unknown node class {name!r}; registered: {known}") from None
    if name not in _MODEL_CACHE:
        _MODEL_CACHE[name] = factory()
    return _MODEL_CACHE[name]


def _beefy() -> NodePowerModel:
    return NodePowerModel.from_server("commodity")


def _wimpy() -> NodePowerModel:
    return NodePowerModel.from_server("flash_scan_node",
                                      speed_factor=WIMPY_SPEED_FACTOR)


register_node_class("node", _beefy)
register_node_class("beefy", _beefy)
register_node_class("wimpy", _wimpy)
