"""Declarative, hashable experiment specifications.

An :class:`ExperimentSpec` names a registered experiment, a knob
assignment (any knob may carry a *list* of values, which makes it a
sweep axis), a hardware-profile tag, and a base seed.  Everything in a
spec is JSON-serializable by construction, so a spec canonicalizes to
one byte string and therefore to one stable SHA-256 — the identity the
on-disk result cache and the CLI key off.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ReproError
from repro.records import Record


class SpecError(ReproError):
    """An experiment spec is malformed (unknown knob types, etc.)."""


#: knob values must be JSON scalars, or lists of them (a sweep axis)
_SCALARS = (bool, int, float, str, type(None))

DEFAULT_SEED = 2009  # the paper's year, used throughout the repo


def _check_scalar(name: str, value: Any) -> None:
    # NaN / Infinity are not JSON, and nan != nan: such a point could
    # never match its own cache entry (None spells "no limit")
    if not isinstance(value, _SCALARS) or (
            isinstance(value, float) and not math.isfinite(value)):
        raise SpecError(
            f"knob {name!r} has non-JSON value {value!r}; knobs must be "
            "bool/int/finite float/str/None or lists of those")


def canonical_json(obj: Any) -> str:
    """The one canonical text form used for hashing and cache keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec(Record):
    """One experiment plus the knob grid to sweep it over.

    ``knobs`` overrides the experiment's registered defaults; a
    list-valued knob is swept (the point grid is the cartesian product
    of all list-valued knobs, expanded in sorted-knob-name order).
    ``seed`` is the base seed handed to every point; a point whose
    knobs include an explicit ``seed`` knob overrides it.
    """

    experiment: str
    knobs: Mapping[str, Any] = field(default_factory=dict)
    profile: str = ""
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.experiment:
            raise SpecError("experiment name cannot be empty")
        for name, value in self.knobs.items():
            if isinstance(value, (list, tuple)):
                if not value:
                    raise SpecError(f"sweep knob {name!r} has no values")
                for item in value:
                    _check_scalar(name, item)
            else:
                _check_scalar(name, value)

    # -- identity ----------------------------------------------------

    def resolved_knobs(self) -> dict[str, Any]:
        """Registered defaults overlaid with this spec's knobs, with
        sweep axes normalized to lists."""
        from repro.runner.registry import get_experiment
        merged = dict(get_experiment(self.experiment).resolved_defaults)
        merged.update(self.knobs)
        return {name: list(v) if isinstance(v, (list, tuple)) else v
                for name, v in sorted(merged.items())}

    def canonical(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "knobs": self.resolved_knobs(),
            "profile": self.profile,
            "seed": self.seed,
        }

    def spec_hash(self) -> str:
        """Stable identity of the whole spec (defaults included, so a
        spec hashes the same whether defaults are spelled out or not)."""
        return stable_hash(self.canonical())

    # -- the point grid ----------------------------------------------

    def sweep_axes(self) -> dict[str, list[Any]]:
        """The list-valued knobs, in sorted-name order."""
        return {name: value
                for name, value in self.resolved_knobs().items()
                if isinstance(value, list)}

    def points(self) -> list[dict[str, Any]]:
        """Expand the grid into fully-resolved per-point knob dicts."""
        resolved = self.resolved_knobs()
        axes = [(name, values) for name, values in resolved.items()
                if isinstance(values, list)]
        fixed = {name: value for name, value in resolved.items()
                 if not isinstance(value, list)}
        if not axes:
            return [dict(fixed)]
        out = []
        for combo in itertools.product(*(values for _, values in axes)):
            point = dict(fixed)
            point.update({name: value
                          for (name, _), value in zip(axes, combo)})
            out.append(point)
        return out

    def point_seed(self, point: Mapping[str, Any]) -> int:
        """The deterministic seed a point runs with: an explicit
        ``seed`` knob wins, else the spec's base seed."""
        seed = point.get("seed", self.seed)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecError(f"seed must be an int, got {seed!r}")
        return seed

    def describe(self) -> str:
        axes = self.sweep_axes()
        n = 1
        for values in axes.values():
            n *= len(values)
        sweep = ", ".join(f"{k}x{len(v)}" for k, v in axes.items())
        return (f"{self.experiment}: {n} point(s)"
                + (f" ({sweep})" if sweep else ""))
