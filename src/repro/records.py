"""The one record codec: ``to_dict`` / ``from_dict`` derived from fields.

Every report, spec, schedule, trace and ledger row in this repo is a
dataclass whose dict form crosses the process pool, the on-disk result
cache and the ``BENCH_*.json`` ledgers — and outlives the code that
wrote it.  The wire format is stated here, once: a :class:`Record`
dataclass serializes exactly its ``init=True, compare=True`` fields
under their own names, so a field is kept off the wire by the flags it
already carries (``ServiceReport.engine`` is ``compare=False``,
``Figure1Result.profile`` is ``init=False``).

Field annotations drive the recursion: another :class:`Record` nests
as its own dict, ``list[T]`` and ``tuple[T, ...]`` become JSON lists
(and come back as list / tuple), ``dict[str, T]`` / ``Mapping[str, T]``
a JSON object, ``Optional[T]`` maps ``None`` to ``None``; scalars and
``Any`` pass through untouched, so an ``int`` stays an ``int`` and the
canonical JSON of a payload is unchanged by a round trip.

:meth:`Record.from_dict` is strict: an unknown key, a missing key whose
field has no default, or a list where an object was expected (and vice
versa) raises :class:`RecordError` — a :class:`~repro.errors.ReproError`,
so a corrupt cache entry or a hand-edited ledger row ends in a one-line
error instead of a ``TypeError`` from somewhere inside ``cls(**data)``.

A class whose dict form carries *derived* keys (a hash, a ratio, a
verdict count) names them in ``DERIVED_KEYS`` and extends
:meth:`Record.to_dict` to emit them; decoding ignores those keys.

>>> from dataclasses import dataclass
>>> @dataclass
... class Trip(Record):
...     name: str
...     hops: tuple[int, ...] = ()
>>> Trip("t", (1, 2)).to_dict()
{'name': 't', 'hops': [1, 2]}
>>> Trip.from_dict({"name": "t", "hops": [1, 2]})
Trip(name='t', hops=(1, 2))
>>> Trip.from_dict({"name": "t", "hop": []})
Traceback (most recent call last):
    ...
repro.records.RecordError: Trip: unknown key 'hop'
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections.abc import Mapping
from operator import methodcaller
from typing import Any, Callable, ClassVar, Optional

from repro.errors import ReproError

#: a per-field converter; ``None`` means "pass the value through"
_Convert = Optional[Callable[[Any], Any]]

_SCALARS = (bool, int, float, str, type(None))


class RecordError(ReproError):
    """A serialized record has an unknown key, lacks a required one,
    or holds the wrong container shape."""


def _shape_error(where: str, expected: str, value: Any) -> RecordError:
    return RecordError(
        f"{where}: expected {expected}, got {type(value).__name__}")


def _codec(tp: Any, where: str) -> tuple[_Convert, _Convert]:
    """The ``(encode, decode)`` pair for one annotation."""
    if tp is Any or tp in _SCALARS:
        return None, None
    if isinstance(tp, type) and issubclass(tp, Record):
        # through the class's own methods, so explicit extensions
        # (derived keys, hash checks) and recursive types both work
        return methodcaller("to_dict"), tp.from_dict
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        inner = [a for a in args if a is not type(None)]
        if len(inner) == 1 and len(args) == 2:
            enc, dec = _codec(inner[0], where)
            return (None if enc is None else
                    lambda v: None if v is None else enc(v),
                    None if dec is None else
                    lambda v: None if v is None else dec(v))
    elif origin in (list, tuple) and (
            origin is list or args[1:] == (Ellipsis,)):
        enc, dec = _codec(args[0], where)
        return _sequence_codec(origin, enc, dec, where)
    elif origin in (dict, Mapping) and args[0] is str:
        enc, dec = _codec(args[1], where)
        return _mapping_codec(enc, dec, where)
    raise TypeError(f"{where}: the record codec cannot serialize {tp!r}")


def _sequence_codec(build: type, enc: _Convert, dec: _Convert,
                    where: str) -> tuple[_Convert, _Convert]:
    def decode(value: Any) -> Any:
        if not isinstance(value, (list, tuple)):
            raise _shape_error(where, "a list", value)
        return build(value) if dec is None else build(map(dec, value))

    return (list if enc is None else lambda vs: [enc(v) for v in vs],
            decode)


def _mapping_codec(enc: _Convert, dec: _Convert,
                   where: str) -> tuple[_Convert, _Convert]:
    def decode(value: Any) -> dict:
        if not isinstance(value, Mapping):
            raise _shape_error(where, "an object", value)
        return (dict(value) if dec is None
                else {k: dec(v) for k, v in value.items()})

    return (dict if enc is None
            else lambda m: {k: enc(v) for k, v in m.items()},
            decode)


class _Plan:
    """One class's compiled wire format (built once, see :func:`_plan`)."""

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls)
        fields = [f for f in dataclasses.fields(cls)
                  if f.init and f.compare]
        self.required = frozenset(
            f.name for f in fields
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING)
        self.known = frozenset(f.name for f in fields)
        self.ignored = frozenset(cls.DERIVED_KEYS)
        #: (field, decoder) for the fields that need converting
        self.decoders: list[tuple[str, Callable]] = []
        # the encoder is generated source, the way dataclasses writes
        # __init__: one dict display, as fast as a hand-written one
        items, scope = [], {}
        for i, f in enumerate(fields):
            enc, dec = _codec(hints[f.name], f"{cls.__name__}.{f.name}")
            if enc is None:
                items.append(f"{f.name!r}: o.{f.name}")
            else:
                scope[f"_enc{i}"] = enc
                items.append(f"{f.name!r}: _enc{i}(o.{f.name})")
            if dec is not None:
                self.decoders.append((f.name, dec))
        exec(f"def encode(o): return {{{', '.join(items)}}}", scope)
        self.encode: Callable[[Any], dict[str, Any]] = scope["encode"]


@functools.cache
def _plan(cls: type) -> _Plan:
    # built on first use, not at class creation: annotations may name
    # classes defined later in the module (or the class itself)
    return _Plan(cls)


class Record:
    """Mixin giving a dataclass the field-driven wire format above."""

    __slots__ = ()

    #: keys an extended :meth:`to_dict` adds that are not fields;
    #: :meth:`from_dict` accepts and ignores them
    DERIVED_KEYS: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict[str, Any]:
        # the codec itself
        return _plan(type(self)).encode(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        # the codec itself
        plan = _plan(cls)
        if type(data) is not dict and not isinstance(data, Mapping):
            raise _shape_error(cls.__name__, "an object", data)
        kwargs = {k: v for k, v in data.items() if k not in plan.ignored} \
            if plan.ignored else dict(data)
        if not plan.known.issuperset(kwargs):
            unknown = sorted(repr(k) for k in kwargs if k not in plan.known)
            raise RecordError(
                f"{cls.__name__}: unknown key {', '.join(unknown)}")
        if len(kwargs) < len(plan.known) \
                and not plan.required.issubset(kwargs):
            missing = sorted(plan.required.difference(kwargs))
            raise RecordError(f"{cls.__name__}: missing required key "
                              f"{', '.join(map(repr, missing))}")
        for name, dec in plan.decoders:
            if name in kwargs:
                kwargs[name] = dec(kwargs[name])
        return cls(**kwargs)
