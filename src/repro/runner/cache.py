"""Content-addressed on-disk cache of completed sweep points.

Keys are SHA-256 digests over (package version, experiment name,
fully-resolved point knobs, point seed); values are the exact payload
the worker produced (typed report dict + simulated seconds/Joules).
A repeated benchmark or CI run therefore skips every point it has
already simulated, and a source change opens a new namespace.

Layout: ``<root>/<fingerprint[:12]>/<key[:2]>/<key>.json``, the
fingerprint a SHA-256 of this package's modules and numpy's version
(code registered from outside the package is not hashed: after editing
it, use ``--no-cache`` or ``cache clear``).  Entries in another
namespace, or in the older ``<root>/<key[:2]>/`` layout, are stale:
never read, counted by ``stats``, removed by ``clear``.  Writes are
atomic (a writer-unique tmp file + rename), so neither a killed run nor
two writers of one key leave a corrupt entry; an unreadable one is a miss.

An entry's text is the payload's canonical JSON (the form
:func:`~repro.runner.spec.stable_hash` hashes), so :meth:`ResultCache.read`
can hand back a field's stored text alongside its value and a later
serialization splices that text in instead of encoding the value again.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from json.decoder import scanstring
from pathlib import Path
from typing import Any, Collection, Mapping, Optional

from repro.runner.spec import canonical_json, stable_hash

DEFAULT_CACHE_DIR = ".repro-cache"
_NAMESPACE = "?" * 12  # a glob for a namespace's directory name

_scan_value = json.JSONDecoder().scan_once


def _canonical_fields(text: str, keep: Collection[str]
                      ) -> Optional[tuple[dict[str, Any], dict[str, str]]]:
    """The object a canonical-JSON ``text`` encodes, plus the text of
    each top-level field named in ``keep``; ``None`` when the top level
    is not an object in canonical form (whitespace between tokens, or
    anything after the closing brace).  One pass of json's C scanner
    yields both each value and where its text ends."""
    if text == "{}":
        return {}, {}
    if text[:1] != "{":
        return None
    payload: dict[str, Any] = {}
    texts: dict[str, str] = {}
    end = 1
    while True:
        if text[end:end + 1] != '"':
            return None
        key, end = scanstring(text, end + 1)
        if text[end:end + 1] != ":":
            return None
        start = end + 1
        payload[key], end = _scan_value(text, start)
        if key in keep:
            texts[key] = text[start:end]
        sep, end = text[end:end + 1], end + 1
        if sep == "}":
            return (payload, texts) if end == len(text) else None
        if sep != ",":
            return None


@functools.lru_cache(maxsize=None)
def _source_fingerprint() -> str:
    """SHA-256 over the package's module paths and bytes, and numpy's."""
    import numpy
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256(numpy.__version__.encode())
    for path in sorted(package.rglob("*.py")):
        digest.update(f"{path.relative_to(package)}\0".encode()
                      + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _package_version() -> str:
    import repro
    return repro.__version__


def point_key(experiment: str, knobs: Mapping[str, Any], seed: int,
              version: str | None = None,
              observe: tuple[str, ...] = ()) -> str:
    """The cache identity of one sweep point.

    Observed points live under distinct keys, one per set of observer
    kinds (their payloads carry the observations); the unobserved key
    is unchanged from before observers existed, as the pinned keys in
    ``experiment_identity.json`` require.
    """
    return stable_hash({
        "version": version if version is not None else _package_version(),
        "experiment": experiment,
        "knobs": {name: value for name, value in sorted(knobs.items())},
        "seed": seed,
        **dict.fromkeys(observe, True),
    })


@dataclass(frozen=True)
class CacheStats:
    root: str
    entries: int
    stale_entries: int
    total_bytes: int


class ResultCache:
    """Point payloads under ``root``, in its constructor's namespace."""

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.namespace = self.root / _source_fingerprint()[:12]

    def _path(self, key: str) -> Path:
        return self.namespace / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict[str, Any]]:
        entry = self.read(key)
        return None if entry is None else entry[0]

    def read(self, key: str, texts_of: Collection[str] = ()
             ) -> Optional[tuple[dict[str, Any], dict[str, str]]]:
        """The payload stored under ``key`` and the canonical JSON text
        of each of its top-level fields named in ``texts_of``, or
        ``None`` for a missing entry or one not in canonical form."""
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                return _canonical_fields(fh.read(), texts_of)
        except (OSError, json.JSONDecodeError, StopIteration,
                UnicodeDecodeError, RecursionError):
            return None

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        text = canonical_json(payload)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{key}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _files(self, pattern: str) -> list[Path]:
        """Files matching ``pattern`` in any namespace's or old shard."""
        return sorted(path for shards in (f"{_NAMESPACE}/??", "??")
                      for path in self.root.glob(f"{shards}/{pattern}"))

    def stats(self) -> CacheStats:
        entries = self._files("*.json")
        current = sum(p.parent.parent == self.namespace for p in entries)
        return CacheStats(
            root=str(self.root), entries=current,
            stale_entries=len(entries) - current,
            total_bytes=sum(p.stat().st_size for p in entries))

    def clear(self) -> int:
        """Delete every entry, stale ones too, and any temp file a killed
        writer left behind; returns how many entries were removed."""
        entries = self._files("*.json")
        for path in [*entries, *self._files("*.tmp")]:
            path.unlink(missing_ok=True)
        for sub in [*self.root.glob(f"{_NAMESPACE}/??"),
                    *self.root.glob("??"), *self.root.glob(_NAMESPACE)]:
            try:
                sub.rmdir()
            except OSError:
                pass
        return len(entries)
