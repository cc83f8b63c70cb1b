"""Content-addressed on-disk cache of completed sweep points.

Keys are SHA-256 digests over (package version, experiment name,
fully-resolved point knobs, point seed); values are the exact payload
the worker produced (typed report dict + simulated seconds/Joules).
A repeated benchmark or CI run therefore skips every point it has
already simulated, and a version bump invalidates everything without
touching the store.

Layout: ``<root>/<first two hex chars>/<digest>.json``, written
atomically (a writer-unique tmp file + rename) so neither a killed run
nor two writers of one key ever leave a corrupt entry behind;
unreadable entries degrade to cache misses.

An entry's text is the payload's canonical JSON (the form
:func:`~repro.runner.spec.stable_hash` hashes), so :meth:`ResultCache.read`
can hand back a field's stored text alongside its value and a later
serialization splices that text in instead of encoding the value again.
Entries written with ``json.dump``'s default separators still read,
as values only.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from json.decoder import scanstring
from pathlib import Path
from typing import Any, Collection, Mapping, Optional

from repro.runner.spec import canonical_json, stable_hash

DEFAULT_CACHE_DIR = ".repro-cache"

_scan_value = json.JSONDecoder().scan_once


def _canonical_fields(text: str, keep: Collection[str]
                      ) -> Optional[tuple[dict[str, Any], dict[str, str]]]:
    """The object a canonical-JSON ``text`` encodes, plus the text of
    each top-level field named in ``keep``; ``None`` when the top level
    is not an object in canonical form (whitespace between tokens, or
    anything after the closing brace).  One pass of json's C scanner
    yields both each value and where its text ends."""
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


def _package_version() -> str:
    import repro
    return repro.__version__


def point_key(experiment: str, knobs: Mapping[str, Any], seed: int,
              version: str | None = None,
              observe: tuple[str, ...] = ()) -> str:
    """The cache identity of one sweep point.

    Observed points live under distinct keys, one per set of observer
    kinds (their payloads carry the observations); the unobserved key
    is unchanged from before observers existed, so existing caches
    stay valid.
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
    total_bytes: int


class ResultCache:
    """A dictionary of point payloads, persisted under ``root``."""

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict[str, Any]]:
        entry = self.read(key)
        return None if entry is None else entry[0]

    def read(self, key: str, texts_of: Collection[str] = ()
             ) -> Optional[tuple[dict[str, Any], dict[str, str]]]:
        """The payload stored under ``key`` and the canonical JSON text
        of each of its top-level fields named in ``texts_of``, or
        ``None`` for a missing or unreadable entry.  An entry not in
        canonical form decodes as ever and carries no texts."""
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                text = fh.read()
            try:
                entry = _canonical_fields(text, texts_of)
            except (json.JSONDecodeError, StopIteration):
                entry = None
            if entry is None:
                entry = json.loads(text), {}
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                RecursionError):
            return None
        return entry if isinstance(entry[0], dict) else None

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

    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def stats(self) -> CacheStats:
        entries = self._entries()
        return CacheStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=sum(p.stat().st_size for p in entries))

    def clear(self) -> int:
        """Delete every entry, and any temp file a killed writer left
        behind; returns how many entries were removed."""
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        for stale in self.root.glob("??/*.tmp"):
            stale.unlink(missing_ok=True)
        for sub in self.root.glob("??"):
            try:
                sub.rmdir()
            except OSError:
                pass
        return removed
