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
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.runner.spec import stable_hash

DEFAULT_CACHE_DIR = ".repro-cache"


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
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                RecursionError):
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        # dumps, not dump: only the one-shot form reaches the C encoder
        # (json.dump streams through the pure-Python one, same bytes)
        text = json.dumps(payload, sort_keys=True)
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

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

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
