"""The append-only suite history: one JSONL file per suite.

``BENCH_<suite>.json`` holds one canonical-JSON line per
:class:`~repro.observatory.record.BenchRecord`, appended in arrival
order and never rewritten — the bench trajectory is a ledger, not a
cache.  Appends are O(1) (open-append-close with an ``fsync``-free
line write; records are small), loads are tolerant (a torn final line
from a killed run reads as absent, matching the result cache's
corrupt-entry policy), and ``seq`` numbers records within their suite
so plots have a monotone x-axis even when timestamps collide.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import ReproError
from repro.observatory.record import BenchRecord
from repro.records import RecordError
from repro.runner.spec import canonical_json

HISTORY_PREFIX = "BENCH_"
HISTORY_SUFFIX = ".json"

_SUITE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class HistoryError(ReproError):
    """A history file or suite name is unusable."""


def history_filename(suite: str) -> str:
    """``"core"`` -> ``"BENCH_core.json"`` (validating the name)."""
    if not _SUITE_RE.match(suite):
        raise HistoryError(
            f"invalid suite name {suite!r}: use letters, digits, "
            "dot, dash, underscore")
    return f"{HISTORY_PREFIX}{suite}{HISTORY_SUFFIX}"


def suite_of_filename(name: str) -> Optional[str]:
    """Inverse of :func:`history_filename`; None for non-history files."""
    if not (name.startswith(HISTORY_PREFIX)
            and name.endswith(HISTORY_SUFFIX)):
        return None
    suite = name[len(HISTORY_PREFIX):-len(HISTORY_SUFFIX)]
    return suite if _SUITE_RE.match(suite) else None


class HistoryStore:
    """All suite histories under one directory (default: the repo root)."""

    def __init__(self, root: str | Path = "."):
        self.root = Path(root)

    def path(self, suite: str) -> Path:
        return self.root / history_filename(suite)

    def suites(self) -> list[str]:
        """Every suite with a history file, sorted."""
        if not self.root.is_dir():
            return []
        found = (suite_of_filename(p.name)
                 for p in self.root.glob(f"{HISTORY_PREFIX}*{HISTORY_SUFFIX}"))
        return sorted(s for s in found if s)

    # -- writing -----------------------------------------------------

    def append(self, record: BenchRecord) -> BenchRecord:
        """Append one record to its suite's ledger, assigning ``seq``.

        Returns the record (mutated with its assigned sequence number).
        """
        path = self.path(record.suite)
        self.root.mkdir(parents=True, exist_ok=True)
        record.seq = self._count_lines(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(canonical_json(record.to_dict()) + "\n")
        return record

    @staticmethod
    def _count_lines(path: Path) -> int:
        try:
            with open(path, "rb") as fh:
                return sum(1 for _ in fh)
        except OSError:
            return 0

    # -- reading -----------------------------------------------------

    def iter_records(self, suite: str) -> Iterator[BenchRecord]:
        """Records in append order; malformed lines are skipped."""
        path = self.path(suite)
        try:
            fh = open(path, encoding="utf-8")
        except OSError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield BenchRecord.from_dict(json.loads(line))
                except (json.JSONDecodeError, RecordError):
                    continue

    def load(self, suite: str) -> list[BenchRecord]:
        return list(self.iter_records(suite))

    def series(self, suite: str
               ) -> dict[tuple[str, str], list[BenchRecord]]:
        """Suite records grouped into longitudinal series, each in
        append order, keyed by ``(benchmark, point)``."""
        grouped: dict[tuple[str, str], list[BenchRecord]] = {}
        for record in self.iter_records(suite):
            grouped.setdefault(record.series_key(), []).append(record)
        return dict(sorted(grouped.items()))

    def __len__(self) -> int:
        return sum(len(self.load(s)) for s in self.suites())
