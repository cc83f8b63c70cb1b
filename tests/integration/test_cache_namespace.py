"""The result cache answers for the code that filled it: entries live in
a namespace named by the source fingerprint, so a source change is a
miss, ``stats`` counts every other entry as stale, ``clear`` removes
them all, and pool workers write into the parent's namespace."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro
from repro.runner import ExperimentSpec, ResultCache, Runner, point_key
from repro.runner import cache as cache_module

PACKAGE = Path(repro.__file__).parent
FIG2 = ["run", "fig2", "--scale-factor", "0.001", "--quiet"]


def _fig2(src, cache):
    """Figure 2 run by the package under ``src``: each point's
    (Joules, source) as the run table prints them.  No bytecode is
    written, so an edit within the second still runs."""
    out = subprocess.run(
        [sys.executable, "-m", "repro.runner", *FIG2, "--cache", str(cache)],
        env={**os.environ, "PYTHONPATH": str(src),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True).stdout
    return [tuple(row.split()[-2:]) for row in out.splitlines()
            if row.startswith(("0 ", "1 "))]


def test_a_source_change_is_a_miss(tmp_path):
    """Half the Figure 2 CPU's active watts, and the cached Joules of
    the code before the edit must not be served."""
    src = tmp_path / "src"
    shutil.copytree(PACKAGE, src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    profiles = src / "repro" / "hardware" / "profiles.py"
    before = profiles.read_text(encoding="utf-8")
    cache = tmp_path / "c"

    cold = _fig2(src, cache)
    assert [source for _, source in cold] == ["run", "run"]
    assert _fig2(src, cache) == [(j, "hit") for j, _ in cold]

    profiles.write_text(before.replace("FIG2_CPU_ACTIVE_WATTS = 90.0",
                                       "FIG2_CPU_ACTIVE_WATTS = 45.0"),
                        encoding="utf-8")
    edited = _fig2(src, cache)
    assert [source for _, source in edited] == ["run", "run"]
    assert all(float(e) < float(c) for (e, _), (c, _) in zip(edited, cold))

    profiles.write_text(before, encoding="utf-8")
    assert _fig2(src, cache) == [(j, "hit") for j, _ in cold]


def test_stats_and_clear_cover_every_namespace(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = point_key("fig2", {"compressed": False}, 2009)
    cache.put(key, {"ok": True})
    other = cache.root / ("0" * 12) / key[:2] / f"{key}.json"
    unspaced = cache.root / key[:2] / f"{key}.json"
    for path in (other, unspaced):
        path.parent.mkdir(parents=True)
        path.write_text('{"stale":true}', encoding="utf-8")
        path.with_name(f"{key}.0123abcd.tmp").write_text("{")

    stats = cache.stats()
    assert (stats.entries, stats.stale_entries) == (1, 2)
    assert stats.total_bytes == sum(
        p.stat().st_size for p in (cache._path(key), other, unspaced))
    # another namespace's entry, or one laid out before namespaces, is
    # never read
    assert cache.get(key) == {"ok": True}
    shutil.rmtree(cache.namespace)
    assert cache.get(key) is None

    cache.put(key, {"ok": True})
    assert cache.clear() == 3
    assert list(cache.root.iterdir()) == []
    assert cache.stats() == cache_module.CacheStats(
        str(cache.root), 0, 0, 0)


def test_pool_workers_write_the_parents_namespace(tmp_path, monkeypatch):
    """A worker takes the namespace with the pickled cache: it never
    hashes the source again, so it cannot land anywhere else."""
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "_source_fingerprint",
                      lambda: "f" * 64)
        cache = ResultCache(tmp_path / "c")
    assert cache.namespace == cache.root / ("f" * 12)
    spec = ExperimentSpec("proportionality", knobs={
        "utilization": [0.25, 0.5, 0.75, 1.0], "window_seconds": 10.0})
    run = Runner(workers=2, cache=cache).run(spec)
    assert run.cache_hits == 0
    entries = cache._files("*.json")
    assert len(entries) == 4
    assert {p.parent.parent for p in entries} == {cache.namespace}
    assert cache.stats().stale_entries == 0


def test_stats_and_clear_leave_what_is_not_the_caches(tmp_path):
    """A root shared with other files (``--cache .``): only directories
    named like a namespace or a shard are the cache's."""
    cache = ResultCache(tmp_path)
    cache.put("a" * 64, {"ok": True})
    foreign = tmp_path / "docs" / "ab" / "notes.json"
    foreign.parent.mkdir(parents=True)
    foreign.write_text("{}", encoding="utf-8")
    (tmp_path / "empty").mkdir()

    assert (cache.stats().entries, cache.stats().stale_entries) == (1, 0)
    assert cache.clear() == 1
    assert foreign.exists() and (tmp_path / "empty").is_dir()
    assert not cache.namespace.exists()
