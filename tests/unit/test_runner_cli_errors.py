"""Runner CLI error paths and pipe hygiene.

Every failure mode must exit nonzero with a single ``error:`` line on
stderr — never a traceback — and every subcommand must exit cleanly
when its stdout pipe closes early (``... | head``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import cli, get_experiment

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _one_line_error(capsys):
    err = capsys.readouterr().err
    lines = [ln for ln in err.strip().splitlines() if ln]
    assert len(lines) == 1, f"expected one error line, got:\n{err}"
    assert lines[0].startswith("error: ")
    assert "Traceback" not in err
    return lines[0]


class TestErrorPaths:
    def test_unknown_experiment_is_one_line(self, capsys):
        assert cli.main(["run", "definitely-not-registered"]) == 2
        line = _one_line_error(capsys)
        assert "definitely-not-registered" in line

    def test_unknown_experiment_in_trace_too(self, capsys):
        assert cli.main(["trace", "definitely-not-registered"]) == 2
        _one_line_error(capsys)

    def test_bad_knob_value_is_one_line(self, capsys):
        assert cli.main(["run", "fig1", "--quiet", "--no-cache",
                         "--disks", "bogus"]) == 2
        line = _one_line_error(capsys)
        assert "fig1" in line and "bogus" in line

    def test_unknown_knob_name_is_one_line(self, capsys):
        assert cli.main(["run", "fig1", "--quiet", "--no-cache",
                         "--not-a-knob", "1"]) == 2
        line = _one_line_error(capsys)
        assert "not_a_knob" in line

    def test_tiny_autoscaler_epoch_is_one_line_and_quick(self):
        """An epoch that would step the autoscaler ~10^303 times is
        refused before serving, not left to spin."""
        done = subprocess.run(
            [sys.executable, "-m", "repro.runner", "run", "svc_smoke",
             "--policy", "power_aware", "--queries", "2000",
             "--epoch-seconds", "1e-300", "--no-cache", "--quiet"],
            env={**os.environ, "PYTHONPATH": REPO_SRC},
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "smallest epoch_seconds it accepts" in lines[0]

    def test_negative_seed_is_one_line(self, capsys, tmp_path):
        cache = tmp_path / "c"
        assert cli.main(["run", "svc_smoke", "--queries", "100",
                         "--seed", "-1", "--cache", str(cache)]) == 2
        line = _one_line_error(capsys)
        assert "seed" in line and "-1" in line
        assert not cache.exists()

    def test_knob_missing_value_is_one_line(self, capsys):
        assert cli.main(["run", "fig1", "--quiet", "--no-cache",
                         "--disks"]) == 2
        _one_line_error(capsys)

    def test_codec_on_uncompressed_scan_is_one_line(self, capsys):
        # a codec the uncompressed layout would never apply is an
        # error, not a silent no-op
        assert cli.main(["run", "scan", "--no-cache", "--quiet",
                         "--compressed", "false", "--codec", "delta"]) == 2
        assert "codec" in _one_line_error(capsys)

    def test_compressed_that_is_not_a_bool_is_one_line(self, capsys):
        # "no" parses as a string, which is truthy: it must not run
        # the compressed scan
        assert cli.main(["run", "scan", "--no-cache", "--quiet",
                         "--compressed", "no"]) == 2
        assert "knob compressed must be bool" in _one_line_error(capsys)

    @pytest.mark.parametrize("argv, knob, want", [
        # a bool for an int knob used to serve a 1-node fleet
        (["svc_smoke", "--nodes", "true"], "nodes", "int"),
        (["svc_smoke", "--nodes", "8,false"], "nodes", "int"),
        (["svc_smoke", "--queries", "2000.5"], "queries", "int"),
        (["svc_smoke", "--load", "true"], "load", "float"),
        (["svc_smoke", "--policy", "round_robin,3"], "policy", "str"),
        (["scan", "--scale-factor", "nan"], "scale_factor", "float"),
        (["scan", "--compressed", "1"], "compressed", "bool"),
        # knobs with no signature default take their declared type: a
        # float disk count used to run (and cache) a point of its own
        (["fig2", "--compressed", "no"], "compressed", "bool"),
        (["fig2", "--compressed", "1"], "compressed", "bool"),
        (["fig1", "--disks", "36.0"], "disks", "int"),
        (["fig1", "--disks", "true"], "disks", "int"),
        (["proportionality", "--utilization", "true"], "utilization",
         "float"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_knob_of_the_wrong_type_is_one_line(self, capsys, argv, knob,
                                                want):
        assert cli.main(["run", *argv, "--no-cache", "--quiet"]) == 2
        assert f"{knob} must be {want}, got " in _one_line_error(capsys)

    @pytest.mark.parametrize("experiment, knobs", [
        # the suite table's chaos rows pass an int for a float default
        ("chaos_smoke", {"timeout_rate_per_node_hour": 5}),
        ("svc_smoke", {"load": [1, 2.5], "nodes": 8}),
        ("scan", {"codec": "delta", "compressed": True}),  # None default
        ("fig1", {"disks": [36, 66]}),              # declared, no default
        ("proportionality", {"utilization": [0, 0.5]}),
    ])
    def test_knob_of_the_right_type_passes(self, experiment, knobs):
        get_experiment(experiment).validate_knobs(knobs)

    def test_cache_clear_missing_dir_is_one_line(self, capsys,
                                                 tmp_path):
        missing = tmp_path / "never-created"
        assert cli.main(["cache", "clear",
                         "--cache", str(missing)]) == 2
        line = _one_line_error(capsys)
        assert str(missing) in line

    def test_cache_clear_existing_dir_still_works(self, capsys,
                                                  tmp_path):
        tmp_path.mkdir(exist_ok=True)
        assert cli.main(["cache", "clear", "--cache",
                         str(tmp_path)]) == 0
        assert "removed 0" in capsys.readouterr().out


class TestCacheStatsJson:
    def test_json_output_is_machine_readable(self, capsys, tmp_path):
        assert cli.main(["cache", "stats", "--json",
                         "--cache", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"root": str(tmp_path), "entries": 0,
                         "stale_entries": 0, "total_bytes": 0}

    def test_json_counts_entries(self, capsys, tmp_path):
        from repro.runner import ResultCache
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"payload": 1})
        assert cli.main(["cache", "stats", "--json",
                         "--cache", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0

    def test_reads_the_runs_cache_dir(self, capsys, tmp_path,
                                      monkeypatch):
        """Without ``--cache``, ``cache stats`` reads the store a plain
        ``run`` writes: ``$REPRO_CACHE_DIR`` when it is set."""
        from repro.runner import ResultCache
        ResultCache(tmp_path).put("ab" + "0" * 62, {"payload": 1})
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cli.main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["root"], stats["entries"]) == (str(tmp_path), 1)

    def test_plain_output_unchanged(self, capsys, tmp_path):
        assert cli.main(["cache", "stats",
                         "--cache", str(tmp_path)]) == 0
        assert "cache root" in capsys.readouterr().out


class _ClosedPipe:
    """A stdout whose consumer has gone away: every write raises."""

    def __init__(self):
        self._null = open(os.devnull, "w", encoding="utf-8")

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._null.fileno()

    def close(self):
        self._null.close()


class TestBrokenPipe:
    @pytest.fixture()
    def closed_stdout(self, monkeypatch):
        fake = _ClosedPipe()
        monkeypatch.setattr(sys, "stdout", fake)
        yield fake
        fake.close()

    def test_list_survives_closed_pipe(self, closed_stdout):
        assert cli.main(["list"]) == 0

    def test_cache_stats_survives_closed_pipe(self, closed_stdout,
                                              tmp_path):
        assert cli.main(["cache", "stats",
                         "--cache", str(tmp_path)]) == 0

    def test_cache_stats_json_survives_closed_pipe(self, closed_stdout,
                                                   tmp_path):
        assert cli.main(["cache", "stats", "--json",
                         "--cache", str(tmp_path)]) == 0

    def test_run_survives_closed_pipe(self, closed_stdout, tmp_path):
        assert cli.main(["run", "proportionality", "--quiet",
                         "--cache", str(tmp_path / "c"),
                         "--utilization", "0.5",
                         "--window_seconds", "5.0"]) == 0

    @pytest.mark.parametrize("argv", [
        "list",
        "cache stats",
    ])
    def test_real_pipeline_to_head(self, argv):
        """End to end through a real OS pipe: `... | head -n 1`."""
        shell = (f"{sys.executable} -m repro.runner {argv} 2>/dev/null"
                 " | head -n 1")
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        proc = subprocess.run(["bash", "-o", "pipefail", "-c", shell],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
