"""Run CI's workload table: check every row, then gate and report once.

    python tools/ci.py

A row of ``.github/workloads.txt`` is a name, a check and a command
(``runner``, ``observatory`` or ``pytest``, then its arguments).
:func:`steps` expands it into the commands its check runs, each in a
new process from the checkout root; ``tools/reach.py`` traces the same
expansion.  The checks:

- ``ok``: the command exits 0 (``ok:N``: and runs N points).
- ``twice``: a cold run, then a warm run in a new process (the cache
  fingerprint is per process) on the same fresh ``--cache``: all hits,
  and the cold run's ``--json`` bytes.
- ``recording`` (``recording:P``: point P): its stdout goes to
  ``flightrec summarize``, ``slo`` (informational) and ``timeline``.
- ``ledger:SUITE``: an uncached ``observatory record`` of series NAME,
  or ``pytest`` under ``REPRO_HISTORY_DIR``, appends to the checkout's
  ``BENCH_SUITE.json``.

Then one ``observatory gate`` holds every ledger to its committed
baseline, naming the row of each failing series, and one ``observatory
report`` writes the dashboard.  Outputs land in ``ci-out/``, emptied
first.  Exits 1 after naming each failed row.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / ".github" / "workloads.txt"


class Row(NamedTuple):
    name: str
    check: str          # ok, twice, recording or ledger
    arg: str            # what follows ``check:``, else ""
    argv: list[str]     # the CLI, then its arguments


class Step(NamedTuple):
    """One command a row runs."""
    argv: list[str]                       # the CLI, then its arguments
    out: Path | None = None               # a file for its stdout
    env: tuple[tuple[str, str], ...] = ()
    gates: bool = True                    # a nonzero exit fails the row


def rows() -> list[Row]:
    table = []
    for line in TABLE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, check, *argv = shlex.split(line)
            kind, _, arg = check.partition(":")
            table.append(Row(name, kind, arg, argv))
    return table


def steps(row: Row, out: Path, history: Path) -> list[Step]:
    """The commands ``row`` runs: its own, with what its check adds,
    then the check's readers.  Files land in ``out``; ledgers append
    under ``history``."""
    if row.check == "ok":
        return [Step(row.argv)]
    if row.check == "twice":
        argv = [*row.argv, "--cache", str(out / f"{row.name}-cache")]
        return [Step(argv, out / f"{row.name}-{run}.json")
                for run in ("cold", "warm")]
    if row.check == "recording":
        recording = out / f"{row.name}.json"
        read = [str(recording), *(["--point", row.arg] if row.arg else [])]
        html = out / f"flightrec-{row.name}.html"
        return [Step(row.argv, recording),
                Step(["flightrec", "summarize", *read]),
                Step(["flightrec", "slo", *read], gates=False),
                Step(["flightrec", "timeline", *read, "--out", str(html)])]
    if row.check == "ledger" and row.argv[0] == "pytest":
        return [Step(row.argv, env=(("REPRO_HISTORY_DIR", str(history)),
                                    ("REPRO_BENCH_SUITE", row.arg)))]
    if row.check == "ledger":
        return [Step([*row.argv, "--benchmark", row.name, "--suite",
                      row.arg, "--history", str(history), "--no-cache",
                      "--quiet"])]
    raise ValueError(f"row {row.name}: unknown check {row.check!r}")


def finale(out: Path, history: Path) -> list[Step]:
    """The gate over every ledger, then the dashboard."""
    return [Step(["observatory", "gate", "--history", str(history)]),
            Step(["observatory", "report", "--history", str(history),
                  "--out", str(out / "observatory.html")])]


def run(step: Step, env: dict[str, str]) -> subprocess.CompletedProcess:
    print(f"$ {shlex.join(step.argv)}", flush=True)
    cli, *argv = step.argv
    module = "pytest" if cli == "pytest" else f"repro.{cli}"
    done = subprocess.run([sys.executable, "-m", module, *argv], cwd=ROOT,
                          env={**env, **dict(step.env)},
                          capture_output=True)
    if step.out:
        step.out.write_bytes(done.stdout)
    log = done.stderr if step.out else done.stdout + done.stderr
    print(log.decode(), end="", flush=True)
    return done


def check(row: Row, done: list[tuple[Step, subprocess.CompletedProcess]]
          ) -> list[str]:
    """What went wrong with one row's steps."""
    exits = [f"`{shlex.join(step.argv)}` exited {proc.returncode}"
             for step, proc in done if step.gates and proc.returncode]
    if exits:
        return exits
    if row.check == "ok" and row.arg and \
            f"\n{row.arg} point(s)," not in done[0][1].stdout.decode():
        return [f"did not run {row.arg} point(s)"]
    if row.check != "twice":
        return []
    (_, cold), (_, warm) = done
    finished = re.search(rb"(\d+) point\(s\) in .*\((\d+) cache hit\(s\)\)",
                         warm.stderr)
    problems = []
    if not finished or finished[1] != finished[2]:
        problems.append("the warm run was not all cache hits")
    if warm.stdout != cold.stdout:
        problems.append("the warm run's --json differs from the cold run's")
    return problems


def gate(proc: subprocess.CompletedProcess, table: list[Row],
         history: Path) -> list[str]:
    """What the gate failed on, each finding named by the row whose
    series it is (a ``pytest`` row owns every series of its suite)."""
    # imported here: reach imports this module before its trace starts,
    # and what src/ runs at import would not be seen to run
    from repro.observatory import HistoryStore
    from repro.observatory.regression import compare_store
    if proc.returncode != 1:
        return [f"gate: exited {proc.returncode}"] if proc.returncode else []
    owners = {(row.arg, None if row.argv[0] == "pytest" else row.name):
              row.name for row in table if row.check == "ledger"}
    failures = []
    for f in compare_store(HistoryStore(history)).regressions():
        owner = owners.get((f.suite, f.benchmark),
                           owners.get((f.suite, None), f.suite))
        failures.append(f"{owner}: gate: {f.verdict} {f.benchmark} "
                        f"[{f.point}] {f.metric} {f.baseline} -> "
                        f"{f.current}")
    return failures


def main() -> int:
    out = ROOT / "ci-out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    env = {**os.environ, "REPRO_CACHE_DIR": str(out / ".repro-cache"),
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    table = rows()
    failures = []
    for row in table:
        done = [(step, run(step, env)) for step in steps(row, out, ROOT)]
        failures += [f"{row.name}: {problem}"
                     for problem in check(row, done)]
    gate_step, report_step = finale(out, ROOT)
    failures += gate(run(gate_step, env), table, ROOT)
    if run(report_step, env).returncode:
        failures.append("report: `observatory report` failed")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"ci: {len(table)} row(s), {len(failures)} failure(s)",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
