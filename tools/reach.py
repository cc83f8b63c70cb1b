"""Reach from the workloads: every ``src/`` def and class must be run by
a fixed workload set, or be allowlisted with a reason.

    PYTHONPATH=src:. python tools/reach.py

One process installs a ``sys.settrace`` hook that notes each code
object it sees called and returns ``None`` (no line tracing), then runs:

- every row of CI's workload table (``.github/workloads.txt``), as
  ``tools/ci.py`` expands it, checks ignored: in process, through each
  CLI's ``main(argv)``, once at ``--workers 1`` and then the pooled runs
  as written, so the parent's pool path is traced (pool workers run
  untraced); its ``core`` row is ``pytest benchmarks``, whose test
  outcomes are ignored;
- perfbench's six workloads at divisor 20, plain and under
  ``perfbench.shims.installed``;
- the six examples;
- the default spec of ``batching``, ``proportionality``, ``svc_fleet``,
  ``chaos_frontier`` and ``svc_policies``.

A def is reached when its code ran.  A class is reached when one of its
own defs ran, when a generated dataclass ``__init__`` or NamedTuple
``__new__`` built one (or a subclass), or, for an exception type, when
``src/`` raises or catches it by name.  A class that owns no def and is
none of those (an enum, a ``Protocol``, a marker subclass) is reached
when code that ran loads its name.  Kernels generated from source
text call real defs, so the trace sees those calls too.

It exits 1, naming each ``path::qualname``, on a def or class nothing
ran that is not in ``ALLOWED``, on an ``ALLOWED`` entry that ran, and
on one that no longer exists.  Each ``ALLOWED`` reason starts with one
of ``KINDS``.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import os
import runpy
import shlex
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from types import CodeType
from typing import Callable, Iterator

from tools import ci

ROOT = Path(__file__).resolve().parents[1]

#: the closed set of reasons a def may stay unreached
KINDS = ("fixture", "oracle", "error path", "input-reachable",
         "perfbench")

# the reasons, one per shared cause
_PLANNED = ("input-reachable: the planner enumerates and costs it; a plan "
            "it wins (or a spec that asks for it) runs it")
_EXPLAIN = ("input-reachable: explain() and operator descriptions print "
            "it for a plan holding this node")
_DSL = ("input-reachable: the expression DSL's operator; a query that "
        "writes it builds one")
_Q14 = "fixture: TPC-H Q14's promo-revenue CASE over LIKE 'PROMO%'"
_ABSTRACT = "error path: a subclass that does not implement it"
_GATE_JSON = "input-reachable: `observatory gate --json` prints it"
_TREE = "oracle: the B+-tree tests check the tree's shape through it"
_ROUND_TRIP = ("oracle: the runner's JSON tests hold to_json() to it and "
               "decode it back")
_SRC = "src/repro/"

ALLOWED: dict[str, str] = {_SRC + path: reason for path, reason in {
    "service/experiments.py::MegaCalibrationReport.to_dict":
        "input-reachable: `runner run svc_mega_calibration` caches the "
        "report through it",
    "flightrec/slo.py::SLOMonitor.to_dict":
        "input-reachable: `flightrec slo --json` prints it",
    "flightrec/slo.py::TenantSLO.to_dict":
        "input-reachable: `flightrec slo --json` prints it",
    "hardware/device.py::Device.power_watts":
        "input-reachable: EnergyMeter.average_power_watts over a "
        "zero-length interval reads instantaneous power",
    "sim/tracing.py::TimeSeries.value_at":
        "input-reachable: Device.power_watts reads it",
    "hardware/disk.py::HardDisk.state":
        "fixture: the spin-down tests observe a disk's power state "
        "through it",
    "hardware/raid.py::RaidArray.write":
        "input-reachable: a sort that spills writes its runs through it",
    "hardware/ssd.py::FlashSsd.read_batch":
        "input-reachable: random I/O (an index scan) against an SSD "
        "array fans out to it",
    "observatory/regression.py::RegressionFinding.delta": _GATE_JSON,
    "observatory/regression.py::RegressionFinding.delta_pct":
        "input-reachable: the gate's table row of a non-ok finding "
        "prints it",
    "observatory/regression.py::RegressionFinding.to_dict": _GATE_JSON,
    "observatory/regression.py::RegressionReport.to_dict": _GATE_JSON,
    "optimizer/cost.py::CostModel._limit": _PLANNED,
    "optimizer/objective.py::WeightedObjective":
        "input-reachable: the planner takes one as its objective",
    "optimizer/objective.py::WeightedObjective.__post_init__":
        "input-reachable: the planner takes one as its objective",
    "optimizer/objective.py::WeightedObjective.score":
        "input-reachable: the planner takes one as its objective",
    "optimizer/planner.py::Planner._join_candidates.<locals>.index_nlj":
        "input-reachable: a join on an indexed inner key enumerates it",
    "records.py::_shape_error":
        "error path: a payload of the wrong shape",
    "relational/expr.py::Arithmetic.__repr__": _EXPLAIN,
    "relational/expr.py::Between.__repr__": _EXPLAIN,
    "relational/expr.py::BoolOp.__repr__": _EXPLAIN,
    "relational/expr.py::InList.__repr__": _EXPLAIN,
    "relational/expr.py::Case": _Q14,
    "relational/expr.py::Case.__init__": _Q14,
    "relational/expr.py::Case.__repr__": _Q14,
    "relational/expr.py::Case.columns": _Q14,
    "relational/expr.py::Case.cycles": _Q14,
    "relational/expr.py::Case.evaluate": _Q14,
    "relational/expr.py::Like": _Q14,
    "relational/expr.py::Like.__init__": _Q14,
    "relational/expr.py::Like.__repr__": _Q14,
    "relational/expr.py::Like.columns": _Q14,
    "relational/expr.py::Like.cycles": _Q14,
    "relational/expr.py::Like.evaluate": _Q14,
    "relational/expr.py::Expr.__bool__":
        "error path: `and` / `or` / `not` on a predicate",
    "relational/expr.py::Expr.evaluate": _ABSTRACT,
    "relational/expr.py::Expr.cycles": _ABSTRACT,
    "relational/expr.py::Expr.columns": _ABSTRACT,
    "relational/expr.py::Expr.__invert__": _DSL,
    "relational/expr.py::Expr.__ne__": _DSL,
    "relational/expr.py::Expr.__or__": _DSL,
    "relational/expr.py::Expr.__sub__": _DSL,
    "relational/expr.py::Expr.__truediv__": _DSL,
    "relational/operators/aggregate.py::SortedAggregate.describe": _EXPLAIN,
    "relational/operators/aggregate.py::SortedAggregate.execute": _PLANNED,
    "relational/operators/base.py::CostCollector.total_cpu_cycles":
        "oracle: the totals the cost-model and energy-conservation "
        "tests compare against",
    "relational/operators/base.py::CostCollector.total_io_bytes":
        "oracle: the totals the cost-model and energy-conservation "
        "tests compare against",
    "relational/operators/base.py::Operator.execute": _ABSTRACT,
    "relational/operators/exchange.py::Exchange.children": _EXPLAIN,
    "relational/operators/exchange.py::Exchange.describe": _EXPLAIN,
    "relational/operators/index.py::IndexNestedLoopJoin.children": _EXPLAIN,
    "relational/operators/index.py::IndexNestedLoopJoin.describe": _EXPLAIN,
    "relational/operators/join.py::BlockNestedLoopJoin.children": _EXPLAIN,
    "relational/operators/join.py::BlockNestedLoopJoin.describe": _EXPLAIN,
    "relational/operators/join.py::BlockNestedLoopJoin.execute": _PLANNED,
    "relational/operators/join.py::SortMergeJoin.children": _EXPLAIN,
    "relational/operators/join.py::SortMergeJoin.execute": _PLANNED,
    "relational/operators/limit.py::Limit": _PLANNED,
    "relational/operators/limit.py::Limit.__init__": _PLANNED,
    "relational/operators/limit.py::Limit.children": _EXPLAIN,
    "relational/operators/limit.py::Limit.describe": _EXPLAIN,
    "relational/operators/limit.py::Limit.execute": _PLANNED,
    "relational/operators/sort.py::Sort.children": _EXPLAIN,
    "relational/operators/sort.py::Sort.describe": _EXPLAIN,
    "relational/schema.py::TableSchema._decode_with_nulls":
        "input-reachable: a row holding a NULL",
    "relational/schema.py::TableSchema.validate_row":
        "input-reachable: a batch holding a NULL or a bad value is "
        "validated row by row",
    "relational/types.py::DataType.validate":
        "input-reachable: TableSchema.validate_row calls it",
    "relational/schema.py::TableSchema.encode_row":
        "oracle: the row-codec property tests round-trip rows through it",
    "storage/heap.py::HeapFile.insert":
        "oracle: the row-at-a-time load the bulk-load property test "
        "holds insert_many to",
    "storage/column.py::ColumnFile.append":
        "oracle: the row-at-a-time load the bulk-load property test "
        "holds append_many to",
    "storage/manager.py::StorageManager.tables":
        "oracle: the read-set tests check which tables a load created",
    "storage/btree.py::BPlusTree.__len__": _TREE,
    "storage/btree.py::BPlusTree.leaf_count": _TREE,
    "storage/btree.py::BPlusTree.validate": _TREE,
    "storage/btree.py::BPlusTree._validate": _TREE,
    "storage/btree.py::BPlusTree._leftmost_leaf":
        "input-reachable: a range scan with an open low end",
    "storage/btree.py::BPlusTree._split_interior":
        "input-reachable: an index big enough to split an interior node",
    "storage/buffer.py::BufferPool.__len__":
        "oracle: the buffer property test bounds residency by capacity",
    "storage/compression.py::Codec.encode": _ABSTRACT,
    "storage/compression.py::Codec._decode": _ABSTRACT,
    "storage/compression.py::RleCodec._decode":
        "input-reachable: a scan of a column stored with codecs={...: "
        "'rle'}",
    "runner/cache.py::ResultCache.clear":
        "input-reachable: `runner cache clear`",
    "runner/cache.py::ResultCache.get":
        "perfbench: perfbench/shims.py wraps it",
    "runner/runner.py::PointResult.recording":
        "oracle: the runner and observer tests read a point's recording "
        "through it",
    "runner/runner.py::PointResult.to_dict": _ROUND_TRIP,
    "runner/runner.py::RunResult.to_dict": _ROUND_TRIP,
    "runner/runner.py::RunResult.from_dict": _ROUND_TRIP,
    "service/dispatch.py::DispatchContext.marginal_cost_rate":
        "oracle: the class-ranking rate the packing-router oracle "
        "re-derives PowerAwarePacking.route from",
    "service/dispatch.py::DispatchPolicy.frequency":
        "input-reachable: a policy that declares dvfs and keeps the "
        "unthrottled default",
    "service/dispatch.py::DispatchPolicy.route":
        "error path: a policy that implements no route()",
    "service/dispatch.py::DispatchPolicy.releases":
        "error path: a batching policy that implements no releases()",
    "service/qed.py::QEDPolicy.route":
        "input-reachable: engine='loop' serving a QED policy",
    "service/qed.py::QEDPolicy.admits":
        "input-reachable: engine='loop' serving a QED policy",
    "service/qed.py::QEDPolicy.frequency":
        "input-reachable: engine='loop' serving a QED policy",
    "sim/events.py::Event.fail":
        "error path: a process that raises, or a failed child event",
    "telemetry/spans.py::SpanStack.current":
        "input-reachable: SpanStack.open without a parent nests under it",
    "telemetry/trace.py::SpanNode.active_total_joules":
        "input-reachable: `runner trace --active`",
    "telemetry/trace.py::TelemetryTrace.active_total_joules":
        "input-reachable: `runner trace --active`",
    "telemetry/trace.py::TelemetryTrace.active_totals":
        "oracle: the totals the energy-conservation tests compare against",
    "workloads/tpch_queries.py::q14":
        "fixture: TPC-H plan builders the operator and oracle tests run",
    "workloads/tpch_queries.py::q3_spec":
        "fixture: TPC-H plan builders the operator and oracle tests run",
    "workloads/tpch_queries.py::q5_spec":
        "fixture: TPC-H plan builders the operator and oracle tests run",
    "workloads/tpch_queries.py::q10_spec":
        "fixture: TPC-H plan builders the operator and oracle tests run",
}.items()}


# -- what src/ defines ------------------------------------------------


@dataclass(frozen=True)
class Site:
    """One def or class: where it is and what its code object reports
    as ``co_firstlineno`` (a decorator's line when it has one)."""

    path: str
    qualname: str
    first: int
    is_class: bool = False
    #: a class's own defs, by ``first`` line
    methods: tuple[int, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"


def _first_line(node: ast.AST) -> int:
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _own_defs(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """The defs a class body holds, looking into ``if`` / ``try``
    blocks but not into nested defs or classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif not isinstance(node, ast.ClassDef):
            yield from _own_defs([child for child in ast.iter_child_nodes(node)
                                  if isinstance(child, ast.stmt)])


def _sites(tree: ast.Module, path: str) -> Iterator[Site]:
    def visit(node: ast.AST, prefix: str) -> Iterator[Site]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                yield Site(path, qualname, _first_line(child))
                yield from visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                qualname = prefix + child.name
                yield Site(path, qualname, _first_line(child), True,
                           tuple(_first_line(d)
                                 for d in _own_defs(child.body)))
                yield from visit(child, qualname + ".")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def inventory(root: Path) -> list[Site]:
    """Every def and class under ``root / "src"``."""
    return [site for path in sorted((root / "src").rglob("*.py"))
            for site in _sites(ast.parse(path.read_text()),
                               path.relative_to(root).as_posix())]


def handled_names(root: Path) -> set[str]:
    """Names ``src/`` raises (``raise X`` / ``raise X(...)``) or catches
    (``except X`` / ``except (X, Y)``)."""
    def names(node: ast.AST | None) -> Iterator[str]:
        if isinstance(node, ast.Call):
            yield from names(node.func)
        elif isinstance(node, ast.Tuple):
            for element in node.elts:
                yield from names(element)
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr

    found: set[str] = set()
    for path in (root / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                found.update(names(node.exc))
            elif isinstance(node, ast.ExceptHandler):
                found.update(names(node.type))
    return found


# -- the trace --------------------------------------------------------


@dataclass
class Trace:
    """What ran while the hook was installed: the code object of every
    def called, by ``(file, first line)``, and every class a generated
    dataclass ``__init__`` or NamedTuple ``__new__`` built."""

    calls: dict[tuple[str, int], CodeType] = field(default_factory=dict)
    built: set[type] = field(default_factory=set)

    def hook(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename == "<string>":
            self._generated(frame)
        else:
            self.calls.setdefault((code.co_filename, code.co_firstlineno),
                                  code)
        return None

    def _generated(self, frame) -> None:
        # a NamedTuple's __new__ is an eval'd lambda of (_cls, *fields)
        code = frame.f_code
        if not code.co_argcount:
            return
        first = code.co_varnames[0]
        if code.co_name == "__init__":
            self.built.add(type(frame.f_locals[first]))
        elif first == "_cls":
            self.built.add(frame.f_locals[first])

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        previous = sys.gettrace()
        threading.settrace(self.hook)
        sys.settrace(self.hook)
        try:
            yield
        finally:
            sys.settrace(previous)
            threading.settrace(previous)


def _built_sites(built: set[type], root: Path) -> set[tuple[str, str]]:
    """``(path, qualname)`` of every ``src/`` class in the MRO of a
    built class."""
    src = (root / "src").resolve()
    out = set()
    for cls in built:
        for klass in cls.__mro__:
            module = sys.modules.get(klass.__module__)
            filename = getattr(module, "__file__", None)
            if filename and Path(filename).resolve().is_relative_to(src):
                path = Path(filename).resolve().relative_to(root.resolve())
                out.add((path.as_posix(), klass.__qualname__))
    return out


def _class_of(site: Site) -> type | None:
    """The imported class a site names (None if its module is not
    imported, or it is local to a function)."""
    module_name = site.path.removeprefix("src/").removesuffix(
        ".py").replace("/", ".").removesuffix(".__init__")
    obj = sys.modules.get(module_name)
    for part in site.qualname.split("."):
        obj = getattr(obj, part, None)
    return obj if isinstance(obj, type) else None


def _class_reached(site: Site, ran: set[tuple[str, int]],
                   built: set[tuple[str, str]], raised: set[str],
                   loaded: set[str]) -> bool:
    if any((site.path, line) in ran for line in site.methods):
        return True
    if (site.path, site.qualname) in built:
        return True
    cls = _class_of(site)
    name = site.qualname.split(".")[-1]
    if cls is None:
        return False
    if issubclass(cls, BaseException):
        return name in raised
    # an enum, a Protocol or a marker subclass: no def of its own can
    # run and no generated constructor builds it, so code that ran must
    # load its name
    return (not site.methods and not dataclasses.is_dataclass(cls)
            and not hasattr(cls, "_fields") and name in loaded)


def unreached(root: Path, trace: Trace) -> list[Site]:
    """The defs and classes under ``root / "src"`` the trace never saw
    run."""
    resolved: dict[str, str] = {}
    ran: set[tuple[str, int]] = set()
    base = root.resolve()
    for filename, line in trace.calls:
        if filename not in resolved:
            path = Path(filename).resolve()
            resolved[filename] = (path.relative_to(base).as_posix()
                                  if path.is_relative_to(base) else "")
        ran.add((resolved[filename], line))
    built = _built_sites(trace.built, root)
    raised = handled_names(root)
    loaded = {name for code in trace.calls.values()
              for name in code.co_names}
    return [site for site in inventory(root)
            if not (_class_reached(site, ran, built, raised, loaded)
                    if site.is_class else (site.path, site.first) in ran)]


def verdict(root: Path, trace: Trace,
            allowed: dict[str, str]) -> list[str]:
    """One line per failure; empty when every unreached site is
    allowlisted and every allowlisted one is unreached."""
    missed = {site.name for site in unreached(root, trace)}
    known = {site.name for site in inventory(root)}
    lines = [f"unreached: {name}" for name in sorted(missed - set(allowed))]
    lines += [f"allowlisted but reached: {name}"
              for name in sorted(set(allowed) & known - missed)]
    lines += [f"allowlisted but gone: {name}"
              for name in sorted(set(allowed) - known)]
    return lines


# -- the workloads ----------------------------------------------------


@contextlib.contextmanager
def _stdout_to(path: Path) -> Iterator[None]:
    """Point ``sys.stdout`` at a real file (the CLIs may re-point the
    descriptor on a broken pipe)."""
    with open(path, "w") as out, contextlib.redirect_stdout(out):
        yield


def _run(argv: list[str], out: Path) -> None:
    """One command in process, through its CLI's ``main(argv)``."""
    cli, *args = argv
    main = (__import__("pytest").main if cli == "pytest" else
            __import__(f"repro.{cli}.cli", fromlist=["main"]).main)
    with _stdout_to(out):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    print(f"  rc={code}  {shlex.join(argv)}", file=sys.stderr)


DEFAULT_SPECS = ("batching", "proportionality", "svc_fleet",
                 "chaos_frontier", "svc_policies")


def _serial(argv: list[str]) -> list[str]:
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return out


def ci_passes(work: Path) -> list[tuple[Path, list[ci.Step]]]:
    """CI's table as reach runs it, each pass in its own directory:
    every step at ``--workers 1``, then the steps that ask for a pool as
    written.  Ledgers append under ``work / "history"``."""
    def plan(out: Path) -> list[ci.Step]:
        return [*(step for row in ci.rows()
                  for step in ci.steps(row, out, work / "history")),
                *ci.finale(out, work / "history")]

    serial, pooled = work / "serial", work / "pooled"
    return [(serial, [step._replace(argv=_serial(step.argv))
                      for step in plan(serial)]),
            (pooled, [step for step in plan(pooled)
                      if "--workers" in step.argv])]


def ci_table(work: Path) -> None:
    """CI's workload table, from the checkout root as CI runs it; the
    benchmarks' pool is serial too."""
    os.environ["REPRO_BENCH_WORKERS"] = "1"
    (work / "history").mkdir()
    for ledger in ROOT.glob("BENCH_*.json"):
        shutil.copy(ledger, work / "history")
    os.chdir(ROOT)
    for out, plan in ci_passes(work):
        out.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(out / ".repro-cache")
        for step in plan:
            os.environ.update(step.env)
            _run(step.argv, step.out or out / "step.out")


def perfbench_workloads(work: Path) -> None:
    """perfbench's six workloads at divisor 20, plain and shimmed."""
    from perfbench import shims
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, Job
    for name, workload in WORKLOADS.items():
        for traced in (False, True):
            job = Job(seed=0, divisor=20, tracer=Tracer(name, 0),
                      scratch=work,
                      counts=shims.Counts() if traced else None)
            with (shims.installed(job.tracer, job.counts) if traced
                  else contextlib.nullcontext()):
                workload.run(job)
        print(f"  perfbench {name}", file=sys.stderr)


def examples(work: Path) -> None:
    os.chdir(work)
    for script in sorted((ROOT / "examples").glob("*.py")):
        with _stdout_to(work / f"{script.stem}.out"):
            runpy.run_path(str(script), run_name="__main__")
        print(f"  example {script.name}", file=sys.stderr)


def default_specs(work: Path) -> None:
    os.chdir(work)
    for experiment in DEFAULT_SPECS:
        _run(["runner", "run", experiment, "--no-cache", "--quiet"],
             work / f"{experiment}.out")


WORKLOADS: dict[str, Callable[[Path], None]] = {
    "ci": ci_table, "perfbench": perfbench_workloads,
    "examples": examples, "default-specs": default_specs,
}


def _untrace() -> None:
    sys.settrace(None)
    threading.settrace(None)


def trace_workloads() -> Trace:
    """Run every workload under one trace, each in a fresh scratch
    directory and on a fresh ``REPRO_CACHE_DIR``."""
    trace = Trace()
    os.register_at_fork(after_in_child=_untrace)
    home, environ = os.getcwd(), dict(os.environ)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        for name, workload in WORKLOADS.items():
            work = Path(scratch, name)
            work.mkdir()
            os.environ["REPRO_CACHE_DIR"] = str(work / ".repro-cache")
            print(f"{name}:", file=sys.stderr)
            try:
                with trace.installed():
                    workload(work)
            finally:
                os.chdir(home)
                os.environ.clear()
                os.environ.update(environ)
    return trace


def main() -> int:
    failures = verdict(ROOT, trace_workloads(), ALLOWED)
    for line in failures:
        print(line)
    print(f"reach: {len(failures)} failure(s), {len(ALLOWED)} allowlisted",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
