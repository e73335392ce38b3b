"""The library names and CLI options the benchmark uses must keep resolving.

bench/tracer.py patches module attributes by name; a renamed or removed
function would leave its hook dangling and only fail a traced run.
bench/workloads.py builds the argv of its CLI tasks and calls the library
with the arguments of its statistics tasks; a refused option or a changed
signature would only fail a benchmark run.  Both files are loaded here by
path; the tracer is never installed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "ratosc"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    hooks = [entry[:2] for entry in tracer.SPANS] + [entry[:2] for entry in tracer.COUNTED]
    assert len(hooks) >= 26
    missing = [(module, attr) for module, attr in hooks
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    observables = importlib.import_module("ratosc.observables")
    assert callable(observables._cached_matrices.cache_info)


def test_every_tracer_only_import_names_a_hook():
    # an import kept only for the tracer to wrap must name a hook on its
    # module, so that a hook dropped from the tracer fails here instead of
    # leaving the import behind
    tracer = _load("tracer")
    hooks = {entry[:2] for entry in tracer.SPANS} | {entry[:2] for entry in tracer.COUNTED}
    marked = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom):
                marked += [(f"ratosc.{path.stem}", alias.name) for alias in node.names
                           if "bench/tracer.py wraps this name" in lines[alias.lineno - 1]]
    assert marked
    assert [hook for hook in marked if hook not in hooks] == []


def test_every_benchmark_cli_argv_parses():
    from ratosc import cli

    workloads = _load("workloads")
    tasks = [task for name in workloads.WORKLOADS for task in workloads.make_inputs(name, 1)
             if task["kind"] == "cli"]
    assert len(tasks) >= 5
    for task in tasks:
        argv = workloads._cli_argv(task, Path("out.csv"))
        assert cli._build_parser().parse_args(argv).command == task["command"], argv


def test_every_statistics_task_kind_runs(tmp_path):
    # one task of each kind (each command of the CLI kind), on the two ends
    # of its |z| list, through the benchmark's own domain check, build,
    # run and output check
    workloads = _load("workloads")
    tasks = {}
    for task in workloads.make_inputs("statistics", 1):
        tasks.setdefault((task["kind"], task.get("command")), task)
    assert {kind for kind, _ in tasks} == {"energy", "mandel", "overlap", "entropy", "cli"}
    for task in tasks.values():
        if "abs_zs" in task:
            task["abs_zs"] = [task["abs_zs"][0], task["abs_zs"][-1]]
        if "z_abs" in task:
            task["z_abs"][2] = 2
    workloads.check_domain(list(tasks.values()))
    for task in tasks.values():
        run, check = workloads.build(task, tmp_path)
        check(run())


def test_every_large_support_task_kind_runs(tmp_path):
    # one task of each kind, the smallest of its kind, through the
    # benchmark's own domain check, build, run and output check (the
    # density check integrates each row to 1)
    workloads = _load("workloads")
    tasks = {}
    for task in workloads.make_inputs("large_support", 1):
        tasks.setdefault(task["kind"], task)
    assert set(tasks) == {"density", "uncertainty"}
    workloads.check_domain(list(tasks.values()))
    for task in tasks.values():
        run, check = workloads.build(task, tmp_path)
        check(run())
