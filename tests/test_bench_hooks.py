"""The library names and CLI options the benchmark uses must keep resolving.

bench/tracer.py patches module attributes by name; a renamed or removed
function would leave its hook dangling and only fail a traced run.
bench/workloads.py builds the argv of its CLI tasks; a refused option
would only fail a benchmark run.  Both files are loaded here by path; the
tracer is never installed.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def test_every_benchmark_cli_argv_parses():
    from ratosc import cli

    workloads = _load("workloads")
    tasks = [task for name in workloads.WORKLOADS for task in workloads.make_inputs(name, 1)
             if task["kind"] == "cli"]
    assert len(tasks) >= 5
    for task in tasks:
        argv = workloads._cli_argv(task, Path("out.csv"))
        assert cli._build_parser().parse_args(argv).command == task["command"], argv
