"""The library names the benchmark tracer wraps must keep resolving.

bench/tracer.py patches module attributes by name; a renamed or removed
function would leave its hook dangling and only fail a traced run.  The
tracer is loaded here from its file and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    hooks = [entry[:2] for entry in tracer.SPANS] + [entry[:2] for entry in tracer.COUNTED]
    assert len(hooks) >= 26
    missing = [(module, attr) for module, attr in hooks
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    observables = importlib.import_module("ratosc.observables")
    assert callable(observables._cached_matrices.cache_info)
