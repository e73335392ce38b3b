"""Span tracer installed from outside the library.

Wraps ratosc's public functions at the module attributes where their
callers resolve them, records one span per call (name, start, end,
parent, task) in memory, and counts calls and accumulated time for the
functions called 10^4-10^5 times per pass, where a span per call would
cost more than the call.  A span's self time is its duration minus the
time covered by its child spans and by the counted calls made inside it.

Span names follow the layer -- module -- of the function; per-layer
metrics are named ``<module>.<function>.<quantity>``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _rows_points(args, kwargs, result):
    ks = args[2] if len(args) > 2 else kwargs["ks"]
    x = args[3] if len(args) > 3 else kwargs["x"]
    return {"row_points": len(ks) * np.size(x)}


def _phi_point_orders(args, kwargs, result):
    rows, x = args[0], args[1]
    return {"point_orders": np.size(x) * max(rows, default=0)}


# (module, attribute, span name, measure of the call or None)
SPANS = [
    ("ratosc.system", "phi_rows", "specfun.phi_rows", _phi_point_orders),
    ("ratosc.system", "mod_hermite", "specfun.mod_hermite", None),
    *[(mod, "signed_series", "specfun.signed_series",
       lambda a, k, r: {"terms": r.terms})
      for mod in ("ratosc.specfun", "ratosc.coherent", "ratosc.observables")],
    ("ratosc.observables", "panel_nodes", "specfun.panel_nodes",
     lambda a, k, r: {"nodes": len(r[0])}),
    *[(mod, "wavefunction_rows", "system.wavefunction_rows", _rows_points)
      for mod in ("ratosc.system", "ratosc.coherent", "ratosc.observables")],
    *[(mod, "coefficients", "coherent.coefficients", lambda a, k, r: {"K_sum": r.K})
      for mod in ("ratosc.coherent", "ratosc.observables")],
    ("ratosc.coherent", "density_profile", "coherent.density_profile", None),
    ("ratosc.coherent", "overlap", "coherent.overlap", None),
    ("ratosc.coherent", "overlap_closed_form", "coherent.overlap", None),
    ("ratosc.observables", "wigner_grid", "observables.wigner_grid", None),
    ("ratosc.observables", "moment_matrices", "observables.moment_matrices", None),
    ("ratosc.observables", "uncertainty", "observables.uncertainty", None),
    *[("ratosc.observables", fn, "observables.series_moments", None)
      for fn in ("energy_expectation", "number_moments", "mandel_q")],
    ("ratosc.beamsplitter", "split", "beamsplitter.split", None),
    ("ratosc.beamsplitter", "two_photon_distribution",
     "beamsplitter.two_photon_distribution", None),
    ("ratosc.beamsplitter", "linear_entropy", "beamsplitter.linear_entropy",
     lambda a, k, r: {"K_sum": a[0].K}),
    ("ratosc.cli", "main", "cli.main", None),
]

# hermite_phi is looked up on ratosc.specfun at call time
COUNTED = [
    ("ratosc.specfun", "hermite_phi", "specfun.hermite_phi"),
    ("ratosc.coherent", "ladder_element", "system.ladder_element"),
]


class Tracer:
    """Collects spans and counters of one pass.  ``enabled`` gates the
    wrappers, so checks can run through the same functions untraced."""

    def __init__(self):
        self.enabled = False
        self.task = None
        self.spans: list[tuple] = []          # (name, start, end, parent, task, self_s)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []          # [span index, start, covered]

    def install(self) -> None:
        originals: dict[int, object] = {}
        for module, attr, name, measure in SPANS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            key = id(fn)
            if key not in originals:
                originals[key] = self._span(name, fn, measure)
            setattr(mod, attr, originals[key])
        for module, attr, name in COUNTED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._counted(name, getattr(mod, attr)))

    def _span(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[index] = (name, frame[1], end, parent, self.task,
                                     duration - frame[2])
            if measure is not None:
                for quantity, value in measure(args, kwargs, result).items():
                    self.counters[f"{name}.{quantity}"] += value
            return result
        return wrapper

    def _counted(self, name, fn):
        calls, self_s = f"{name}.calls", f"{name}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.counters[calls] += 1
                self.counters[self_s] += duration
                if self._stack:
                    self._stack[-1][2] += duration
        return wrapper

    def layer_totals(self) -> dict[str, float]:
        """Calls and self time per span name, plus the counters."""
        totals: dict[str, float] = defaultdict(float, self.counters)
        for name, _, _, _, _, self_s in self.spans:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += self_s
        return dict(totals)

    def task_inclusive(self) -> dict[str, dict[str, float]]:
        """Per task, the inclusive time of each span name, counting only
        spans with no ancestor of the same name."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, task, _ in self.spans:
            outer = parent
            while outer is not None and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer is None:
                out[task][name] += end - start
        return {task: dict(names) for task, names in out.items()}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "task", "self_s"],
                       "spans": self.spans}, handle)
