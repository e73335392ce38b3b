"""One pass over a workload's task list, in a fresh process.

Started by run.py, which records the monotonic time just before it starts
this process; the pass reports the monotonic time at which its first task
starts, and the processor time the process has used by then, so both
clocks give the set-up time a CLI user pays: interpreter start,
``import ratosc`` and building the inputs.  Each task is timed on both
clocks too.  The tasks run as a closed loop with one caller, each starting
when the previous one returns; their outputs are checked only after the
last one, untimed and untraced.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --result PATH
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import ratosc
from ratosc import observables

import workloads
from tracer import Tracer


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    out_dir = args.result.parent / f"{args.result.stem}-files"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    tasks = workloads.make_inputs(args.workload, args.seed)
    runnable = [(task["name"], *workloads.build(task, out_dir)) for task in tasks]

    first_start = time.monotonic()
    setup_cpu = time.process_time()
    records, outputs = [], []
    for name, run, _ in runnable:
        tracer.task, tracer.enabled = name, bool(args.trace)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            outputs.append(run())
            error = None
        except Exception:  # a failing task is counted, the pass goes on
            outputs.append(None)
            error = traceback.format_exc(limit=3)
        finally:
            seconds = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            tracer.enabled = False
        records.append({"name": name, "seconds": seconds, "cpu_s": cpu_s, "error": error})
    wall = time.monotonic() - first_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache = observables._cached_matrices.cache_info()

    for record, output, (_, _, check) in zip(records, outputs, runnable):
        if record["error"] is None:
            try:
                check(output)
            except Exception:
                record["error"] = traceback.format_exc(limit=3)

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ratosc": ratosc.__file__,
        "first_task_monotonic": first_start,
        "setup_cpu_s": setup_cpu,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "tasks": records,
        "moment_cache": {"hits": cache.hits, "misses": cache.misses},
        "cli_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
        "blas_threads": blas_threads(),
    }
    if args.trace:
        result["layers"] = tracer.layer_totals()
        result["task_inclusive"] = tracer.task_inclusive()
        tracer.dump(args.result.with_suffix(".spans.json"))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
