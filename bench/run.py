"""Benchmark runner for ratosc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  The runner draws the workload's
inputs from the seed, asserts that they stay in the intended regime, then
starts one fresh worker process per pass (bench/worker.py), one at a
time, until S seconds are used up (at least MIN_PASSES passes).  A fresh
process per pass keeps the in-process moment-matrix cache cold, as it is
for every CLI call, and lets each pass measure its own set-up time.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json (processor times, from medians over
the passes; the wall-clock times are printed above it); with
--trace 1 the runner alternates untraced and traced passes and reports the
per-layer metrics instead.  Earlier lines summarise the machine, the task
times and the failure count; the full record and the spans of every traced
pass are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = {0: 2, 1: 1}
# every run must end within 180 s; no pass starts once it could end later
HARD_LIMIT_S = 165.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a few shared virtual CPUs a threaded BLAS call waits
# for its slowest thread, so every stall of another CPU shows in the task.
BLAS_THREADS = 1


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def load_library(root: Path) -> None:
    """Import ratosc from the checkout's src directory, and only from there."""
    src = root / "src"
    if not (src / "ratosc" / "__init__.py").is_file():
        raise BenchError(f"no ratosc sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import ratosc

    if not Path(ratosc.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"ratosc was imported from {ratosc.__file__}, not from {src}")


def machine_info(threads: int) -> dict:
    import numpy as np

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_set": threads,
    }


def run_pass(root: Path, out_dir: Path, args, mode: int, index: int,
             env: dict, deadline: float) -> dict:
    """Start one worker, wait for it, and return its record with set-up
    and pass times added."""
    result_path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}-p{index}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(mode), "--result", str(result_path)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish before the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr}")
    record = json.loads(result_path.read_text())
    result_path.unlink()
    record["setup_wall_s"] = record["first_task_monotonic"] - spawned
    record["pass_s"] = time.monotonic() - spawned
    shutil.rmtree(out_dir / f"{result_path.stem}-files", ignore_errors=True)
    return record


def task_medians(passes: list[dict], clock: str = "cpu_s") -> list[float]:
    """Median time of each task over the passes, in task-list order, on the
    processor clock ("cpu_s") or the wall clock ("seconds")."""
    return [statistics.median(p["tasks"][i][clock] for p in passes)
            for i in range(len(passes[0]["tasks"]))]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    # Times are processor seconds of the single-threaded worker: on a shared
    # virtual machine the wall clock also counts the time the host runs
    # other guests, which drifts by tens of percent over minutes.  Each
    # task's median over the run is taken before summing or taking the
    # largest, so one disturbed pass moves no metric.
    med = statistics.median
    tasks = task_medians(passes)
    return {
        "pass_cpu_s": sum(tasks),
        "slowest_task_cpu_s": max(tasks),
        "setup_s": med(p["setup_cpu_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def wall_clock(passes: list[dict]) -> dict[str, float]:
    """The end-to-end times on the wall clock, printed for reference."""
    tasks = task_medians(passes, "seconds")
    return {
        "pass_wall_s": sum(tasks),
        "slowest_task_wall_s": max(tasks),
        "setup_wall_s": statistics.median(p["setup_wall_s"] for p in passes),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    med = statistics.median
    names = set().union(*(p["layers"] for p in traced))
    out = {name: med(p["layers"].get(name, 0.0) for p in traced) for name in names}
    hits = med(p["moment_cache"]["hits"] for p in traced)
    lookups = med(p["moment_cache"]["hits"] + p["moment_cache"]["misses"] for p in traced)
    out["observables.moment_cache.lookups"] = lookups
    out["observables.moment_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["cli.bytes_written"] = med(p["cli_bytes"] for p in traced)
    out["trace.overhead_frac"] = sum(task_medians(traced)) / sum(task_medians(untraced)) - 1.0
    return out


def stop_on_sigterm(signum, frame):
    # subprocess.run kills and waits for its worker when an exception
    # interrupts it, so a terminated run leaves no worker behind
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    root = Path.cwd()
    try:
        spec_path = root / "BENCHMARK.json"
        if not spec_path.is_file():
            raise BenchError("BENCHMARK.json not found; run from the root of a checkout")
        spec = json.loads(spec_path.read_text())
        load_library(root)
        import workloads
        from tracer import COUNTED, SPANS

        # workloads.py may define workloads that BENCHMARK.json does not
        # list; they run by hand only (bench/NOTES.md says why)
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose one of {list(workloads.WORKLOADS)}")
        tasks = workloads.make_inputs(args.workload, args.seed)
        try:
            workloads.check_domain(tasks)
        except ValueError as exc:
            raise BenchError(f"seed {args.seed} leaves the intended regime: {exc}") from None

        known = ({name for _, _, name, _ in SPANS} | {name for _, _, name in COUNTED}
                 | {"observables.moment_cache", "cli", "trace"})
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        for metric in wanted:
            if args.trace and metric["name"].rsplit(".", 1)[0] not in known:
                raise BenchError(f"per-layer metric {metric['name']} has no source in the tracer")

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)

        deadline = started + args.seconds
        hard_deadline = started + HARD_LIMIT_S
        modes = (0, 1) if args.trace else (0,)
        passes: dict[int, list[dict]] = {mode: [] for mode in modes}
        index = 0
        while True:
            mode = modes[index % len(modes)]
            passes[mode].append(run_pass(root, out_dir, args, mode, index, env, hard_deadline))
            index += 1
            next_mode = modes[index % len(modes)]
            estimate = statistics.median(p["pass_s"] for p in passes[next_mode] or passes[mode])
            enough = all(len(passes[m]) >= MIN_PASSES[args.trace] for m in modes)
            now = time.monotonic()
            if now + estimate > hard_deadline or (enough and now + estimate > deadline):
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    every = [p for mode in modes for p in passes[mode]]
    attempted = sum(len(p["tasks"]) for p in every)
    failed = sum(1 for p in every for t in p["tasks"] if t["error"])
    for p in every:
        if not Path(p["ratosc"]).resolve().is_relative_to((root / "src").resolve()):
            print(f"error: a worker imported ratosc from {p['ratosc']}", file=sys.stderr)
            return 2

    untraced = passes[0]
    e2e = end_to_end(untraced)
    if args.trace:
        values = per_layer(passes[1], untraced)
    else:
        values = e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    machine = machine_info(BLAS_THREADS)
    machine["blas_threads_reported"] = every[0].get("blas_threads")
    print("machine: " + json.dumps(machine))
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(passes.get(1, []))} traced passes in {time.monotonic() - started:.1f} s")
    for task, cpu_s, wall_s in zip(tasks, task_medians(untraced),
                                   task_medians(untraced, "seconds")):
        print(f"  task {task['name']:<26} median {cpu_s:.4f} s processor, "
              f"{wall_s:.4f} s wall over {len(untraced)} passes")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("end-to-end: " + ", ".join(f"{k} = {v:.6g} {units[k]}" for k, v in e2e.items())
          + f", failed_frac = {failed / attempted:.6g} ({failed}/{attempted} tasks)")
    wall = wall_clock(untraced)
    print("wall clock: " + ", ".join(f"{k} = {v:.6g} s" for k, v in wall.items()))
    for p in every:
        for t in p["tasks"]:
            if t["error"]:
                print(f"  FAILED {t['name']} (seed {args.seed}):\n{t['error']}")
    if args.trace:
        for task, spans in passes[1][0]["task_inclusive"].items():
            inner = ", ".join(f"{name} {sec:.4f} s" for name, sec in sorted(spans.items()))
            print(f"  traced {task}: {inner}")

    record = {"workload": args.workload, "why": why.get(args.workload), "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine,
              "metrics": metrics,
              "end_to_end": e2e, "wall_clock": wall, "attempted": attempted, "failed": failed,
              "passes": passes}
    (out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
