"""Seeded inputs, task lists, domain assertions and output checks.

A workload is a fixed list of tasks taken from the paper's diagnostics,
the README commands and the acceptance criteria.  The seed only draws the
phase of z, a small relative jitter of |z| and small offsets of the grids;
every seed keeps every task on the side of the library's regime boundaries
that the workload is meant to exercise, and ``check_domain`` asserts it.

Tasks are plain dicts so that the runner can generate and check them in
one process and the worker can rebuild the same list from the seed in a
fresh one.  ``build`` turns a task into a (run, check) pair; ``run`` calls
the public API of ratosc through module attributes, so the tracer's
wrappers see every call, and ``check`` applies the tolerance the test
suite states for the same quantity.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

# BENCHMARK.json lists large_support and statistics.  phase_space, the
# Wigner grids, runs by hand only: its memory-bound work took up to twice
# the processor time when the shared host was busy, so its runs spread
# wider than any bound the benchmark may set.
WORKLOADS = ("phase_space", "large_support", "statistics")

# phi_rows refuses |x| >= 37; past it wavefunction_rows evaluates the
# scalar hermite_phi once per point and per row.
X_LINE = 37.0
# uncertainty() rounds the coefficient truncation up to a multiple of 8
# (capped at 60) before building moment matrices; K = 40 is the first
# rounded size whose quadrature grid crosses X_LINE for m = 6, mu = -7.
MOMENT_ROUND = 8
MOMENT_CAP = 60
# documented domain of the library
MAX_ORDER = 12
MAX_STATE_INDEX = 10_000

# tolerances stated by the acceptance suite
DUAL_ROUTE_TOL = 1e-8        # criterion 2: closed form vs direct
OVERLAP_FLOOR = 1e-12        # criterion 2: absolute floor of the overlap
MARGINAL_TOL = 1e-5          # criterion 8a: Wigner marginal vs density
NORM_TOL = 1e-6              # criterion 6: trapezoid norm of a density row
UNCERTAINTY_FLOOR = 0.5 - 1e-9   # criterion 9
ENTROPY_TOL = 1e-9           # criterion 11: linearized linear entropy


class CheckFailed(Exception):
    """A task's output missed the tolerance its acceptance criterion states."""


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> list[dict]:
    """The workload's task list with inputs drawn from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    theta = rng.uniform(0.0, 2.0 * math.pi)

    def z_at(abs_z: float) -> list[float]:
        return [abs_z * math.cos(theta), abs_z * math.sin(theta)]

    def jitter(value: float, rel: float) -> float:
        return value * (1.0 + rng.uniform(-rel, rel))

    return {"phase_space": _phase_space,
            "large_support": _large_support,
            "statistics": _statistics}[workload](rng, z_at, jitter)


def _phase_space(rng, z_at, jitter) -> list[dict]:
    # wigner_grid extends the truncation to ten rungs only for |z| <= 10,
    # so the jitter of the criterion-8 |z| = 10 only ever shrinks it
    abs_z = 10.0 * (1.0 - rng.uniform(0.0, 1e-3))
    dx, dp = rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)
    tasks = [{"name": f"wigner_mu{mu}", "kind": "wigner", "x_side": "inside",
              "m": 6, "mu": mu, "z": z_at(abs_z),
              "window": [[-8.0 + dx, 8.0 + dx], [-22.0 + dp, 22.0 + dp]],
              "resolution": [161, 441]}
             for mu in (-7, 1, 6)]
    tasks.append({"name": "cli_wigner", "kind": "cli", "command": "wigner",
                  "x_side": "inside", "m": 6, "mu": 1, "z": z_at(abs_z),
                  "window": [[-8.0 + dx, 8.0 + dx], [-8.0 + dp, 8.0 + dp]],
                  "resolution": [161, 161]})
    # criterion 9: an 11 x 11 grid of z over [-2, 2]^2, shifted and rotated
    shift = rng.uniform(-0.02, 0.02)
    axis = [-2.0 + shift + 0.4 * i for i in range(11)]
    rot = complex(*z_at(1.0))
    points = [complex(re, im) * rot for re in axis for im in axis]
    grid = [[w.real, w.imag] for w in points]
    for variant, m, mu in (("nonlinear", 4, -5), ("linearized", 6, -7)):
        tasks.append({"name": f"uncertainty_{variant}", "kind": "uncertainty",
                      "x_side": "inside", "moment_K": "<=32",
                      "variant": variant, "m": m, "mu": mu, "zs": grid})
    return tasks


def _large_support(rng, z_at, jitter) -> list[dict]:
    tasks = []
    for abs_z, side in ((2000.0, "inside"), (5000.0, "inside"), (6500.0, "outside")):
        tasks.append({"name": f"density_m2_z{abs_z:.0f}", "kind": "density",
                      "x_side": side, "m": 2, "mu": -3, "z": z_at(jitter(abs_z, 2e-3)),
                      "times": [0.0, rng.uniform(0.0, math.pi / 3.0)]})
    # criterion 6: one period of the m = 6 movie at |z| = 1e8
    period = math.pi / 7.0
    tasks.append({"name": "movie_m6_z1e8", "kind": "density", "x_side": "inside",
                  "m": 6, "mu": -7, "z": z_at(jitter(1e8, 2e-3)),
                  "times": [period * i / 281 for i in range(281)]})
    for abs_z, side, rounded in ((3.0, "inside", "<=32"), (4.0, "outside", "40")):
        tasks.append({"name": f"uncertainty_lin_z{abs_z:.0f}", "kind": "uncertainty",
                      "x_side": side, "moment_K": rounded, "variant": "linearized",
                      "m": 6, "mu": -7, "zs": [z_at(jitter(abs_z, 1e-2))]})
    return tasks


def _statistics(rng, z_at, jitter) -> list[dict]:
    tasks = []
    for m, mu, z_max in ((2, -3, 17000.0), (4, -5, 1e5), (6, -7, 1e8)):
        top = jitter(z_max, 2e-3)
        zs = [top * i / 200 for i in range(201)]
        for kind in ("energy", "mandel"):
            tasks.append({"name": f"{kind}_m{m}", "kind": kind, "x_side": None,
                          "m": m, "mu": mu, "abs_zs": zs})
    top = jitter(1e8, 2e-3)
    tasks.append({"name": "overlap_m6", "kind": "overlap", "x_side": None, "m": 6, "mu": -7,
                  "abs_zs": [top * i / 200 for i in range(201)]})
    # ROADMAP's entropy baseline: linearized m = 4 at |z| = 30, K = 622
    tasks.append({"name": "entropy_lin_z30", "kind": "entropy", "x_side": None,
                  "variant": "linearized", "m": 4, "mu": -5, "z": z_at(jitter(30.0, 1e-3))})
    for command, m, mu, z_max, count in (("mandel", 4, -5, 1e5, 201),
                                         ("overlap", 6, -7, 1e8, 201),
                                         ("entropy", 4, -5, 1e5, 101)):
        tasks.append({"name": f"cli_{command}", "kind": "cli", "command": command,
                      "x_side": None, "m": m, "mu": mu,
                      "z_abs": [0.0, jitter(z_max, 2e-3), count]})
    tasks.append({"name": "cli_beamsplitter", "kind": "cli", "command": "beamsplitter",
                  "x_side": None, "m": 4, "mu": -5, "z": z_at(jitter(1e5, 2e-3))})
    return tasks


# ---------------------------------------------------------------------------
# domain assertions
# ---------------------------------------------------------------------------

def _reach(m: int, mu: int, K: int) -> float:
    """Classical turning point sqrt(2 E) of the highest retained rung."""
    return math.sqrt(4.0 * max(mu + (m + 1) * K + m + 1, 1))


def _states(task: dict):
    """(variant, m, mu, z) of every coherent state the task builds."""
    variant = task.get("variant", "nonlinear")
    m, mu = task["m"], task["mu"]
    if "zs" in task:
        return [(variant, m, mu, complex(*z)) for z in task["zs"]]
    if "abs_zs" in task:
        return [(variant, m, mu, complex(z)) for z in task["abs_zs"]]
    if "z_abs" in task:
        lo, hi, _ = task["z_abs"]
        return [(variant, m, mu, complex(lo)), (variant, m, mu, complex(hi))]
    return [(variant, m, mu, complex(*task["z"]))]


def check_domain(tasks: list[dict]) -> None:
    """Raise ValueError unless every task is inside the documented domain
    (even m <= 12, nu <= 1e4) and on its intended side of |x| = 37 and of
    the rounded moment-matrix size."""
    from ratosc import coherent as co

    for task in tasks:
        name = task["name"]
        m = task["m"]
        if m % 2 or not 0 <= m <= MAX_ORDER:
            raise ValueError(f"{name}: m = {m} is outside the documented even m <= {MAX_ORDER}")
        extent = 0.0
        rounded = []
        for variant, m, mu, z in _states(task):
            spec = co.CoherentSpec(variant, m, mu, z)
            wigner = task["kind"] == "wigner" or task.get("command") == "wigner"
            min_index = 10 if wigner and abs(z) <= 10.0 else 0
            K = co.coefficients(spec, min_index=min_index).K
            if mu + (m + 1) * K > MAX_STATE_INDEX:
                raise ValueError(f"{name}: state index {mu + (m + 1) * K} exceeds "
                                 f"the documented nu <= {MAX_STATE_INDEX}")
            if wigner:
                # wigner_grid evaluates the amplitude at x +- y, |y| <= reach + 6
                (x_lo, x_hi), _ = task["window"]
                extent = max(extent, max(abs(x_lo), abs(x_hi)) + _reach(m, mu, K) + 6.0)
            elif task["kind"] == "density":
                extent = max(extent, float(abs(co.default_grid(spec)).max()))
            elif task["kind"] == "uncertainty":
                k_mm = min((K + MOMENT_ROUND - 1) // MOMENT_ROUND * MOMENT_ROUND, MOMENT_CAP)
                rounded.append(k_mm)
                # moment_matrices integrates over |x| <= reach + 4
                extent = max(extent, _reach(m, mu, k_mm) + 4.0)
        side = task["x_side"]
        if side == "inside" and not extent < X_LINE:
            raise ValueError(f"{name}: support {extent:.2f} reaches |x| = {X_LINE}")
        if side == "outside" and not extent > X_LINE:
            raise ValueError(f"{name}: support {extent:.2f} stays inside |x| = {X_LINE}")
        if task.get("moment_K") == "<=32" and max(rounded) > 32:
            raise ValueError(f"{name}: moment matrices at K = {max(rounded)} > 32")
        if task.get("moment_K") == "40" and set(rounded) != {40}:
            raise ValueError(f"{name}: moment matrices at K = {sorted(set(rounded))}, not 40")


# ---------------------------------------------------------------------------
# tasks and output checks
# ---------------------------------------------------------------------------

def _cli_argv(task: dict, path: Path) -> list[str]:
    """Arguments of the README command the task stands for."""
    argv = [task["command"], "--m", str(task["m"]), f"--mu={task['mu']}",
            "--output", str(path)]
    if "z" in task:
        argv += [f"--z-re={task['z'][0]!r}", f"--z-im={task['z'][1]!r}"]
    if "z_abs" in task:
        lo, hi, count = task["z_abs"]
        argv.append(f"--z-abs={lo!r}:{hi!r}:{count}")
    if "window" in task:
        (x_lo, x_hi), (p_lo, p_hi) = task["window"]
        nx, n_p = task["resolution"]
        argv += [f"--x-grid={x_lo!r}:{x_hi!r}:{nx}", f"--p-grid={p_lo!r}:{p_hi!r}:{n_p}"]
    return argv


def _data_rows(path: Path) -> int:
    with open(path) as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return len(lines) - 1  # the column header


def build(task: dict, out_dir: Path):
    """(run, check) for one task.  ``run`` returns the task's output and
    ``check`` raises CheckFailed when the output misses its tolerance."""
    import numpy as np
    from ratosc import beamsplitter as bs
    from ratosc import cli
    from ratosc import coherent as co
    from ratosc import observables as ob

    kind = task["kind"]
    m, mu = task["m"], task["mu"]
    variant = task.get("variant", "nonlinear")

    def spec_at(z) -> "co.CoherentSpec":
        return co.CoherentSpec(variant, m, mu, complex(*z) if isinstance(z, list) else z)

    if kind == "wigner":
        spec = spec_at(task["z"])

        def run():
            return ob.wigner_grid(spec, window=task["window"],
                                  resolution=tuple(task["resolution"]))

        def check(grid):
            sample = np.linspace(0, grid.x.size - 1, 5).astype(int)
            dev = float(np.max(np.abs(grid.marginal_x()[sample]
                                      - co.density(spec, grid.x[sample]))))
            if not dev < MARGINAL_TOL:
                raise CheckFailed(f"Wigner marginal deviates from the density by {dev:.2e}")
        return run, check

    if kind == "uncertainty":
        def run():
            return [ob.uncertainty(spec_at(z)).product for z in task["zs"]]

        def check(products):
            if not min(products) >= UNCERTAINTY_FLOOR:
                raise CheckFailed(f"uncertainty product {min(products)!r} below 1/2")
        return run, check

    if kind == "density":
        spec = spec_at(task["z"])

        def run():
            return co.density_profile(spec, task["times"])

        def check(result):
            x, rho = result
            dev = float(np.max(np.abs(np.trapezoid(rho, x, axis=1) - 1.0)))
            if not dev < NORM_TOL:
                raise CheckFailed(f"density norm deviates from 1 by {dev:.2e}")
        return run, check

    if kind in ("energy", "mandel"):
        specs = [spec_at(z) for z in task["abs_zs"]]
        quantity = "energy_expectation" if kind == "energy" else "mandel_q"

        def run():
            return ([getattr(ob, quantity)(s, "closed_form") for s in specs],
                    [getattr(ob, quantity)(s, "direct") for s in specs])

        def check(result):
            for s, closed, direct in zip(specs, *result):
                allowed = DUAL_ROUTE_TOL * abs(direct)
                if kind == "mandel" and s.abs_z > 0.0:
                    # criterion 2 bounds <N> and <N(N-1)> to 1e-8 relative;
                    # Q = (<N(N-1)> - <N>^2)/<N> inherits that bound
                    n1, n2 = ob.number_moments(s, "direct")
                    allowed = DUAL_ROUTE_TOL * (n2 + 2.0 * n1 * n1) / n1
                if not abs(closed - direct) <= allowed:
                    raise CheckFailed(f"{kind} closed form {closed!r} vs direct "
                                      f"{direct!r} at |z| = {s.abs_z!r}")
        return run, check

    if kind == "overlap":
        zs = task["abs_zs"]

        def run():
            return ([co.overlap(m, mu, z) for z in zs],
                    [co.overlap_closed_form(m, mu, z) for z in zs])

        def check(result):
            for z, direct, closed in zip(zs, *result):
                excess = max(abs(direct - closed) - OVERLAP_FLOOR, 0.0)
                if not excess <= DUAL_ROUTE_TOL * max(abs(direct), abs(closed), 1e-300):
                    raise CheckFailed(f"overlap {direct!r} vs closed form {closed!r} at |z| = {z!r}")
        return run, check

    if kind == "entropy":
        spec = spec_at(task["z"])

        def run():
            return bs.linear_entropy(bs.split(co.coefficients(spec)))

        def check(result):
            if not result.value < ENTROPY_TOL:
                raise CheckFailed(f"linearized linear entropy {result.value!r} >= {ENTROPY_TOL}")
        return run, check

    if kind == "cli":
        path = out_dir / f"{task['name']}.csv"
        argv = _cli_argv(task, path)

        def run():
            return cli.main(argv)

        def check(code):
            if code != 0:
                raise CheckFailed(f"ratosc {task['command']} exited with {code}")
            if task["command"] == "wigner":
                nx, n_p = task["resolution"]
                expected = nx * n_p
            elif task["command"] == "beamsplitter":
                expected = (co.coefficients(spec_at(task["z"])).K + 1) ** 2
            else:
                expected = task["z_abs"][2]
            rows = _data_rows(path)
            if rows != expected:
                raise CheckFailed(f"ratosc {task['command']} wrote {rows} rows, expected {expected}")
        return run, check

    raise ValueError(f"unknown task kind {kind!r}")
