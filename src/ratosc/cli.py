"""Command-line interface.

Every computation in the library is exposed as a subcommand that writes a
machine-readable CSV or JSON file (17-significant-digit values, metadata
header) and optionally a basic plot.  One table, ``_OPTIONS``, gives each
option's flag, parsing and default; another, ``_COMMAND_TABLE``, names
each subcommand's handler, the options it reads and any default of its
own.  A subcommand takes no other option, its header records exactly
those, and the parsed arguments are the settings its handler reads.
Exit codes: 0 success, 1 usage or validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import beamsplitter as bs
from . import coherent as co
from . import observables as ob
from . import system as sy
from .specfun import (
    NumericalError,
    SignedLog,
    _log_terms,
    _ratio_table,
    _series_limits,
    _series_stack,
    hermite_phi,
    panel_nodes,
    phi_rows,
    signed_series,
)

__all__ = ["main", "run", "UsageError"]


class UsageError(Exception):
    """Bad flags or invalid parameter combinations; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _grid(text: str) -> list:
    """A min:max:count option value as [min, max, count]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"must look like min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"bounds must be finite, got {text!r}")
    if count < 1 or hi < lo:
        raise argparse.ArgumentTypeError("needs max >= min and count >= 1")
    return [lo, hi, count]


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _number(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _times(text: str) -> list:
    return [_number(t) for t in text.split(",")]


def _format_column(values) -> list[str]:
    if all(isinstance(v, (int, np.integer)) for v in values):
        return [str(int(v)) for v in values]
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def _write_rows(config: argparse.Namespace, columns: list[str], rows, meta: dict) -> str:
    path = config.output or f"{config.command}.{config.fmt}"
    shown = (*_COMMAND_TABLE[config.command].reads, "output", "fmt", "plot")
    settings = {"command": config.command,
                **{key: getattr(config, key) for key in _OPTIONS if key in shown}}
    if config.fmt == "csv":
        lines = [f"# ratosc {__version__}"]
        for key, value in settings.items():
            lines.append(f"# {key} = {value}")
        for key, value in meta.items():
            lines.append(f"# {key} = {value}")
        lines.append(",".join(columns))
        lines.extend(map(",".join, zip(*map(_format_column, zip(*rows)))))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": settings,
            "meta": meta,
            "columns": columns,
            "data": [[float(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=1) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _pyplot():
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise UsageError("--plot requires matplotlib (install the 'plot' extra)") from None
    return plt


def _plot(plt, config: argparse.Namespace, columns, rows, path: str) -> str:
    data = np.asarray([[float(v) for v in row] for row in rows])
    fig, ax = plt.subplots()
    if config.command == "wigner":
        nx, np_count = int(config.x_grid[2]), int(config.p_grid[2])
        grid = data[:, 2].reshape(nx, np_count)
        im = ax.imshow(grid.T, origin="lower", aspect="auto",
                       extent=[config.x_grid[0], config.x_grid[1],
                               config.p_grid[0], config.p_grid[1]])
        fig.colorbar(im, ax=ax)
        ax.set_xlabel(columns[0])
        ax.set_ylabel(columns[1])
    elif config.command == "beamsplitter":
        side = int(math.isqrt(len(rows)))
        im = ax.imshow(data[:, 2].reshape(side, side), origin="lower")
        fig.colorbar(im, ax=ax)
    else:
        for j in range(1, data.shape[1]):
            ax.plot(data[:, 0], data[:, j], label=columns[j])
        ax.set_xlabel(columns[0])
        ax.legend()
    fig.savefig(path + ".png", dpi=120)
    plt.close(fig)
    return path + ".png"


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _spec(config: argparse.Namespace, z: complex | None = None) -> co.CoherentSpec:
    z = complex(config.z_re, config.z_im) if z is None else z
    return co.CoherentSpec(config.variant, config.m, config.mu, z)


def _cmd_spectrum(config: argparse.Namespace):
    if config.k < 0:
        raise UsageError(f"--k must be >= 0, got {config.k}")
    rows = []
    for mu in sy.lowest_weights(config.m):
        for k in range(config.k + 1):
            label = sy.StateLabel(config.m, mu, k)
            rows.append([mu, k, label.nu, sy.energy(label)])
    rows.sort(key=lambda r: (r[3], r[0]))
    return ["mu", "k", "nu", "energy"], rows, {}


def _cmd_potential(config: argparse.Namespace):
    x = sy._linspace(*config.x_grid)
    v = sy.potential(config.m, x)
    vh = sy.hamiltonian_potential(config.m, x)
    rows = [[xi, vi, vhi] for xi, vi, vhi in zip(x, v, vh)]
    return ["x", "potential", "hamiltonian_potential"], rows, {}


def _cmd_eigenstate(config: argparse.Namespace):
    label = sy.StateLabel(config.m, config.mu, config.k)
    x = sy._linspace(*config.x_grid)
    psi = sy._wavefunction_stack(label.m, label.mu, [label.k], x, (0, 1, 2))
    rows = np.column_stack([x] + [row[0] for row in psi]).tolist()
    return ["x", "psi", "dpsi", "d2psi"], rows, {"nu": label.nu, "energy": sy.energy(label)}


def _cmd_coeffs(config: argparse.Namespace):
    coeffs = co.coefficients(_spec(config), config.tail_tol)
    rows = [[k, coeffs.entries[k].real, coeffs.entries[k].imag,
             abs(coeffs.entries[k]) ** 2] for k in range(len(coeffs.entries))]
    meta = {"K": coeffs.K, "tail_mass": coeffs.tail_mass}
    return ["k", "re_A", "im_A", "weight"], rows, meta


def _sweep(config: argparse.Namespace, columns, values):
    """One row (|z|, *values(spec)) per point of --z-abs, spec the state at z = |z|."""
    if config.z_abs_grid[0] < 0.0:
        raise UsageError(f"--z-abs: |z| must be >= 0, got min {config.z_abs_grid[0]!r}")
    rows = [[az, *values(_spec(config, complex(az)))] for az in np.linspace(*config.z_abs_grid)]
    return ["abs_z", *columns], rows, {}


def _dual_route(quantity, name: str):
    """The |z| sweep of a statistic by its closed form and direct sum, as columns name_*."""
    return lambda config: _sweep(config, (f"{name}_closed_form", f"{name}_direct"), lambda spec: (
        quantity(spec, "closed_form"), quantity(spec, "direct", config.tail_tol)))


def _profile(config: argparse.Namespace, coeffs: co.CoefficientVector, meta: dict):
    """Density rows at --times on --x-grid, or else on the support grid."""
    x = sy._linspace(*config.x_grid) if config.x_grid else co._support_grid(coeffs)
    rho = co._profile_from_coefficients(coeffs, config.times, x)
    columns = ["x"] + [f"rho_t{i}" for i in range(len(config.times))]
    return columns, np.column_stack([x, rho.T]).tolist(), meta


def _cmd_density(config: argparse.Namespace):
    coeffs = co.coefficients(_spec(config), config.tail_tol)
    meta = {"K": coeffs.K, "tail_mass": coeffs.tail_mass, "period": math.pi / (config.m + 1)}
    return _profile(config, coeffs, meta)


def _cmd_cat(config: argparse.Namespace):
    cat = co.cat_coefficients(_spec(config), config.parity, normalize=True,
                              tail_tol=config.tail_tol)
    return _profile(config, cat, {"K": cat.K})


def _cmd_overlap(config: argparse.Namespace):
    return _sweep(config, ["overlap"], lambda spec: [co.overlap(spec.m, spec.mu, spec.abs_z)])


def _cmd_wigner(config: argparse.Namespace):
    spec = _spec(config)
    window = ((config.x_grid[0], config.x_grid[1]),
              (config.p_grid[0], config.p_grid[1]))
    resolution = (int(config.x_grid[2]), int(config.p_grid[2]))
    grid = ob.wigner_grid(spec, window=window, resolution=resolution,
                          tail_tol=config.tail_tol)
    # row-major: x outer, p inner
    rows = np.column_stack([np.repeat(grid.x, grid.p.size), np.tile(grid.p, grid.x.size),
                            grid.values.ravel()]).tolist()
    meta = {"K": grid.truncation, "min_value": grid.min_value,
            "negative_volume": grid.negative_volume, "mass": grid.mass,
            "step": grid.step, "lattice_points": grid.lattice_points,
            "change": grid.change}
    return ["x", "p", "wigner"], rows, meta


def _cmd_uncertainty(config: argparse.Namespace):
    if len(config.times) > 1:
        raise UsageError(f"uncertainty takes one time, got --times {config.times}")
    zs = [complex(re_z, im_z) for re_z in np.linspace(*config.z_re_grid)
          for im_z in np.linspace(*config.z_im_grid)]
    results = ob.uncertainties([_spec(config, z) for z in zs], config.times[0], config.tail_tol)
    rows = [[z.real, z.imag, *res] for z, res in zip(zs, results)]
    return ["re_z", "im_z", "sigma_x", "sigma_p", "product"], rows, {}


def _cmd_beamsplitter(config: argparse.Namespace):
    coeffs = co.coefficients(_spec(config), config.tail_tol)
    out = bs.split(coeffs)
    dist = bs.two_photon_distribution(out)
    n1, n2 = np.indices(dist.p.shape)  # row-major: n1 outer, n2 inner
    rows = np.column_stack([n1.ravel(), n2.ravel(), dist.p.ravel()]).tolist()
    meta = {"K": out.K, "total_mass": dist.total_mass,
            "rank_one_residual": bs.rank_one_residual(dist)}
    return ["n1", "n2", "probability"], rows, meta


def _cmd_entropy(config: argparse.Namespace):
    def values(spec):
        result = bs.linear_entropy(bs.split(co.coefficients(spec, config.tail_tol)))
        return result.value, result.error_bound

    return _sweep(config, ["linear_entropy", "error_bound"], values)


def _exact_rational_factors(m: int, t: float) -> tuple[float, float, float]:
    """R = P_{m-1}/P_m and its first two derivatives at the float t, each
    rounded once from exact rationals: P_{m-3}..P_m by the recurrence,
    P_n' = 2n P_{n-1} and the quotient rule (m >= 1)."""
    from fractions import Fraction  # selftest only; kept out of every CLI start

    p = [Fraction(0)] * 3 + [Fraction(1)]  # P_{-3}..P_0
    for j in range(m):
        p.append(2 * Fraction(t) * p[-1] + 2 * j * p[-2])
    h3, h2, h1, h0 = p[-4:]
    r = h1 / h0
    r1 = (2 * (m - 1) * h2 - 2 * m * h1 * r) / h0
    r2 = (4 * (m - 1) * (m - 2) * h3 - 4 * m * h1 * r1 - 4 * m * (m - 1) * h2 * r) / h0
    return float(r), float(r1), float(r2)


def _selftest() -> int:
    """Compact oracle-equivalence suite; prints one line per check."""
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool):
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    rng = np.random.default_rng(7)
    values = rng.uniform(-50, 50, size=(1000, 2))
    worst = 0.0
    for a, b in values:
        s = (SignedLog.from_float(a) * SignedLog.from_float(b)).to_float()
        t = (SignedLog.from_float(a) + SignedLog.from_float(b)).to_float()
        worst = max(worst, abs(s - a * b) / max(abs(a * b), 1e-300),
                    abs(t - (a + b)) / max(abs(a + b), 1e-12))
    check("signed-log arithmetic matches floats", worst < 1e-12)

    check("oscillator function normalisation",
          abs(hermite_phi(0, 0.0) - math.pi ** -0.25) < 1e-15)
    check("oscillator-function rows past the Gaussian underflow",
          abs(phi_rows([2600], [50.0])[2600][0] - hermite_phi(2600, 50.0)) < 1e-13)

    # the series with no parameters is e^x: its terms are x^k/k!; at x = -30
    # the alternating sum can only come within eps sum_k |t_k| = eps e^30
    for x in (700.0, -30.0):
        logs, signs = (a[:, 0] for a in _log_terms([((), (), x < 0.0)], math.log(abs(x)), 1000))
        exact = np.array([k * math.log(abs(x)) - math.lgamma(k + 1) for k in range(1000)])
        value = signed_series((), (), x).value
        if x > 0.0:
            sum_ok = abs(value.log_mag - x) < 1e-11
        else:
            sum_ok = abs(value.to_float() - math.exp(x)) < 16.0 * np.finfo(float).eps * math.exp(-x)
        check(f"series kernel reproduces e^x at x = {x:g}",
              float(np.max(np.abs(logs - exact) / np.maximum(np.abs(exact), 1.0))) < 1e-12
              and np.array_equal(signs, np.sign(x) ** np.arange(1000)) and sum_ok)

    # the argument-free series tables are cached per parameter set: a |z|
    # sweep through warm tables, longest first, must reproduce cold ones
    rows = [((1.0,), co.hypergeometric_parameters(2, -3), neg) for neg in (False, True)]
    log_xs = [co._log_series_argument(2, az) for az in (1e-3, 1.0, 1e2, 1e4, 1e6)]
    cold = []
    for log_x in log_xs:
        _ratio_table.cache_clear()
        _series_limits.cache_clear()
        cold.append(_series_stack(rows, log_x))
    warm = [_series_stack(rows, log_x) for log_x in reversed(log_xs)][::-1]
    check("series through warm parameter tables are bitwise the cold ones", warm == cold)

    # the closed forms sum their series as the rows of one stacked pass
    b, log_x = co.hypergeometric_parameters(4, -5), co._log_series_argument(4, 1e5)
    rows = [((k + 1.0,), tuple(bj + k for bj in b), neg) for k in (0, 1, 2) for neg in (0, 1)]
    alone = [_series_stack([row], log_x)[0] for row in rows]
    check("every row of a stacked series pass is bitwise the row alone (m=4, mu=-5, |z|=1e5)",
          _series_stack(rows, log_x) == alone)

    x = np.linspace(-46.0, 46.0, 93)  # straddles |x| = 37
    for m, mu, ks in ((2, -3, [0, 1, 300]), (6, -7, range(6))):
        stack = sy._wavefunction_stack(m, mu, ks, x, (0, 1, 2))
        single = [sy.wavefunction_rows(m, mu, ks, x, d) for d in (0, 1, 2)]
        check(f"stacked derivative rows match single-order rows (m={m}, mu={mu})",
              all(np.array_equal(a, b) for a, b in zip(stack, single)))

    # R, R' at the clip points too; there R'' cancels to 1e-18 (3.5e-10 off), its rows 0
    grid = np.concatenate([np.linspace(-40.0, 40.0, 321), [-1e6, 1e6]])
    exact = np.array([_exact_rational_factors(12, t) for t in grid]).T
    with warnings.catch_warnings(record=True) as caught:  # any warning fails the check
        warnings.simplefilter("always")
        factors = sy._rational_factors(12, sy._top_ratio(12, grid)[0], grid)
    check("rational factors R, R', R'' match exact rationals (m=12; R, R' at |x| = 1e6 too)",
          not caught and all(np.max(np.abs(g - e)[:stop]) <= 1e-13 * np.max(np.abs(e))
                             for g, e, stop in zip(factors, exact, (None, None, -2))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            far = sy._wavefunction_stack(12, -13, range(3), np.array([-1e300, 1e300]), (0, 1, 2))
        except RuntimeWarning:
            far = [np.nan]
    check("eigenfunction rows at x = -1e300, 1e300 are finite, without warnings",
          np.all(np.isfinite(far)))

    # the fused kernel, in blocks of 16 points (a caller holding 2^21 values
    # per point gets the smallest block), where the recurrence rescales
    deep = np.concatenate([-np.linspace(37.0, 60.0, 20), np.linspace(37.0, 60.0, 20)])
    fused = np.hstack([rows.copy() for _, _, (rows,) in sy._basis_blocks(2, -3, [1, 200, 333],
                                                                         deep, (0,), 1 << 21)])
    r = sy._top_ratio(2, deep)[0]
    worst = 0.0
    for row, nu in zip(fused, (0, 597, 996)):
        alpha, beta = math.sqrt((nu + 1.0) / (nu + 3.0)), 4.0 / math.sqrt(2.0 * (nu + 3.0))
        ref = np.array([alpha * hermite_phi(nu + 1, t) + beta * rt * hermite_phi(nu, t)
                        for t, rt in zip(deep, r)])
        worst = max(worst, float(np.max(np.abs(row - ref) / np.maximum(np.abs(ref), 1e-300))))
    check("fused eigenfunction rows across point blocks match the hermite_phi two-term form "
          "at 37 <= |x| <= 60 (m=2, mu=-3)", worst < 1e-12)

    # on a mirror-symmetric grid the basis kernel evaluates x >= 0 only and
    # takes the rest from psi_nu(-x) = (-1)^(nu+1) psi_nu(x)
    pos = x[x > 0.0]  # not mirror-symmetric: the kernel evaluates every point
    rows = sy.wavefunction_rows(6, -7, range(8), pos)
    signs = np.where((-7 + 7 * np.arange(8)) % 2, 1.0, -1.0)[:, None]
    check("eigenfunction parity psi(-x) = (-1)^(nu+1) psi(x) holds to the bit",
          np.array_equal(sy.wavefunction_rows(6, -7, range(8), -pos), signs * rows))
    spec = co.CoherentSpec("nonlinear", 4, -5, 2e3)
    coeffs = co.coefficients(spec)
    grid = co.default_grid(spec)
    unfolded = np.abs(co._amplitudes(coeffs.entries, np.hstack([sy.wavefunction_rows(
        4, -5, range(coeffs.K + 1), part) for part in np.split(grid, [grid.size // 2])]))) ** 2
    check("density folded across x = 0 matches the unfolded sum (m=4, |z|=2e3)",
          float(np.max(np.abs(co.density(spec, grid) - unfolded))) <= 1e-14 * float(unfolded.max()))

    # 200 Gauss-Legendre panels on the same interval, with <p^2> as
    # -int psi psi'' rather than the lattice's int psi' psi'
    mats = ob.moment_matrices(4, -5, 8)
    half = sy._turning_point(4, -5, 8) + sy._SUPPORT_PADDING
    xs, ws = panel_nodes(-half, half, 200, 20)
    p0, p1, p2 = sy._wavefunction_stack(4, -5, range(9), xs, (0, 1, 2))
    w0 = p0 * ws
    reference = ((w0 * xs) @ p0.T, (w0 * xs * xs) @ p0.T, -1j * (w0 @ p1.T), -(w0 @ p2.T))
    check("trapezoid moment matrices match Gauss-Legendre panels (m=4, mu=-5, K=8)",
          max(float(np.max(np.abs(a - b))) for a, b in
              zip((mats.mx, mats.mx2, mats.mp, mats.mp2), reference)) < 1e-12)
    spec = co.CoherentSpec("nonlinear", 4, -5, 1.0 + 0.5j)  # K = 3, padded to nine rungs
    a = np.pad(co.coefficients(spec).entries, (0, 5))
    x1, x2, p1, p2 = (float(np.real(np.conj(a) @ r @ a)) for r in reference)
    sx, sp = math.sqrt(x2 - x1 * x1), math.sqrt(p2 - p1 * p1)
    check("lattice uncertainty matches the Gauss-Legendre moment forms (m=4, mu=-5, z=1+0.5i)",
          max(map(abs, np.subtract(ob.uncertainty(spec), (sx, sp, sx * sp)))) < 1e-12)

    ground = sy.StateLabel(0, -1, 0)
    kernel = ob.wigner_cross_term(ground, ground, 0.7, -0.4)
    check("lattice Wigner kernel of the oscillator ground state is exp(-x^2-p^2)/pi",
          abs(kernel - math.exp(-0.65) / math.pi) < 1e-13)
    grid = ob.wigner_grid(co.CoherentSpec("nonlinear", 0, -1, 1.3 - 0.7j),  # about -z: (-1)^k
                          ((-4.0, 4.0), (-4.0, 4.0)), (33, 33), tail_tol=1e-30)
    x, p = np.ix_(grid.x, grid.p)
    check("lattice Wigner grid of the m=0 coherent state is exp(-|x+ip+z|^2)/pi (z=1.3-0.7i)",
          np.max(np.abs(grid.values - np.exp(-(x + 1.3) ** 2 - (p - 0.7) ** 2) / math.pi)) < 1e-15)

    indices = [mu + 5 * k for mu in sy.lowest_weights(4) for k in range(4)]
    expected = {-5} | set(range(0, 20)) - {15}  # 15 needs step 4 of the lowest ladder
    check("ladder partition",
          len(indices) == len(set(indices)) and set(indices) == expected)

    spec = co.CoherentSpec("nonlinear", 4, -5, 10.0)
    e_cf = ob.energy_expectation(spec, "closed_form")
    e_d = ob.energy_expectation(spec, "direct")
    check("energy dual route", abs(e_cf - e_d) / abs(e_cf) < 1e-10)

    q_lin = ob.mandel_q(co.CoherentSpec("linearized", 6, -7, 3.0), "closed_form")
    check("linearized statistics are Poissonian", q_lin == 0.0)

    resid = co.eigen_residual(co.CoherentSpec("nonlinear", 6, -7, 1e8))
    check("defining-equation residual at |z|=1e8", resid / 1e8 < 1e-9)

    coeffs = co.coefficients(co.CoherentSpec("linearized", 2, 1, 2.0))
    out = bs.split(coeffs)
    # anti-diagonal k of the (n1, n2) table holds the input weight |A_k|^2
    flipped = np.fliplr(out.amplitudes)
    sums = np.array([np.sum(np.abs(flipped.diagonal(out.K - k)) ** 2)
                     for k in range(out.K + 1)])
    weights = np.abs(coeffs.entries) ** 2
    check("beamsplitter unitarity", float(np.max(np.abs(sums - weights))) < 1e-14)
    check("blocked distribution is |amplitudes|^2 bitwise",
          np.array_equal(bs.two_photon_distribution(out).p, np.abs(out.amplitudes) ** 2))

    # sub-normalised so the entropy sits far from its clamp at 0
    lin = co.coefficients(co.CoherentSpec("linearized", 2, 1, 5.0))
    out = bs.split(co.CoefficientVector(lin.spec, 0.8 * lin.entries, lin.tail_mass))
    cols = [out.amplitudes[: out.K + 1 - r, r] for r in range(out.K + 1)]
    loop = sum(abs(np.vdot(c2[: min(c1.size, c2.size)], c1[: min(c1.size, c2.size)])) ** 2
               for c1 in cols for c2 in cols)
    check(f"blocked purity matches the double loop at K={out.K}",
          abs(bs.linear_entropy(out).value - (1.0 - loop)) < 1e-14)

    d = co.overlap(6, -7, 10.0)
    d_cf = co.overlap_closed_form(6, -7, 10.0)
    check("component-overlap dual route", abs(d - d_cf) < 1e-12)

    return 0 if all(ok for _, ok in checks) else 2


# setting -> (flag, argparse keywords, default).  A subcommand gets the
# flags of the settings its table entry reads, plus output, fmt and plot;
# the header lists them in this order.
_OPTIONS = {
    "variant": ("--variant", {"choices": co.VARIANTS}, "nonlinear"),
    "m": ("--m", {"type": int}, 4),
    "mu": ("--mu", {"type": int}, -5),
    "z_re": ("--z-re", {"type": _number}, 0.0),
    "z_im": ("--z-im", {"type": _number}, 0.0),
    "z_abs_grid": ("--z-abs", {"type": _grid, "required": True,
                               "help": "|z| grid min:max:count"}, []),
    "z_re_grid": ("--z-re-grid", {"type": _grid, "help": "Re z grid min:max:count"}, []),
    "z_im_grid": ("--z-im-grid", {"type": _grid, "help": "Im z grid min:max:count"}, []),
    "times": ("--times", {"type": _times, "help": "comma-separated list of times"}, []),
    "x_grid": ("--x-grid", {"type": _grid, "help": "min:max:count"}, []),
    "p_grid": ("--p-grid", {"type": _grid, "help": "min:max:count"}, []),
    "k": ("--k", {"type": int, "help": "ladder step (eigenstate, spectrum depth)"}, 0),
    "parity": ("--parity", {"choices": ("even", "odd")}, "even"),
    "tail_tol": ("--tail-tol", {"type": _tolerance}, 1e-14),
    "output": ("--output", {}, ""),
    "fmt": ("--format", {"choices": ("csv", "json")}, "csv"),
    "plot": ("--plot", {"action": "store_true"}, False),
}


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], tuple]  # -> (columns, rows, meta)
    reads: tuple[str, ...]   # _OPTIONS settings besides output, fmt, plot
    defaults: dict = {}      # option text used when the flag is absent


_STATE = ("variant", "m", "mu")
_SWEEP = (*_STATE, "z_abs_grid", "tail_tol")
_COMMAND_TABLE = {
    "spectrum": _Command(_cmd_spectrum, ("m", "k")),
    "potential": _Command(_cmd_potential, ("m", "x_grid"), {"x_grid": "-8:8:321"}),
    "eigenstate": _Command(_cmd_eigenstate, ("m", "mu", "k", "x_grid"), {"x_grid": "-8:8:321"}),
    "coeffs": _Command(_cmd_coeffs, (*_STATE, "z_re", "z_im", "tail_tol")),
    "energy": _Command(_dual_route(ob.energy_expectation, "energy"), _SWEEP),
    "density": _Command(_cmd_density,
                        (*_STATE, "z_re", "z_im", "times", "x_grid", "tail_tol"), {"times": "0"}),
    "cat": _Command(_cmd_cat, (*_STATE, "z_re", "parity", "times", "x_grid", "tail_tol"),
                    {"times": "0"}),
    "overlap": _Command(_cmd_overlap, ("m", "mu", "z_abs_grid")),
    "wigner": _Command(_cmd_wigner,
                       (*_STATE, "z_re", "z_im", "x_grid", "p_grid", "tail_tol"),
                       {"x_grid": "-8:8:161", "p_grid": "-8:8:161"}),
    "uncertainty": _Command(_cmd_uncertainty,
                            (*_STATE, "z_re_grid", "z_im_grid", "times", "tail_tol"),
                            {"z_re_grid": "-2:2:11", "z_im_grid": "-2:2:11", "times": "0"}),
    "mandel": _Command(_dual_route(ob.mandel_q, "q"), _SWEEP),
    "beamsplitter": _Command(_cmd_beamsplitter, (*_STATE, "z_re", "z_im", "tail_tol")),
    "entropy": _Command(_cmd_entropy, _SWEEP),
}


def _build_parser(argv=None) -> _Parser:
    """Every subcommand; with argv, only the one it names (its first word) takes options."""
    named = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    parser = _Parser(prog="ratosc", allow_abbrev=False,
                     description="Coherent-state diagnostics for rational "
                                 "extensions of the harmonic oscillator")
    parser.add_argument("--version", action="version", version=f"ratosc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMAND_TABLE.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for dest in (*command.reads, "output", "fmt", "plot") if named in (None, name) else ():
            flag, keywords, _ = _OPTIONS[dest]
            # an absent flag leaves the _OPTIONS default of run's namespace
            p.add_argument(flag, dest=dest, **keywords,
                           default=command.defaults.get(dest, argparse.SUPPRESS))
    sub.add_parser("selftest", allow_abbrev=False)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    defaults = argparse.Namespace(**{dest: default for dest, (*_, default) in _OPTIONS.items()})
    config = _build_parser(argv).parse_args(argv, namespace=defaults)
    if config.command == "selftest":
        return _selftest()
    plt = _pyplot() if config.plot else None  # a missing matplotlib refuses before any work
    # a bad --m or --mu raises ValueError in the library before any work
    columns, rows, meta = _COMMAND_TABLE[config.command].handler(config)
    path = _write_rows(config, columns, rows, meta)
    plot_path = _plot(plt, config, columns, rows, path) if plt else None
    print(f"wrote {path}" + (f" and {plot_path}" if plot_path else ""))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
