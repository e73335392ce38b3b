"""Randomised (seeded) invariant sweeps across the supported domain.

Complements the value-based tests: every spec drawn here must satisfy the
structural contracts (normalisation, recurrence, defining equation, dual
energy routes, Hermiticity) regardless of where it lands.
"""

import cmath
import math
import time
import warnings

import numpy as np

from ratosc.cli import main
from ratosc.coherent import (
    VARIANTS,
    CoherentSpec,
    coefficients,
    density,
    density_profile,
    eigen_residual,
    hypergeometric_parameters,
    overlap,
    overlap_closed_form,
    series_argument,
)
from ratosc.observables import (
    energy_expectation,
    mandel_q,
    moment_matrices,
    number_moments,
    uncertainty,
)
from ratosc.specfun import NumericalError, signed_series
from ratosc.system import (
    MAX_STATE_INDEX,
    StateLabel,
    ladder_element,
    lowest_weights,
    potential,
    wavefunction,
    wavefunction_rows,
)

RNG = np.random.default_rng(20260808)


def _random_specs(count):
    specs = []
    for _ in range(count):
        m = int(RNG.choice([0, 2, 4, 6, 8]))
        mu = int(RNG.choice(lowest_weights(m)))
        variant = str(RNG.choice(["nonlinear", "linearized"]))
        if variant == "nonlinear" and m > 0:
            az = 10.0 ** RNG.uniform(-2.0, 6.0)
        else:
            # rung weights are Poisson with mean |z|^2/2 here, so keep the
            # truncation depth (and the m = 0 state index) moderate
            az = RNG.uniform(0.0, 6.0)
        phase = RNG.uniform(0.0, 2.0 * math.pi)
        specs.append(CoherentSpec(variant, m, mu, az * cmath.exp(1j * phase)))
    return specs


def test_random_specs_satisfy_structural_contracts():
    tail_tol = 1e-14
    for spec in _random_specs(40):
        c = coefficients(spec, tail_tol)

        total = c.norm_sq()
        assert 1.0 - c.tail_mass - 1e-12 <= total <= 1.0 + 1e-12

        if spec.variant == "nonlinear":
            for k in range(c.K):
                elem = ladder_element(spec.m, spec.mu + (spec.m + 1) * (k + 1))
                defect = abs(elem * c.entries[k + 1] - spec.z * c.entries[k])
                assert defect <= 1e-12 * max(abs(spec.z * c.entries[k]), 1e-300)
            resid = eigen_residual(spec, tail_tol)
            assert resid <= max(1.0, spec.abs_z) * (tail_tol + 1e-10)

        closed = energy_expectation(spec, "closed_form")
        direct = energy_expectation(spec, "direct", tail_tol)
        assert abs(closed - direct) <= 1e-8 * max(abs(closed), 1.0)


def test_random_density_matches_wavefunction_superposition():
    for spec in _random_specs(8):
        c = coefficients(spec)
        if c.K > 40:
            continue  # keep the scalar cross-check cheap
        for x in RNG.uniform(-4.0, 4.0, 3):
            amplitude = sum(
                c.entries[k] * wavefunction(StateLabel(spec.m, spec.mu, k), float(x))
                for k in range(c.K + 1))
            assert abs(density(spec, float(x)) - abs(amplitude) ** 2) <= 1e-12


def test_random_moment_matrices_are_hermitian():
    for _ in range(3):
        m = int(RNG.choice([0, 2, 6]))
        mu = int(RNG.choice(lowest_weights(m)))
        K = int(RNG.integers(2, 9))
        mats = moment_matrices(m, mu, K)
        assert np.max(np.abs(mats.mx - mats.mx.T)) < 1e-9
        assert np.max(np.abs(mats.mx2 - mats.mx2.T)) < 1e-9
        assert np.max(np.abs(mats.mp2 - mats.mp2.T)) < 1e-9
        assert np.max(np.abs(mats.mp - np.conj(mats.mp.T))) < 1e-9
        assert np.max(np.abs(np.diag(mats.mp))) < 1e-12


def test_random_uncertainty_floor():
    for _ in range(10):
        m = int(RNG.choice([2, 4, 6]))
        mu = int(RNG.choice(lowest_weights(m)))
        variant = str(RNG.choice(["nonlinear", "linearized"]))
        z = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
        t = float(RNG.uniform(0.0, 1.0))
        result = uncertainty(CoherentSpec(variant, m, mu, z), t)
        assert result.product >= 0.5 - 1e-9


DUAL_ROUTE_TOL = 1e-8  # criterion 2 of the acceptance suite
OVERLAP_FLOOR = 1e-12  # its absolute floor of the unit-bounded overlap


def _outcome(call):
    """(value, processor seconds); value None for a refusal."""
    start = time.process_time()
    try:
        value = call()
    except (ValueError, NumericalError):
        value = None
    return value, time.process_time() - start


def _closed_form_bound(spec) -> float:
    """Summed rounding bounds of the series behind the nonlinear closed
    forms, F(order+1; b+order; x) for orders 0, 1 and 2 (0 for the exact
    linearized laws)."""
    if spec.variant == "linearized":
        return 0.0
    b = hypergeometric_parameters(spec.m, spec.mu)
    x = series_argument(spec.m, spec.abs_z)
    return sum(signed_series((order + 1.0,), tuple(bj + order for bj in b), x).rounding_bound
               for order in (0, 1, 2))


def test_statistics_entry_points_answer_or_refuse_promptly():
    # the documented domain at its edges: even m <= 12, both variants and
    # |z| log-uniform over 1e-300 .. 1e150
    rng = np.random.default_rng(20261018)
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            m = int(rng.choice(range(0, 13, 2)))
            mu = int(rng.choice(lowest_weights(m)))
            variant = str(rng.choice(VARIANTS))
            az = 10.0 ** rng.uniform(-300.0, 150.0)
            spec = CoherentSpec(variant, m, mu, az * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            calls = {"coefficients": lambda: coefficients(spec),
                     "overlap": lambda: overlap(m, mu, az),
                     "overlap_closed_form": lambda: overlap_closed_form(m, mu, az)}
            for method in ("closed_form", "direct"):
                calls[f"energy_{method}"] = lambda method=method: energy_expectation(spec, method)
                calls[f"moments_{method}"] = lambda method=method: number_moments(spec, method)
                calls[f"mandel_{method}"] = lambda method=method: mandel_q(spec, method)
            got = {}
            for name, call in calls.items():
                value, seconds = _outcome(call)
                assert seconds < 1.0, (name, spec, seconds)
                if name == "coefficients" and value is not None:
                    assert np.all(np.isfinite(value.entries)) and math.isfinite(value.tail_mass)
                elif value is not None:
                    assert np.all(np.isfinite(value)), (name, spec, value)
                got[name] = value

            d, d_c = got["overlap"], got["overlap_closed_form"]
            if d is not None and d_c is not None:
                excess = max(abs(d - d_c) - OVERLAP_FLOOR, 0.0)
                assert excess <= DUAL_ROUTE_TOL * max(abs(d), abs(d_c), 1e-300), (m, mu, az)
            c = got["coefficients"]
            if c is None or got["moments_closed_form"] is None or got["moments_direct"] is None:
                continue
            # The direct route drops weights of relative mass tail_mass past K,
            # falling at least geometrically, so its share of <N> and <N(N-1)>
            # stays below 2 tail_mass (K + 2)^2; the closed forms carry the
            # rounding bounds of their series (refused past 1e-8).
            slack = 2.0 * c.tail_mass * (c.K + 2) ** 2
            rel = DUAL_ROUTE_TOL + _closed_form_bound(spec)
            base = 2.0 * mu + 2.0 * m + 2.0
            e_c, e_d = got["energy_closed_form"], got["energy_direct"]
            assert abs(e_c - e_d) <= rel * abs(e_d) + slack * (abs(base) + 2 * m + 2), spec
            (n1c, n2c), (n1, n2) = got["moments_closed_form"], got["moments_direct"]
            d1, d2 = rel * n1 + slack, rel * n2 + slack
            assert abs(n1c - n1) <= d1 and abs(n2c - n2) <= d2, spec
            if n1 > 0.0:
                q = got["mandel_direct"]
                allowed = (d2 + (2.0 * n1 + abs(q)) * d1) / n1
                assert abs(got["mandel_closed_form"] - q) <= allowed, spec
            compared += 1
    assert compared >= 100


def _far_grid(rng, count):
    """x log-uniform over 1e-300 .. 1e300 with random signs, plus 0 and the
    oscillator-function clip +-1e6."""
    x = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-300.0, 300.0, count)
    return np.concatenate([x, [0.0, 1e6, -1e6]])


def test_spatial_entry_points_answer_or_refuse_promptly(tmp_path):
    # the documented domain at its edges: even m <= 12, nu <= 1e4, |z|
    # log-uniform and x out to +-1e300 (uncertainty and wigner_grid are left
    # out: their cost at large truncations is a separate matter)
    rng = np.random.default_rng(20261019)
    answered = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(40):
            m = int(rng.choice(range(0, 13, 2)))
            mu = int(rng.choice(lowest_weights(m)))
            k = int(np.expm1(rng.uniform(0.0, math.log1p((MAX_STATE_INDEX - mu) // (m + 1)))))
            variant = str(rng.choice(VARIANTS))
            az = 10.0 ** rng.uniform(-3.0, 12.0)
            spec = CoherentSpec(variant, m, mu, az * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            x = _far_grid(rng, 6)
            calls = {f"rows_{order}": lambda order=order: wavefunction_rows(m, mu, [0, k], x, order)
                     for order in (0, 1, 2)}
            calls.update({f"potential_{j}": lambda j=j: potential(m, x[j:j + 1])
                          for j in range(x.size)})
            calls["density"] = lambda: density(spec, x)
            calls["density_profile"] = lambda: density_profile(spec, [0.0, 0.3], x)[1]
            for name, call in calls.items():
                value, seconds = _outcome(call)
                assert seconds < 1.0, (name, m, mu, k, spec, seconds)
                if value is not None:
                    assert np.all(np.isfinite(value)), (name, m, mu, k, spec, x)
                    answered += 1
    assert answered >= 200

    # the commands that write spatial columns answer on a grid out to 1e300
    out = tmp_path / "out.csv"
    for m, mu, k, z in ((4, -5, 1, 3.0), (12, -13, 0, 40.0), (2, 1, 700, 2.5)):
        for args in (["eigenstate", "--k", str(k)],
                     ["density", "--z-re", str(z), "--times", "0,0.1"],
                     ["cat", "--z-re", str(z), "--parity", "odd"]):
            code = main(args + ["--m", str(m), "--mu", str(mu),
                                "--x-grid=-1e300:1e300:5", "--output", str(out)])
            assert code == 0, args
            assert "nan" not in out.read_text().lower(), args
