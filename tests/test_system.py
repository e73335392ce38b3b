"""Deformed-oscillator model checks: spectrum, potential, eigenfunctions,
ladder elements and the spectral algebra identity."""

import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from ratosc import system
from ratosc.specfun import NumericalError, hermite, hermite_phi, mod_hermite, panel_nodes, phi_rows
from ratosc.system import (
    MAX_ORDER,
    StateLabel,
    algebra_residual,
    energy,
    hamiltonian_potential,
    ladder_element,
    linearized_element,
    lowest_weights,
    potential,
    q_polynomial,
    verify_hamiltonian,
    wavefunction,
    wavefunction_rows,
)
from ratosc.cli import _exact_rational_factors
from ratosc.system import _linspace, _rational_factors, _top_ratio, _wavefunction_stack

# spot values frozen from 30-digit evaluations of the quotient form
PSI_SPOTS = [
    # (m, mu, k, x, value)
    (4, -5, 0, 0.0, 1.2265828778062043772),
    (4, -5, 1, 0.7, 0.68136256548371209955),   # nu = 0
    (4, 2, 1, 1.3, 0.33407764593259773438),    # nu = 7
    (6, 3, 1, 2.1, 0.23251187003894942421),    # nu = 10
    (2, 1, 1, -0.4, -0.41439733538537254932),  # nu = 4
]


def test_lowest_weights():
    assert lowest_weights(0) == [-1]
    assert lowest_weights(4) == [-5, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        lowest_weights(3)
    with pytest.raises(ValueError):
        lowest_weights(14)


def test_state_label_validation():
    label = StateLabel(4, -5, 3)
    assert label.nu == 10
    with pytest.raises(ValueError):
        StateLabel(4, 5, 0)
    with pytest.raises(ValueError):
        StateLabel(4, -5, -1)
    with pytest.raises(ValueError):
        StateLabel(3, 1, 0)


def test_energy_values():
    assert energy(StateLabel(4, -5, 0)) == 0.0
    assert energy(StateLabel(4, 1, 0)) == 12.0
    assert energy(StateLabel(6, -7, 2)) == 28.0


def test_potential_undeformed_limit():
    x = np.linspace(-5, 5, 11)
    assert np.allclose(potential(0, x), x * x - 2.0, rtol=0, atol=1e-14)


def test_potential_well_depth_and_asymptote():
    assert potential(2, 0.0) == pytest.approx(-10.0, rel=1e-14)
    # rational part decays like 2m/x^2
    diff = potential(4, 30.0) - (30.0**2 - 2.0)
    assert 0.0 < diff < 0.01
    assert abs(potential(4, 100.0) - (100.0**2 - 2.0)) < 1e-3


def test_potential_ratio_form_matches_quotient_form():
    """The potential in R = P_{m-1}/P_m against the quotient of the three
    modified-Hermite evaluations, which overflows past |x| ~ 1e77."""
    x = np.linspace(-30.0, 30.0, 601)
    for m in range(0, MAX_ORDER + 1, 2):
        p0, p1, p2 = (mod_hermite(m, x, d) for d in (0, 1, 2))
        reference = x * x - 2.0 * (p2 / p0 - (p1 / p0) ** 2 + 1.0)
        v = potential(m, x)
        assert np.max(np.abs(v - reference) / np.maximum(1.0, np.abs(reference))) < 1e-13
        assert potential(m, 0.0) == -2.0 - 4.0 * m
    # past the clip at |x| = 1e6, 4m R' lies below half an ulp of x^2 - 2
    far = np.array([1.5e6, 1e10, 1e77, 1e150])
    far = np.concatenate([far, -far])
    for m in range(0, MAX_ORDER + 1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(potential(m, far), far * far - 2.0), m
    with pytest.raises(NumericalError, match="overflows"):
        potential(4, np.array([0.0, 1e200]))


def test_hamiltonian_potential_shift():
    x = np.linspace(-3, 3, 13)
    assert np.allclose(hamiltonian_potential(4, x), potential(4, x) + 9.0)


def test_wavefunction_spot_values():
    for m, mu, k, x, value in PSI_SPOTS:
        assert wavefunction(StateLabel(m, mu, k), x) == pytest.approx(value, rel=1e-12)


def test_wavefunction_parity():
    x = np.linspace(0.1, 5.0, 23)
    for m, mu, k in ((4, -5, 0), (4, -5, 2), (4, 3, 1), (6, -7, 1), (6, 2, 2)):
        label = StateLabel(m, mu, k)
        sign = (-1) ** (label.nu + 1)
        left = wavefunction(label, -x)
        right = wavefunction(label, x)
        assert np.allclose(left, sign * right, rtol=0, atol=1e-12)


def test_wavefunction_unit_norm():
    xs, ws = panel_nodes(-14.0, 14.0, 40, degree=20)
    for nu in [-5] + list(range(0, 11)):
        mu = -5 if nu == -5 else (nu % 5 if nu % 5 in (1, 2, 3, 4) else -5)
        k = 0 if nu == -5 else (nu - mu) // 5
        label = StateLabel(4, mu, k)
        assert label.nu == nu
        assert float(np.sum(ws * wavefunction(label, xs) ** 2)) == pytest.approx(1.0, abs=1e-10)


def test_gram_matrix_is_identity():
    for m in (2, 4, 6):
        labels = []
        for mu in lowest_weights(m):
            for k in range(8):
                label = StateLabel(m, mu, k)
                if label.nu <= 18 - m:
                    labels.append(label)
        labels.sort(key=energy)
        labels = labels[:20]
        e_max = energy(labels[-1])
        half = math.sqrt(2.0 * e_max) + 5.0
        xs, ws = panel_nodes(-half, half, 160, degree=20)
        rows = np.array([wavefunction(lab, xs) for lab in labels])
        gram = (rows * ws) @ rows.T
        assert np.max(np.abs(gram - np.eye(len(labels)))) < 1e-8


def test_stable_form_matches_literal_quotient():
    """The recurrence-based evaluation equals the explicit polynomial
    quotient with its factorial normalisation wherever the latter is finite."""
    xs = np.linspace(-6.0, 6.0, 41)
    for m in (2, 4, 6):
        for mu in lowest_weights(m):
            for k in range(0, 5):
                label = StateLabel(m, mu, k)
                nu = label.nu
                if not 0 <= nu <= 25:
                    continue
                norm = 1.0 / math.sqrt(math.sqrt(math.pi) * 2.0 ** (nu + 1)
                                       * (nu + m + 1) * math.factorial(nu))
                for x in xs:
                    poly = (mod_hermite(m, x) * hermite(nu + 1, x)
                            + 2.0 * m * mod_hermite(m - 1, x) * hermite(nu, x))
                    literal = norm * math.exp(-0.5 * x * x) * poly / mod_hermite(m, x)
                    stable = wavefunction(label, x)
                    if abs(literal) > 1e-250:
                        assert stable == pytest.approx(literal, rel=1e-10, abs=1e-13)


def test_wavefunction_rows_consistency():
    x = np.linspace(-8, 8, 33)
    for order in (0, 1, 2):
        rows = wavefunction_rows(6, -7, range(4), x, order)
        for k in range(4):
            direct = wavefunction(StateLabel(6, -7, k), x, order)
            assert np.allclose(rows[k], direct, rtol=1e-13, atol=1e-300)


def test_wavefunction_derivatives_match_finite_differences():
    h = 1e-5
    for m, mu, k in ((4, -5, 0), (4, -5, 2), (6, 3, 1), (0, -1, 3)):
        ev = partial(wavefunction, StateLabel(m, mu, k))
        for x in (-1.7, 0.3, 2.2):
            fd1 = (ev(x + h) - ev(x - h)) / (2 * h)
            assert ev(x, 1) == pytest.approx(fd1, rel=1e-7, abs=1e-8)
            fd2 = (ev(x + h) - 2 * ev(x) + ev(x - h)) / h**2
            assert ev(x, 2) == pytest.approx(fd2, rel=1e-5, abs=1e-4)


def test_ladder_element_values():
    assert ladder_element(4, 1) == 0.0
    assert ladder_element(4, 6) == pytest.approx(-math.sqrt(42240.0), rel=1e-14)
    assert ladder_element(4, 0) == pytest.approx(-math.sqrt(3840.0), rel=1e-14)


def test_ladder_annihilates_lowest_weights():
    for m in (0, 2, 4, 6):
        for mu in lowest_weights(m):
            assert ladder_element(m, mu) == 0.0


def test_ladder_element_rejects_invalid_index():
    with pytest.raises(ValueError):
        ladder_element(4, -2)


def test_linearized_elements():
    assert linearized_element(4, 1) == pytest.approx(math.sqrt(2.0))
    assert linearized_element(6, 8) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        linearized_element(4, 0)


def test_q_polynomial():
    assert q_polynomial(2, 0.0) == 0.0
    assert q_polynomial(2, 8.0, shifted=True) == pytest.approx(336.0)
    assert q_polynomial(2, 8.0, shifted=False) == 0.0


def test_algebra_identity():
    assert algebra_residual(2, 1) == pytest.approx(0.0, abs=1e-10)
    # zero in exact arithmetic; one ulp of a^2 = 3840 in floats
    assert algebra_residual(4, -5) < 1e-12
    for m in (2, 4, 6):
        for nu in [-m - 1] + list(range(0, 61)):
            scale = max(1.0, ladder_element(m, nu + m + 1) ** 2)
            assert algebra_residual(m, nu) < 1e-8 * scale


def test_ladder_partition_of_spectrum():
    """Ladders are disjoint and fill the spectrum; the only index missing
    below (m+1)K + m is (m+1)K itself, reached one step later on the
    lowest ladder."""
    K = 5
    for m in (2, 4, 6):
        indices = [mu + (m + 1) * k for mu in lowest_weights(m) for k in range(K + 1)]
        assert len(indices) == len(set(indices))
        expected = {-m - 1} | set(range(0, (m + 1) * K + m + 1)) - {(m + 1) * K}
        assert set(indices) == expected


def test_high_order_and_deep_index_support():
    """The full supported range: orders up to 12, state indices up to 1e4."""
    for m in (8, 12):
        assert verify_hamiltonian(StateLabel(m, -m - 1, 0), 1e-2) < 1e-6
        assert verify_hamiltonian(StateLabel(m, m - 1, 1), 1e-2) < 1e-6
    label = StateLabel(4, -5, 2000)  # nu = 9995, turning point near x = 141
    ev = partial(wavefunction, label)
    e = energy(label)
    for x in (10.0, 100.0, 140.0, 150.0):
        psi, d2 = ev(x), ev(x, 2)
        resid = abs(-d2 + (hamiltonian_potential(4, x) - e) * psi)
        assert resid < 1e-9 * e * max(abs(psi), 1e-300)
    # array evaluation on both sides of the Gaussian underflow at |x| = 37.4
    xs = np.array([5.0, 36.0, 60.0, 120.0])
    assert np.allclose(ev(xs), [ev(float(t)) for t in xs], rtol=1e-12)


def test_hamiltonian_eigen_residuals():
    assert verify_hamiltonian(StateLabel(4, -5, 0), 1e-3) < 1e-6
    assert verify_hamiltonian(StateLabel(6, 3, 1), 1e-3) < 1e-6
    assert verify_hamiltonian(StateLabel(0, -1, 0), 1e-3) < 1e-12
    with pytest.raises(ValueError):
        verify_hamiltonian(StateLabel(4, -5, 0), 0.5)


def _oracle_rows(m, mu, ks, x, order):
    """The two-term form evaluated point by point on the scalar hermite_phi,
    with the rational factor from separate modified-Hermite quotients."""
    out = []
    for k in ks:
        nu = mu + (m + 1) * k
        row = []
        for t in x:
            p0, p1, p2 = (mod_hermite(m, t, d) for d in (0, 1, 2))
            if nu == -m - 1:
                norm = math.sqrt(2.0 ** m * math.factorial(m) / math.sqrt(math.pi))
                g, h, h2 = norm * math.exp(-0.5 * t * t) / p0, p1 / p0, p2 / p0
                row.append([g, -(t + h) * g, ((t + h) ** 2 - 1.0 - h2 + h * h) * g][order])
                continue
            q0, q1, q2 = (mod_hermite(m - 1, t, d) for d in (0, 1, 2))
            r = q0 / p0
            r1 = q1 / p0 - q0 * p1 / p0 ** 2
            r2 = q2 / p0 - 2 * q1 * p1 / p0 ** 2 - q0 * p2 / p0 ** 2 + 2 * q0 * p1 ** 2 / p0 ** 3
            dn, n0, up = (hermite_phi(n, t) if n >= 0 else 0.0 for n in (nu - 1, nu, nu + 1))
            alpha = math.sqrt((nu + 1.0) / (nu + m + 1.0))
            beta = 2.0 * m / math.sqrt(2.0 * (nu + m + 1.0))
            d_up = math.sqrt(2.0 * (nu + 1)) * n0 - t * up
            d_n = math.sqrt(2.0 * nu) * dn - t * n0
            dd_up = (t * t - 2.0 * nu - 3.0) * up
            dd_n = (t * t - 2.0 * nu - 1.0) * n0
            row.append([alpha * up + beta * r * n0,
                        alpha * d_up + beta * (r1 * n0 + r * d_n),
                        alpha * dd_up + beta * (r2 * n0 + 2 * r1 * d_n + r * dd_n)][order])
        out.append(row)
    return np.array(out)


def test_wavefunction_rows_straddle_underflow_point():
    # rows up to nu = 999 (turning point 44.7) on a grid through |x| = 37
    x = np.linspace(-46.0, 46.0, 93)
    ks = [0, 1, 300, 333]
    for order in (0, 1, 2):
        got = wavefunction_rows(2, -3, ks, x, order)
        expected = _oracle_rows(2, -3, ks, x, order)
        for g, e in zip(got, expected):
            assert np.max(np.abs(g - e)) <= 1e-12 * max(np.max(np.abs(e)), 1e-300)


def test_rational_factors_match_modified_hermite_quotients():
    # exact rational quotients of P_{m-1}, P_m and their derivatives at the
    # float grid points, each factor within 1e-13 of its peak on the grid
    x = np.linspace(-40.0, 40.0, 321)
    for m in range(2, 13, 2):
        got = _rational_factors(m, _top_ratio(m, x)[0], x)
        exact = np.array([_exact_rational_factors(m, t) for t in x]).T
        for g, e in zip(got, exact):
            assert np.max(np.abs(g - e)) <= 1e-13 * np.max(np.abs(e)), m


def test_top_ratio_matches_exact_rationals_without_warnings():
    # the unscaled pass on the points its callers pass, clipped at 1e6:
    # R = P_{m-1}/P_m and 1/P_m, each within 1e-15 of the exact rational
    x = np.array([0.0, 1e-300, -1e-300, 0.5, -0.5, 37.5, -37.5, 1e6, -1e6])
    for m in range(0, MAX_ORDER + 1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, inv_pm = _top_ratio(m, x)
        for t, got_r, got_inv in zip(x, r, inv_pm):
            p = [Fraction(0), Fraction(1)]  # P_{-1}, P_0
            for j in range(m):
                p.append(2 * Fraction(t) * p[-1] + 2 * j * p[-2])
            exact_r, exact_inv = p[-2] / p[-1], 1 / p[-1]
            assert abs(Fraction(got_r) - exact_r) <= Fraction(1e-15) * abs(exact_r), (m, t)
            assert abs(Fraction(got_inv) - exact_inv) <= Fraction(1e-15) * exact_inv, (m, t)


def test_stacked_orders_are_bitwise_the_single_order_rows():
    # ground rows (mu = -m-1) included; the grid straddles |x| = 37
    x = np.linspace(-46.0, 46.0, 93)
    for m, mu, ks in ((2, -3, [0, 1, 300, 333]), (6, -7, range(6)),
                      (0, -1, range(4)), (4, 2, [0, 3, 9])):
        single = [wavefunction_rows(m, mu, ks, x, order) for order in (0, 1, 2)]
        for orders in ((0, 1, 2), (2, 0), (1,), (2,)):
            stack = _wavefunction_stack(m, mu, ks, x, orders)
            assert len(stack) == len(orders)
            for rows, order in zip(stack, orders):
                assert np.array_equal(rows, single[order])


def test_wavefunction_rows_parity_is_bitwise():
    # psi_nu^(d)(-x) = (-1)^(nu+1+d) psi_nu^(d)(x) to the bit, which the moment
    # sums and the folded densities rely on; the grid runs from 0 through the
    # log-offset range past |x| = 37.4 to the clip at 1e6 and beyond it,
    # out to where an unscaled P_m or x^2 would overflow
    x = np.concatenate([np.linspace(0.0, 60.0, 241),
                        [100.0, 1e3, 1e5, 1e6, 3e6, 1e80, 1e160, 1e300]])
    for m in (0, 2, 4, 12):
        weights = lowest_weights(m)
        for mu in {weights[0], weights[-1]}:  # -m-1 and m
            ks = [0, 1, 2, 5, 20, 60]
            nus = np.array([StateLabel(m, mu, k).nu for k in ks])
            for order in (0, 1, 2):
                sign = np.where((nus + 1 + order) % 2, -1.0, 1.0)[:, None]
                right = wavefunction_rows(m, mu, ks, x, order)
                assert np.all(np.isfinite(right))
                assert np.array_equal(wavefunction_rows(m, mu, ks, -x, order), sign * right)


def _stored_rows(m, mu, ks, x, orders):
    """The two-term rows over a dict of stored phi_rows, in the operation
    order the fused kernel keeps: (x c) phi_k in the recurrence, then
    alpha phi_{nu+1} + (beta R) phi_nu and its derivatives."""
    x = np.clip(np.asarray(x, dtype=float), -1e6, 1e6)
    nus = [StateLabel(m, mu, k).nu for k in ks]
    rows = phi_rows({max(nu + d, 0) for nu in nus if nu >= 0 for d in (-1, 0, 1)}, x)
    r, inv_pm = _top_ratio(m, x)
    r, r1, r2 = _rational_factors(m, r, x) if m else (0.0, 0.0, 0.0)
    out = [np.empty((len(nus), x.size)) for _ in orders]
    for i, nu in enumerate(nus):
        if nu == -m - 1:
            norm = math.sqrt(2.0 ** m * math.factorial(m) / math.sqrt(math.pi))
            g = norm * np.exp(-0.5 * x * x) * inv_pm
            s = x + 2.0 * m * r
            ground = (g, -s * g, (s * s - 1.0 - 2.0 * m * r1) * g)
            for dst, order in zip(out, orders):
                dst[i] = ground[order]
            continue
        alpha = math.sqrt((nu + 1.0) / (nu + m + 1.0))
        beta = 2.0 * m / math.sqrt(2.0 * (nu + m + 1.0))
        ph_dn, ph_n, ph_up = rows[nu - 1] if nu else np.zeros_like(x), rows[nu], rows[nu + 1]
        d_up = math.sqrt(2.0 * (nu + 1)) * ph_n - x * ph_up
        d_n = math.sqrt(2.0 * nu) * ph_dn - x * ph_n
        dd_up = (x * x - 2.0 * (nu + 1) - 1.0) * ph_up
        dd_n = (x * x - 2.0 * nu - 1.0) * ph_n
        by_order = (alpha * ph_up + beta * r * ph_n,
                    alpha * d_up + beta * (r1 * ph_n + r * d_n),
                    alpha * dd_up + beta * (r2 * ph_n + 2.0 * r1 * d_n + r * dd_n))
        for dst, order in zip(out, orders):
            dst[i] = by_order[order]
    return out


# points on both sides of the rescale line |x| = 37.4, out to the 1e6 clip
DEEP_GRID = np.concatenate([np.linspace(-60.0, 60.0, 301), [-1e3, 1e5, 2e6, -1e300]])


@pytest.mark.parametrize("block", [None, 7])
def test_fused_rows_are_bitwise_the_stored_two_term_rows(monkeypatch, block):
    # the fused kernel forms every row inside the recurrence pass; rows of
    # orders 0, 1, 2 match the two-term form over stored phi rows to the
    # bit, with the default block and with block boundaries inside the grid
    # and inside the log-offset range
    if block is not None:
        monkeypatch.setattr(system, "_BLOCK_POINTS", block)
    for m, mu, ks in ((2, -3, [0, 1, 300, 333, 1]), (0, -1, range(40)),
                      (4, -5, range(12)), (12, 5, [0, 2, 7])):
        expected = _stored_rows(m, mu, ks, DEEP_GRID, (0, 1, 2))
        for got, want in zip(_wavefunction_stack(m, mu, ks, DEEP_GRID, (0, 1, 2)), expected):
            assert np.array_equal(got, want), (m, mu)
        assert np.any(expected[0][:, np.abs(DEEP_GRID) > 37.4])


def test_fused_rows_across_blocks_keep_bitwise_parity(monkeypatch):
    # psi_nu(-x) = (-1)^(nu+1) psi_nu(x) to the bit when x and -x fall at
    # different places in their blocks
    monkeypatch.setattr(system, "_BLOCK_POINTS", 13)
    x = np.linspace(0.0, 60.0, 121)
    ks = [0, 1, 5, 40, 180]
    nus = np.array([StateLabel(2, -3, k).nu for k in ks])
    right = _wavefunction_stack(2, -3, ks, x, (0, 1))
    left = _wavefunction_stack(2, -3, ks, -x[::-1], (0, 1))
    for order, (r, l) in enumerate(zip(right, left)):
        sign = np.where((nus + 1 + order) % 2, -1.0, 1.0)[:, None]
        assert np.array_equal(l[:, ::-1], sign * r)


@pytest.mark.parametrize("block", [7, None])
def test_basis_kernel_folds_mirror_symmetric_points(monkeypatch, recurrence_points, block):
    # on points mirror-symmetric to the bit the recurrence runs on x >= 0
    # only and the other half is the parity image: bitwise the two halves
    # evaluated apart, for odd and even grids, with and without x = 0,
    # through the log-offset range past |x| = 37.4 to the clip at 1e6, and
    # with 7-point blocks whose mirror images meet inside each half
    if block is not None:
        monkeypatch.setattr(system, "_BLOCK_POINTS", block)
    right = np.concatenate([np.linspace(0.05, 45.0, 24), [1e3, 2e6]])
    grids = (np.concatenate([-right[::-1], [0.0], right]),
             np.concatenate([-right[::-1], right]),
             0.37 * np.arange(-20, 21), 0.37 * (np.arange(-20, 20) + 0.5))
    for x in grids:
        assert np.array_equal(x, -x[::-1])
        half = x.size // 2
        for m, mu, ks in ((4, -5, [0, 1, 7, 30]), (0, -1, [0, 2, 333]), (6, 1, range(5)),
                          (2, -3, [5, 0])):
            apart = [np.hstack(pair) for pair in
                     zip(_wavefunction_stack(m, mu, ks, x[:half], (0, 1, 2)),
                         _wavefunction_stack(m, mu, ks, x[half:], (0, 1, 2)))]
            recurrence_points.clear()
            spans = [(start, stop) for start, stop, _ in
                     system._basis_blocks(m, mu, ks, x, (0, 1, 2))]
            # every point yielded once, x = 0 included; the recurrence saw x[half:]
            assert sorted(j for start, stop in spans for j in range(start, stop)) \
                == list(range(x.size))
            assert np.array_equal(np.concatenate(recurrence_points), np.minimum(x[half:], 1e6))
            for got, want in zip(_wavefunction_stack(m, mu, ks, x, (0, 1, 2)), apart):
                assert np.array_equal(got, want), (m, mu, x.size)
    # one point off the mirror: every point goes through the recurrence
    x = grids[0].copy()
    x[3] = np.nextafter(x[3], 0.0)
    recurrence_points.clear()
    _wavefunction_stack(4, -5, [0, 3], x, (0,))
    assert np.array_equal(np.concatenate(recurrence_points), np.clip(x, -1e6, 1e6))


def test_basis_kernel_validates_the_rungs_before_any_point(monkeypatch, recurrence_points):
    # a bad k, top state index or ladder raises the ValueError of StateLabel
    # before any point is evaluated
    evaluated = []
    monkeypatch.setattr(system, "_top_ratio", lambda *args: evaluated.append(args))
    x = np.linspace(-3.0, 3.0, 11)
    for m, mu, ks, bad in ((4, -5, [0, 3, -1, 2], -1), (4, -5, [0, 2002, 5], 2002),
                           (2, -3, range(3336), 3335), (4, 7, [0, 1], 1)):
        with pytest.raises(ValueError) as label_error:
            StateLabel(m, mu, bad)
        with pytest.raises(ValueError) as kernel_error:
            next(system._basis_blocks(m, mu, ks, x, (0,)))
        assert str(kernel_error.value) == str(label_error.value)
    assert not evaluated and not recurrence_points


def test_symmetric_windows_give_mirror_symmetric_grids():
    for lo, hi, n in ((-8.0, 8.0, 401), (-8.0, 8.0, 321), (-0.3, 0.3, 10), (-46.0, 46.0, 93)):
        x, linear = _linspace(lo, hi, n), np.linspace(lo, hi, n)
        assert np.array_equal(x, -x[::-1])
        assert np.max(np.abs(x - linear)) <= np.spacing(hi)
    assert not np.array_equal(np.linspace(-8.0, 8.0, 401), -np.linspace(-8.0, 8.0, 401)[::-1])
    # any other window, and a single point, is the plain linspace
    for lo, hi, n in ((-8.0, 9.0, 401), (0.0, 5.0, 11), (-5.0, 5.0, 1)):
        assert np.array_equal(_linspace(lo, hi, n), np.linspace(lo, hi, n))


def test_verify_hamiltonian_scans_a_mirror_symmetric_grid(monkeypatch):
    grids = []

    def spy(m, mu, ks, x, orders):
        grids.append(x)
        return _wavefunction_stack(m, mu, ks, x, orders)

    monkeypatch.setattr(system, "_wavefunction_stack", spy)
    verify_hamiltonian(StateLabel(4, -5, 1), 1e-2)
    (x,) = grids
    assert np.array_equal(x, -x[::-1])
