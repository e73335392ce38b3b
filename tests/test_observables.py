"""Diagnostics: energies, number statistics, moment matrices, uncertainty
products and Wigner functions."""

import cmath
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ratosc import coherent, observables, specfun, system
from ratosc.coherent import (
    CoherentSpec,
    _amplitudes,
    _log_weights,
    coefficients,
    density,
    evolve,
    hypergeometric_parameters,
)
from ratosc.observables import (
    _factorial_moments,
    energy_expectation,
    mandel_q,
    moment_matrices,
    number_moments,
    uncertainties,
    uncertainty,
    wigner_cross_term,
    wigner_grid,
)
from ratosc.specfun import NumericalError, panel_nodes
from ratosc.system import (
    StateLabel,
    hamiltonian_potential,
    lowest_weights,
    wavefunction_rows,
)

# frozen from 60-digit evaluations of the closed forms
E_C2_M3_AT_17000 = 665.1610017716592724811145
E_C4_M5_AT_1E5 = 108.1534928213767760572195
Q_C4_M5_AT_10 = -0.0006472411735546168604651211
# frozen from a 20-digit quadrature chain through the explicit quotient form
SIGMA_X_LIN_C4_M5_AT_HALF = 0.454283813984146


def test_energy_at_zero_is_ground_of_ladder():
    for m in (2, 4, 6):
        for mu in lowest_weights(m):
            for variant in ("nonlinear", "linearized"):
                spec = CoherentSpec(variant, m, mu, 0.0)
                expected = 2.0 * mu + 2.0 * m + 2.0
                assert energy_expectation(spec, "closed_form") == pytest.approx(expected, abs=1e-12)
                assert energy_expectation(spec, "direct") == pytest.approx(expected, abs=1e-12)


def test_linearized_energy_is_quadratic():
    spec = CoherentSpec("linearized", 4, -5, 4.7)
    assert energy_expectation(spec) == pytest.approx(110.45, rel=1e-14)


def test_undeformed_limit_is_the_oscillator():
    """At m = 0 both variants reduce to ordinary oscillator coherent states:
    <E> = |z|^2 above the ground level and Poisson number statistics."""
    for variant in ("nonlinear", "linearized"):
        for az in (0.7, 3.0):
            spec = CoherentSpec(variant, 0, -1, az)
            assert energy_expectation(spec, "closed_form") == pytest.approx(az**2, rel=1e-12)
            assert energy_expectation(spec, "direct") == pytest.approx(az**2, rel=1e-12)
            assert abs(mandel_q(spec, "direct", tail_tol=1e-16)) < 1e-12


def test_undeformed_coherent_state_is_minimum_uncertainty():
    """The m = 0 state is a displaced Gaussian: the lowering operator is
    -sqrt(2) times the oscillator annihilation, so <x> = -Re z, and the
    uncertainty product saturates at 1/2.  This anchors the sign
    conventions of the whole coefficient pipeline."""
    from ratosc.coherent import coefficients

    spec = CoherentSpec("nonlinear", 0, -1, 2.0)
    c = coefficients(spec)
    mats = moment_matrices(0, -1, c.K)
    a = c.entries
    mean_x = float(np.real(np.conj(a) @ mats.mx @ a))
    assert mean_x == pytest.approx(-2.0, abs=1e-10)
    result = uncertainty(spec)
    assert result.sigma_x == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-10)
    assert result.product == pytest.approx(0.5, abs=1e-10)


def test_energy_frozen_values():
    assert energy_expectation(CoherentSpec("nonlinear", 2, -3, 17000.0)) == \
        pytest.approx(E_C2_M3_AT_17000, rel=1e-10)
    assert energy_expectation(CoherentSpec("nonlinear", 4, -5, 1e5)) == \
        pytest.approx(E_C4_M5_AT_1E5, rel=1e-10)


def test_energy_dual_route():
    for m, mu in ((2, -3), (4, 2), (6, -7)):
        for az in (1.0, 10.0, 1e3):
            spec = CoherentSpec("nonlinear", m, mu, az)
            closed = energy_expectation(spec, "closed_form")
            direct = energy_expectation(spec, "direct")
            assert closed == pytest.approx(direct, rel=1e-9)


def test_number_operator_consistency():
    """The rung-number mean must equal the energy above the ladder bottom in
    units of the level spacing."""
    for spec in (CoherentSpec("nonlinear", 4, -5, 55.0),
                 CoherentSpec("linearized", 6, 2, 2.2)):
        n_mean, _ = number_moments(spec, "direct")
        e_mean = energy_expectation(spec, "direct")
        recovered = (e_mean - 2.0 * spec.mu - 2.0 * spec.m - 2.0) / (2.0 * spec.m + 2.0)
        assert n_mean == pytest.approx(recovered, abs=1e-10)


def test_energy_is_affine_in_the_mean_rung_number():
    # <H> = 2 mu + 2m + 2 + (2m+2) <N>, bitwise, on both routes and variants
    for variant in ("nonlinear", "linearized"):
        for m, mu, az in ((0, -1, 0.0), (2, -3, 1e-170), (4, -5, 3.0), (6, 2, 40.0),
                          (12, -13, 300.0), (4, 1, 2.0 * cmath.exp(0.7j))):
            spec = CoherentSpec(variant, m, mu, az)
            for method in ("closed_form", "direct"):
                n_mean, _ = number_moments(spec, method)
                expected = 2.0 * mu + 2.0 * m + 2.0 + (2.0 * m + 2.0) * n_mean
                assert energy_expectation(spec, method) == expected, (spec, method)


def test_linearized_number_moments():
    spec = CoherentSpec("linearized", 6, -7, 3.0)
    n_mean, n_fact = number_moments(spec, "closed_form")
    assert n_mean == pytest.approx(0.5 * 9.0, rel=1e-14)
    assert n_fact == pytest.approx((0.5 * 9.0) ** 2, rel=1e-14)


def test_linearized_closed_forms_refuse_the_double_range_edge():
    # <N(N-1)> = |z|^4 / 4 overflows first, then <H> ~ (m+1)|z|^2
    n_mean, n_fact = number_moments(CoherentSpec("linearized", 4, -5, 1e76))
    assert n_mean == pytest.approx(5e151, rel=1e-15) and math.isfinite(n_fact)
    with pytest.raises(NumericalError):
        number_moments(CoherentSpec("linearized", 4, -5, 1e80))
    assert math.isfinite(energy_expectation(CoherentSpec("linearized", 4, -5, 1e150)))
    for az in (1e160, 1.7e308):
        with pytest.raises(NumericalError):
            energy_expectation(CoherentSpec("linearized", 4, -5, az))


def test_mandel_q_values():
    assert mandel_q(CoherentSpec("nonlinear", 4, -5, 0.0)) == 0.0
    assert mandel_q(CoherentSpec("linearized", 4, 3, 7.7), "closed_form") == 0.0
    assert abs(mandel_q(CoherentSpec("linearized", 4, 3, 4.0), "direct", tail_tol=1e-16)) < 1e-12
    q = mandel_q(CoherentSpec("nonlinear", 4, -5, 10.0))
    assert q == pytest.approx(Q_C4_M5_AT_10, rel=1e-9)
    q_direct = mandel_q(CoherentSpec("nonlinear", 4, -5, 10.0), "direct")
    assert q == pytest.approx(q_direct, rel=1e-8)


def test_linearized_direct_q_is_poissonian_at_large_z():
    # the weights are normalised from their peak, so they share no rounding
    # of a large ln sum: Q was -1.0e-10 and -8.2e-10 when they were divided by e^x
    for m, mu, az in ((4, -5, 30.0), (2, 1, 45.0)):
        weights = np.exp(_log_weights(CoherentSpec("linearized", m, mu, az), 1e-14)[0])
        assert abs(math.fsum(weights) - 1.0) <= 1e-15
        assert abs(mandel_q(CoherentSpec("linearized", m, mu, az), "direct")) <= 1e-12


def test_mandel_q_negative_for_nonlinear_order4():
    for mu in lowest_weights(4):
        for az in (1.0, 10.0, 1e3, 1e5):
            assert mandel_q(CoherentSpec("nonlinear", 4, mu, az)) < 0.0


def test_statistics_refuse_bad_method_and_tail_tol_at_zero():
    # the z = 0 and linearized shortcuts of mandel_q come after its checks,
    # so the three statistics refuse the same arguments everywhere
    for spec in (CoherentSpec("nonlinear", 4, -5, 0), CoherentSpec("linearized", 4, -5, 0),
                 CoherentSpec("nonlinear", 4, -5, 3.0), CoherentSpec("linearized", 6, 1, 2.0)):
        for quantity in (energy_expectation, number_moments, mandel_q):
            with pytest.raises(ValueError, match="method"):
                quantity(spec, "bogus")
            with pytest.raises(ValueError, match="tail_tol"):
                quantity(spec, "direct", tail_tol=1.0)
    assert mandel_q(CoherentSpec("nonlinear", 4, -5, 0), "direct") == 0.0


def test_direct_routes_are_bitwise_phase_invariant():
    # the direct routes read the weights |A_k|^2, which depend on |z| only
    for variant, m, mu, r in (("nonlinear", 4, -5, 1e5), ("nonlinear", 6, 1, 3.0),
                              ("linearized", 4, -5, 30.0), ("nonlinear", 2, -3, 1e-3)):
        for theta in (0.3, 1.0, math.pi / 2.0, 2.5, -2.0):
            z = cmath.rect(r, theta)
            base = CoherentSpec(variant, m, mu, abs(z))
            spec = CoherentSpec(variant, m, mu, z)
            for quantity in (energy_expectation, number_moments, mandel_q):
                assert quantity(spec, "direct") == quantity(base, "direct"), (spec, quantity)


def test_statistics_at_tiny_eigenvalue():
    # the series argument |z|^2 / (2m+2)^{m+1} underflows to 0 here
    for variant in ("nonlinear", "linearized"):
        for z in (1e-160, 1e-200, 1e-300):
            spec = CoherentSpec(variant, 4, -5, z)
            for method in ("closed_form", "direct"):
                n1, n2 = number_moments(spec, method)
                assert 0.0 <= n1 < 1e-300 and 0.0 <= n2 < 1e-300
                assert abs(mandel_q(spec, method)) < 1e-300
                # 2 mu + 2m + 2 = 0: the ground energy of this ladder
                assert energy_expectation(spec, method) == pytest.approx(0.0, abs=1e-300)


def test_out_of_reach_energy_fails_at_once():
    # the series terms peak near k = (|z|^2 / 216)^{1/3} ~ 1.7e7
    start = time.process_time()
    with pytest.raises(NumericalError):
        energy_expectation(CoherentSpec("nonlinear", 2, -3, 1e12))
    assert time.process_time() - start < 1.0


def test_closed_forms_refuse_past_their_rounding_bound():
    # K ~ 1e5: the running log sums lose the digits (Q was off by 0.9% and
    # 1.4%, unflagged); the bounds are 3.7e-5 and 8.6e-5, past 1e-8
    for m, mu, az in ((2, 1, 1e9), (10, 10, 3.59e35)):
        spec = CoherentSpec("nonlinear", m, mu, az)
        for call in (energy_expectation, number_moments, mandel_q):
            with pytest.raises(NumericalError, match="rounding bound"):
                call(spec, "closed_form")
        # the direct route answers, near the large-|z| limit -m/(m+1)
        assert mandel_q(spec, "direct") == pytest.approx(-m / (m + 1.0), abs=1e-4)


def _exact_factorial_moment(m, mu, abs_z, order):
    """order! x^order / prod_j (b_j)_order F(order+1; b+order; x) / F(1; b; x)
    in Fraction arithmetic, with the exact b_j and x of the double |z|, each
    series summed until a term falls below 1e-60 of the sum."""
    b = [Fraction(mu - j, m + 1) + 1 for j in range(1, m + 1)] + [Fraction(mu + m + 1, m + 1) + 1]
    x = Fraction(abs_z) ** 2 / (2 * m + 2) ** (m + 1)

    def series(a, lower):
        total, term, k = Fraction(0), Fraction(1), 0
        while abs(term) >= abs(total) * Fraction(1, 10 ** 60):
            total += term
            term = term * x * (a + k) / ((k + 1) * math.prod(bj + k for bj in lower))
            k += 1
        return total

    pref = Fraction(math.factorial(order)) / math.prod(bj + i for bj in b for i in range(order))
    return pref * x ** order * series(order + 1, [bj + order for bj in b]) / series(1, b)


def test_closed_form_bound_covers_the_moment_returned():
    # at small |z| the series are ~1 and the rounding of the exponent
    # order ln x + ln pref + (ln F_num - ln F_den) dominates: up to 4.3e-14
    # (m = 10, mu = 6, |z| = 1e-20, order 2), once against a bound of 4.4e-16
    for az in (1e-20, 1e-12, 1e-9):
        for m in range(0, 13, 2):
            for mu in lowest_weights(m):
                moments = _factorial_moments(m, mu, az, (1, 2))
                for order, (value, bound) in zip((1, 2), moments):
                    exact = _exact_factorial_moment(m, mu, az, order)
                    assert abs(Fraction(value) - exact) <= Fraction(bound) * abs(exact), \
                        (m, mu, az, order)
                    assert bound < 1e-12


def test_moment_matrix_structure():
    mats = moment_matrices(4, -5, 6)
    # parity selection: <a|x|b> = 0 whenever (m+1)(k_a - k_b) is even
    k = np.arange(7)
    same_parity = (k[:, None] - k[None, :]) % 2 == 0
    assert np.max(np.abs(mats.mx[same_parity])) < 1e-12
    assert np.max(np.abs(np.diag(mats.mx))) < 1e-12
    # hermiticity
    assert np.max(np.abs(mats.mx - mats.mx.T)) < 1e-9
    assert np.max(np.abs(mats.mx2 - mats.mx2.T)) < 1e-9
    assert np.max(np.abs(mats.mp2 - mats.mp2.T)) < 1e-9
    assert np.max(np.abs(mats.mp - np.conj(mats.mp.T))) < 1e-9
    assert np.max(np.abs(mats.mp.real)) < 1e-12
    assert np.max(np.abs(np.diag(mats.mp))) < 1e-12


def test_momentum_squared_ground_state_of_oscillator():
    mats = moment_matrices(0, -1, 2)
    # undeformed ground state: <p^2> = 1/2 in these units
    assert mats.mp2[0, 0].real == pytest.approx(0.5, abs=1e-10)
    assert mats.mx2[0, 0] == pytest.approx(0.5, abs=1e-10)


def test_momentum_squared_matches_eigen_identity():
    """<a|p^2|b> must equal the potential-subtracted eigenvalue route
    int psi_a (E_b - V) psi_b, an independent path through the Hamiltonian."""
    m, mu, K = 4, -5, 5
    mats = moment_matrices(m, mu, K)
    e_max = 2.0 * (mu + (m + 1) * K + m + 1)
    half = math.sqrt(2.0 * e_max) + 5.0
    xs, ws = panel_nodes(-half, half, 200, degree=20)
    rows = wavefunction_rows(m, mu, range(K + 1), xs)
    v = hamiltonian_potential(m, xs)
    for b in range(K + 1):
        e_b = 2.0 * mu + (2.0 * m + 2.0) * (b + 1)
        target = (rows * ws) @ ((e_b - v) * rows[b])
        assert np.max(np.abs(mats.mp2[:, b].real - target)) < 1e-8


def test_uncertainty_floor_and_symmetric_point():
    for spec in (CoherentSpec("nonlinear", 4, -5, 0.0),
                 CoherentSpec("nonlinear", 4, -5, 1.0 + 1.0j),
                 CoherentSpec("linearized", 6, -7, 0.5)):
        for t in (0.0, 0.07, 0.21):
            result = uncertainty(spec, t)
            assert result.product >= 0.5 - 1e-9
    # parity eigenstate at z = 0: sigma_x^2 = <x^2>
    mats = moment_matrices(4, -5, 8)
    res0 = uncertainty(CoherentSpec("nonlinear", 4, -5, 0.0))
    assert res0.sigma_x**2 == pytest.approx(mats.mx2[0, 0], rel=1e-9)


def test_squeezing_below_oscillator_width():
    result = uncertainty(CoherentSpec("linearized", 4, -5, 0.5))
    assert result.sigma_x == pytest.approx(SIGMA_X_LIN_C4_M5_AT_HALF, rel=1e-9)
    assert result.sigma_x < 1.0 / math.sqrt(2.0)
    assert result.product >= 0.5 - 1e-9


def test_wigner_kernel_gaussian_peak():
    w = wigner_cross_term(StateLabel(0, -1, 0), StateLabel(0, -1, 0), 0.0, 0.0)
    assert w.real == pytest.approx(1.0 / math.pi, rel=1e-10)
    assert abs(w.imag) < 1e-12
    # closed form for the undeformed ground state: exp(-x^2-p^2)/pi
    w2 = wigner_cross_term(StateLabel(0, -1, 0), StateLabel(0, -1, 0), 0.7, -0.4)
    assert abs(w2 - math.exp(-0.49 - 0.16) / math.pi) <= 1e-13


def test_wigner_kernel_conjugate_symmetry():
    a, b = StateLabel(6, -7, 1), StateLabel(6, -7, 2)
    w_ab = wigner_cross_term(a, b, 0.5, 0.3)
    w_ba = wigner_cross_term(b, a, 0.5, 0.3)
    assert w_ab == pytest.approx(w_ba.conjugate(), rel=1e-9)
    with pytest.raises(ValueError):
        wigner_cross_term(StateLabel(6, -7, 0), StateLabel(6, 1, 0), 0.0, 0.0)


def test_wigner_kernel_momentum_marginal():
    """Integrating the diagonal kernel over momentum returns the position
    density; checked on the undeformed ground state, where the kernel is an
    exact Gaussian and the momentum tails are negligible beyond |p| = 7."""
    label = StateLabel(0, -1, 0)
    from ratosc.system import wavefunction

    for x in (0.0, 0.9):
        ps, ws = panel_nodes(-7.0, 7.0, 10, degree=20)
        values = np.array([wigner_cross_term(label, label, x, p, 1e-11).real for p in ps])
        marginal = float(np.sum(ws * values))
        assert marginal == pytest.approx(wavefunction(label, x) ** 2, abs=1e-8)


def test_wigner_kernel_matches_panel_reference():
    """The lattice kernel against a fixed composite Gauss-Legendre rule on
    seeded rung pairs, positions and momenta, across deformation orders."""
    rng = np.random.default_rng(20261018)
    for _ in range(30):
        m = int(rng.choice([0, 2, 4, 6, 12]))
        mu = int(rng.choice(lowest_weights(m)))
        ka, kb = (int(k) for k in rng.integers(0, 8, size=2))
        x, p = float(rng.uniform(-4.0, 4.0)), float(rng.uniform(-6.0, 6.0))
        k_osc = math.sqrt(4.0 * max(mu + (m + 1) * 10 + m + 1, 1))
        half = k_osc + 10.0  # past the lattice's support max(k_osc + 4, 9)
        ys, ws = panel_nodes(-half, half, int(math.ceil(2.0 * half * (k_osc + 2.0 * abs(p)) / 5.0)),
                             degree=24)
        psi_a = wavefunction_rows(m, mu, [ka], x - ys)[0]
        psi_b = wavefunction_rows(m, mu, [kb], x + ys)[0]
        reference = np.sum(ws * psi_a * psi_b * np.exp(-2j * p * ys)) / math.pi
        kernel = wigner_cross_term(StateLabel(m, mu, ka), StateLabel(m, mu, kb), x, p)
        assert abs(kernel - reference) <= 1e-12, (m, mu, ka, kb, x, p)
    start = time.process_time()
    for p in (1e300, -1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="too fine"):
            wigner_cross_term(StateLabel(2, 1, 0), StateLabel(2, 1, 3), 0.5, p)
    assert time.process_time() - start < 0.1


def test_wigner_grid_small_case():
    spec = CoherentSpec("nonlinear", 2, -3, 2.0)
    grid = wigner_grid(spec, window=((-6, 6), (-12, 12)), resolution=(81, 161))
    assert grid.mass == pytest.approx(1.0, abs=1e-4)
    assert grid.values.shape == (81, 161)
    marginal = grid.marginal_x()
    rho = density(spec, grid.x)
    assert np.max(np.abs(marginal - rho)) < 1e-6
    assert grid.min_value <= 0.0
    assert grid.negative_volume >= 0.0


def test_wigner_grid_takes_the_state_truncation():
    # no rung floor below |z| = 10: the grid sums the rungs the state carries
    for spec in (CoherentSpec("nonlinear", 2, -3, 2.0), CoherentSpec("linearized", 6, 1, 0.5j)):
        grid = wigner_grid(spec, resolution=(5, 5), tail_tol=1e-12)
        assert grid.truncation == coefficients(spec, 1e-12).K


def test_wigner_grid_matches_kernel_double_sum():
    """Grid values against the literal double sum over per-pair lattice
    kernels, at a complex eigenvalue so every phase path is exercised."""
    import cmath

    spec = CoherentSpec("nonlinear", 2, 1, 1.3 * cmath.exp(0.6j))
    from ratosc.coherent import coefficients

    c = coefficients(spec, 1e-14)
    grid = wigner_grid(spec, window=((-4, 4), (-4, 4)), resolution=(9, 9),
                       tail_tol=1e-14)
    for i, j in ((2, 6), (4, 4), (7, 1)):
        x, p = float(grid.x[i]), float(grid.p[j])
        total = 0.0 + 0.0j
        for k1 in range(c.K + 1):
            for k2 in range(c.K + 1):
                weight = np.conj(c.entries[k1]) * c.entries[k2]
                if abs(weight) < 1e-13:
                    continue
                kern = wigner_cross_term(StateLabel(2, 1, k1), StateLabel(2, 1, k2),
                                         x, p, 1e-11)
                total += weight * kern
        assert abs(total.imag) < 1e-9
        assert grid.values[i, j] == pytest.approx(total.real, rel=1e-6, abs=1e-11)


def test_moment_matrices_refinement_guard(monkeypatch):
    from ratosc import observables
    from ratosc.specfun import NumericalError

    monkeypatch.setattr(observables, "_MAX_REFINEMENTS", 1)
    with pytest.raises(NumericalError, match="in refinement 1"):
        moment_matrices(4, -5, 8, abs_tol=1e-30)
    # the step's margin for the Gaussian momentum tail: the first lattice of
    # the lowest rungs is already right
    mats = moment_matrices(0, -1, 1, abs_tol=1e-30)
    assert mats.refinements == 1 and mats.change <= 1e-12
    monkeypatch.undo()
    # an abs_tol below the summation rounding of the entries is met at
    # 1e-13 of the largest entry instead
    mats = moment_matrices(4, -5, 8, abs_tol=1e-30)
    largest = max(np.max(np.abs(a)) for a in (mats.mx, mats.mx2, mats.mp, mats.mp2))
    assert 0.0 < mats.change <= 1e-13 * largest


def _forms(spec, t=0.0):
    """(sigma_x, sigma_p, product) as quadratic forms of the moment matrices
    at the state's own truncation: the reference of the amplitude route."""
    a = coefficients(evolve(spec, t)).entries
    mats = moment_matrices(spec.m, spec.mu, len(a) - 1)
    x1, x2, p1, p2 = (float(np.real(np.conj(a) @ mat @ a))
                      for mat in (mats.mx, mats.mx2, mats.mp, mats.mp2))
    sigma_x, sigma_p = math.sqrt(x2 - x1 * x1), math.sqrt(p2 - p1 * p1)
    return sigma_x, sigma_p, sigma_x * sigma_p


def test_uncertainty_beyond_the_old_cap():
    """States whose truncation passed the former K <= 60 moment-matrix
    limit, the split-packet regime of large |z|, agree with the quadratic
    forms of the moment matrices."""
    for spec, K in ((CoherentSpec("linearized", 4, -5, 8.0), 84),
                    (CoherentSpec("nonlinear", 2, 1, 1e4), 119),
                    (CoherentSpec("nonlinear", 4, -5, 1e7), 93)):
        assert coefficients(spec).K == K
        result = uncertainty(spec)
        assert result.product >= 0.5
        assert np.max(np.abs(np.subtract(result, _forms(spec))) / np.array(result)) <= 1e-12


def test_uncertainty_sums_the_amplitude_at_its_own_truncation(monkeypatch, recurrence_points):
    """One basis-kernel pass per lattice pass over exactly the rungs 0..K
    of the state, on mirror-symmetric node sets whose recurrence runs at
    each non-negative node of the accepted lattice once, the half-width
    k_osc + 4 being that of rung K; no moment matrix is built."""
    def refused(*args, **kwargs):
        raise AssertionError("the uncertainty route built a moment matrix")

    for name in ("moment_matrices", "_moment_sums", "_cached_matrices"):
        monkeypatch.setattr(observables, name, refused)
    passes = []
    real = observables._basis_blocks

    def counted(m, mu, ks, x, orders, *held):
        passes.append((list(ks), x.copy(), orders))
        return real(m, mu, ks, x, orders, *held)

    monkeypatch.setattr(observables, "_basis_blocks", counted)
    for spec in (CoherentSpec("nonlinear", 4, -5, 1.0 + 0.5j),     # K = 3
                 CoherentSpec("linearized", 6, -7, 3.0),
                 CoherentSpec("linearized", 4, -5, 8.0)):
        K = coefficients(spec).K
        passes.clear()
        recurrence_points.clear()
        uncertainty(spec, 0.07)
        assert passes and all(ks == list(range(K + 1)) and orders == (0, 1)
                              for ks, _, orders in passes)
        assert all(np.array_equal(x, -x[::-1]) for _, x, _ in passes)
        points = np.sort(np.concatenate(recurrence_points))
        assert np.unique(points).size == points.size and points[0] == 0.0
        step = points[-1] / (points.size - 1)
        assert np.allclose(points / step, np.arange(points.size), rtol=0, atol=1e-9)
        half = math.sqrt(4.0 * (spec.mu + (spec.m + 1) * K + spec.m + 1)) + 4.0
        assert points[-1] == pytest.approx(half, rel=1e-14)


def test_uncertainties_of_a_grid_match_one_call_per_state():
    """The README grid, 11 x 11 values of z, as one stack and one by one."""
    axis = np.linspace(-2.0, 2.0, 11)
    for variant, m, mu in (("nonlinear", 4, -5), ("linearized", 6, -7)):
        specs = [CoherentSpec(variant, m, mu, complex(re, im)) for re in axis for im in axis]
        stacked = np.array(uncertainties(specs, 0.07))
        alone = np.array([uncertainty(spec, 0.07) for spec in specs])
        assert np.max(np.abs(stacked - alone) / alone) <= 1e-13
    assert uncertainties([]) == []
    with pytest.raises(ValueError, match="one ladder"):
        uncertainties([CoherentSpec("nonlinear", 4, -5, 1.0), CoherentSpec("nonlinear", 4, 1, 1.0)])


def test_moment_matrices_refuse_past_the_state_index_range():
    # nu = mu + (m+1) K = 10000 is the largest supported top state
    start = time.process_time()
    with pytest.raises(ValueError, match="state index"):
        moment_matrices(4, -5, 2002)
    with pytest.raises(ValueError, match="state index"):
        uncertainty(CoherentSpec("linearized", 4, -5, 80.0))  # K ~ 3600
    assert time.process_time() - start < 0.1


def test_uncertainty_at_huge_time():
    """t is reduced modulo the period pi/(m+1) before the phase is formed;
    a non-finite t is refused."""
    spec = CoherentSpec("nonlinear", 2, -3, 3.0)
    for t in (1e308, -3e200, 12345.678):
        got = uncertainty(spec, t)
        want = uncertainty(spec, math.fmod(t, math.pi / 3))
        assert all(map(math.isfinite, got))
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            uncertainty(spec, t)


def test_wigner_grid_refuses_unbuildable_momentum_window(monkeypatch):
    # the step underflows to 0 near 1e308 and to ~1e-300 at 1e300
    spec = CoherentSpec("nonlinear", 2, -3, 2.0)
    for momenta in ((0.8e308, 0.9e308), (-1e300, 1e300), (-1e6, 1e6)):
        start = time.process_time()
        with pytest.raises(ValueError, match="momentum window"):
            wigner_grid(spec, ((-1.0, 1.0), momenta), (3, 3))
        assert time.process_time() - start < 0.1
    # close rows whose lattices would pass the bound are refused for their
    # rows, as the y kernel fits (under 2^23 the grid evaluates 447,044 points)
    monkeypatch.setattr(observables, "_WIGNER_MAX_ENTRIES", 1 << 16)
    with pytest.raises(ValueError, match="x rows spaced"):
        wigner_grid(CoherentSpec("nonlinear", 6, 1, 10.0), ((-0.3, 0.3), (-8.0, 8.0)), (10_000, 3))


def test_wigner_entry_points_refuse_bad_arguments(monkeypatch):
    spec = CoherentSpec("nonlinear", 2, -3, 1.0)
    with pytest.raises(ValueError, match="resolution"):
        wigner_grid(spec, resolution=(2.5, 3))
    a, b = StateLabel(2, -3, 0), StateLabel(2, -3, 1)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x must be finite"):
            wigner_cross_term(a, b, x, 0.3)
    with pytest.raises(ValueError, match="tol must be positive"):
        wigner_cross_term(a, b, 0.5, 0.3, tol=0.0)
    with pytest.raises(NumericalError, match="past tol"):
        wigner_cross_term(a, b, 0.5, 0.3, tol=1e-300)
    with monkeypatch.context() as patch:
        patch.setattr(observables, "_WIGNER_TOL", 0.0)
        with pytest.raises(NumericalError, match="step change"):
            wigner_grid(spec, resolution=(9, 9))


def test_wigner_grid_refuses_a_reversed_window(monkeypatch):
    # read backwards, the window gave the mass, negative volume and x
    # marginal with their signs flipped; each axis is refused by name
    # before any lattice is built, and a zero-width axis stays allowed
    spec = CoherentSpec("nonlinear", 4, -5, 3.0)
    forward = wigner_grid(spec, ((-8.0, 8.0), (-8.0, 8.0)), (5, 5))
    assert forward.mass > 0.0 and forward.negative_volume > 0.0
    monkeypatch.setattr(observables, "_wigner_lattice", None)  # any call fails
    for window, axis in ((((8.0, -8.0), (-8.0, 8.0)), "x"), (((-8.0, 8.0), (8.0, -8.0)), "p")):
        with pytest.raises(ValueError, match=f"the {axis} window .* is reversed"):
            wigner_grid(spec, window, (5, 5))
    monkeypatch.undo()
    for window in (((1.0, 1.0), (-3.0, 3.0)), ((-3.0, 3.0), (0.5, 0.5))):
        assert np.isfinite(wigner_grid(spec, window, (3, 5)).values).all()
    # rows far closer than the step: 1 + 1e-300 rounds to 1, and (0, 1e-300)
    # spaces the rows 5e-301 apart, so that the step over dx passes 1e298
    for x_window in ((1.0, 1.0 + 1e-300), (0.0, 1e-300)):
        try:
            grid = wigner_grid(spec, (x_window, (-3.0, 3.0)), (3, 5))
        except ValueError:
            continue
        assert np.isfinite(grid.values).all()


def test_wigner_grid_negativity_contrast():
    """The lowest-ladder state at small z is nearly positive (sub-percent
    dips, a genuine feature of the deformed ground state) while excited
    ladders show order-one negativity."""
    low = wigner_grid(CoherentSpec("nonlinear", 6, -7, 10.0))
    high = wigner_grid(CoherentSpec("nonlinear", 6, 1, 10.0))
    low_ratio = low.min_value / low.values.max()
    high_ratio = high.min_value / high.values.max()
    assert -0.02 < low_ratio < -1e-4
    assert high_ratio < -0.1


def _gauss_legendre_matrices(m, mu, K, abs_tol=1e-12, max_refinements=4):
    """The former moment-matrix rule: composite 20-point Gauss-Legendre
    panels on the same interval, refined by bisection until every entry is
    stable to abs_tol, with <p^2> as -int psi_a psi_b'' (no integration by
    parts)."""
    k_osc = math.sqrt(4.0 * max(mu + (m + 1) * K + m + 1, 1))
    half = k_osc + 4.0
    panels = max(8, int(math.ceil(2.0 * half * k_osc / 8.0)))

    def build(n_panels):
        xs, ws = panel_nodes(-half, half, n_panels, degree=20)
        p0, p1, p2 = (wavefunction_rows(m, mu, range(K + 1), xs, d) for d in (0, 1, 2))
        w0 = p0 * ws
        return ((w0 * xs) @ p0.T, (w0 * xs * xs) @ p0.T,
                -1j * (w0 @ p1.T), -(w0 @ p2.T))

    coarse = build(panels)
    for _ in range(max_refinements):
        panels *= 2
        fine = build(panels)
        if max(float(np.max(np.abs(f - c))) for f, c in zip(fine, coarse)) <= abs_tol:
            return fine
        coarse = fine
    raise AssertionError("reference route did not stabilise")


def test_moment_matrices_agree_with_gauss_legendre():
    # entries reach ~270 at K = 40; 1e-11 absolute is ~4e-14 of the largest
    for m, mu, K in ((0, -1, 2), (4, -5, 8), (2, 1, 12), (6, -7, 40)):
        mats = moment_matrices(m, mu, K)
        ref = _gauss_legendre_matrices(m, mu, K)
        for got, want in zip((mats.mx, mats.mx2, mats.mp, mats.mp2), ref):
            assert np.max(np.abs(got - want)) <= 1e-11, (m, mu, K)
        assert mats.change <= 1e-10
        # p^2 = h psi' psi'^T is positive semidefinite by construction
        assert np.min(np.linalg.eigvalsh(mats.mp2)) >= -1e-12


def test_moment_matrices_take_one_basis_pass_per_node_set(monkeypatch, recurrence_points):
    passes = []
    real = observables._basis_blocks

    def counted(*args):
        passes.append((args[3].copy(), args[4]))
        return real(*args)

    monkeypatch.setattr(observables, "_basis_blocks", counted)
    for m, mu, K in ((4, -5, 8), (6, -7, 40)):
        passes.clear()
        recurrence_points.clear()
        mats = moment_matrices(m, mu, K)
        assert passes and all(orders == (0, 1) for _, orders in passes)
        assert all(np.array_equal(x, -x[::-1]) for x, _ in passes)
        # every refinement evaluates only the new midpoints, and parity only
        # the half x >= 0: the recurrence runs at the non-negative nodes of
        # the accepted lattice, each once
        points = np.concatenate(recurrence_points)
        assert points.size == (mats.nodes + 1) // 2
        assert np.unique(points).size == points.size and points.min() == 0.0
        step = points.max() / ((mats.nodes - 1) // 2)
        assert np.allclose(points / step, np.rint(points / step), rtol=0, atol=1e-9)


def test_moment_matrices_work_space_is_bounded_by_the_block(monkeypatch):
    # beside three (4, K+1, K+1) stacks of lattice sums and their products,
    # the moment sums hold the kernel's two row buffers and one block
    # product, never the product of the block before (a fourth buffer)
    real = observables._basis_blocks
    widths = []

    def spy(*args, **kwargs):
        for start, stop, rows in real(*args, **kwargs):
            widths.append(stop - start)
            yield start, stop, rows

    monkeypatch.setattr(observables, "_basis_blocks", spy)
    for K in (40, 120):
        moment_matrices(6, -7, K)  # the cached series and tables outside the trace
        widths.clear()
        tracemalloc.start()
        try:
            moment_matrices(6, -7, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = K + 1
        assert peak <= 8 * (3 * rows * max(widths) + 13 * rows * rows) + (1 << 18), (K, peak)


def test_number_moments_share_the_denominator_series(monkeypatch):
    # one stacked pass per call, holding the denominator F(1; b; x) once
    # beside one numerator row per order
    calls = []
    real = observables._series_terms
    denominator = ((1.0,), hypergeometric_parameters(4, -5), False)

    def counted(rows, *args):
        calls.append(list(rows))
        return real(rows, *args)

    def rows_per_call():
        counts = [(len(rows), rows.count(denominator)) for rows in calls]
        calls.clear()
        return counts

    monkeypatch.setattr(observables, "_series_terms", counted)
    for az in (0.5, 10.0, 1e5):
        spec = CoherentSpec("nonlinear", 4, -5, az)
        calls.clear()
        n1, n2 = number_moments(spec)
        assert rows_per_call() == [(3, 1)]
        assert n1 == _factorial_moments(4, -5, az, (1,))[0][0]
        assert n2 == _factorial_moments(4, -5, az, (2,))[0][0]
        calls.clear()
        mandel_q(spec)
        assert rows_per_call() == [(3, 1)]
        energy_expectation(spec)
        assert rows_per_call() == [(2, 1)]


def test_wigner_grid_unchanged_by_real_amplitude_products(monkeypatch):
    # the complex coefficient vector times the real basis, as one complex
    # product (which casts the basis to complex), is the reference route
    cases = [(CoherentSpec("nonlinear", 6, 1, 10.0), ((-8.0, 8.0), (-8.0, 8.0))),
             (CoherentSpec("linearized", 4, -5, 1.5 - 2.0j), ((-6.0, 6.0), (-5.0, 5.0)))]
    new = [wigner_grid(spec, window, resolution=(31, 29)).values for spec, window in cases]
    monkeypatch.setattr(observables, "_amplitudes", lambda entries, psi: entries @ psi)
    old = [wigner_grid(spec, window, resolution=(31, 29)).values for spec, window in cases]
    for a, b in zip(new, old):
        assert np.max(np.abs(a - b)) <= 1e-13


def _panel_wigner_reference(spec, window, resolution, tail_tol=1e-14, chunk=400_000):
    """wigner_grid's former route: the amplitude at x - y and x + y for every
    grid x and every node of a composite Gauss-Legendre y rule."""
    c = coefficients(spec, tail_tol)
    (x_lo, x_hi), (p_lo, p_hi) = window
    x = np.linspace(x_lo, x_hi, resolution[0])
    p = np.linspace(p_lo, p_hi, resolution[1])
    k_osc = math.sqrt(2.0 * 2.0 * max(spec.mu + (spec.m + 1) * c.K + spec.m + 1, 1))
    half_y = k_osc + 6.0
    rate = k_osc + 2.0 * max(abs(p_lo), abs(p_hi))
    ys, ws = panel_nodes(-half_y, half_y, max(8, int(math.ceil(2.0 * half_y * rate / 10.0))),
                         degree=24)
    kernel = np.exp(-2j * np.outer(ys, p))
    values = np.empty((x.size, p.size), dtype=complex)
    rows = max(1, chunk // ys.size)
    for start in range(0, x.size, rows):
        xs = x[start:start + rows]
        amp_minus, amp_plus = (
            _amplitudes(c.entries, wavefunction_rows(spec.m, spec.mu, range(len(c.entries)),
                                                     (xs[:, None] + sign * ys).ravel()))
            for sign in (-1.0, 1.0))
        core = (np.conj(amp_minus) * amp_plus).reshape(xs.size, ys.size) * ws
        values[start:start + rows] = core @ kernel / math.pi
    return values.real


def test_wigner_grid_matches_panel_reference():
    # (12,-13) and (4,-5) on [-4,4]^2 are where the strip of analyticity,
    # not the band limit, sets the trapezoid step
    cases = [
        (CoherentSpec("nonlinear", 2, 1, 1.3 * cmath.exp(0.6j)), ((-4, 4), (-4, 4)), (9, 9)),
        (CoherentSpec("nonlinear", 12, -13, 2.0), ((-4, 4), (-4, 4)), (9, 9)),
        (CoherentSpec("nonlinear", 4, -5, 2.0), ((-4, 4), (-4, 4)), (9, 9)),
        (CoherentSpec("linearized", 4, -5, 1.5 - 2.0j), ((-6, 6), (-5, 5)), (31, 29)),
        (CoherentSpec("nonlinear", 4, -5, 3.0), ((1, 1), (-3, 3)), (3, 9)),     # zero width
        (CoherentSpec("nonlinear", 6, 1, 2.0), ((0.3, 0.5), (-3, 3)), (9, 9)),  # dx < step
        # rows closer than half the step, on lattices shared by every q-th row
        (CoherentSpec("linearized", 12, 9, 16.5), ((-10.52, -10.39), (-8, 8)), (12, 5)),
        (CoherentSpec("nonlinear", 6, 1, 10.0), ((-0.3, 0.3), (-8, 8)), (21, 41)),
        (CoherentSpec("nonlinear", 6, 1, 10.0), ((4.0, 4.5), (-8, 8)), (11, 5)),
    ]
    for spec, window, resolution in cases:
        grid = wigner_grid(spec, window, resolution)
        # at K = 235 the reference sums 236 rungs at ~71,000 y nodes a row,
        # so there it is taken on the first and the last row only
        found = spec.m == 12 and spec.mu == 9
        reference = _panel_wigner_reference(spec, window, (2 if found else resolution[0],
                                                           resolution[1]))
        values = grid.values[[0, -1]] if found else grid.values
        assert np.max(np.abs(values - reference)) <= 1e-12, (spec, window)
        assert grid.change <= 1e-12 and np.isrealobj(grid.values)
        # row i lies on the lattice through row i mod q, q the rows closer
        # than h0/2: q dx is a whole number of spacings h/2, or each of the
        # rows inside the support takes a lattice of its own at h = h0
        k_osc = system._turning_point(spec.m, spec.mu, grid.truncation)
        half = max(k_osc + system._SUPPORT_PADDING, observables._WIGNER_MIN_SUPPORT)
        h0 = observables._lattice_step(spec.m, k_osc, float(np.max(np.abs(grid.p))))
        dx, n = grid.x[1] - grid.x[0], int(np.sum(np.abs(grid.x) <= half))
        q = 1 if dx == 0.0 else min(n, max(1, math.floor(0.5 * h0 / dx)))
        spacings = q * dx / (0.5 * grid.step)
        assert (q < n and spacings == pytest.approx(round(spacings), abs=1e-9)
                or q == n and grid.step == h0), (spec, window)
        if found:  # a lattice per row would take 313,500 points
            assert grid.lattice_points < 50_000


def test_wigner_grid_of_the_oscillator_coherent_state_is_gaussian():
    # m = 0 is the oscillator: W = exp(-(x - x0)^2 - (p - p0)^2) / pi about
    # x0 + i p0 = -z for the nonlinear ladder (its sign (-1)^k) and +z for
    # the linearized one
    for variant, sign in (("nonlinear", -1.0), ("linearized", 1.0)):
        for z in (1.3 - 0.7j, 0.4 + 2.1j):
            grid = wigner_grid(CoherentSpec(variant, 0, -1, z), ((-4, 4), (-4, 4)), (33, 33),
                               tail_tol=1e-30)
            x, p = np.meshgrid(grid.x, grid.p, indexing="ij")
            exact = np.exp(-(x - sign * z.real) ** 2 - (p - sign * z.imag) ** 2) / math.pi
            assert np.max(np.abs(grid.values - exact)) <= 5e-16, (variant, z)


def test_wigner_grid_answers_a_window_that_misses_the_mass():
    # the window holds W ~ 1e-9 of a state whose peak is ~0.03; the step
    # change (~4e-15) is judged against the absolute 1e-10, not against the
    # window's peak, and the values are those of a window holding the mass
    spec = CoherentSpec("nonlinear", 4, -5, 1e9)
    small = wigner_grid(spec, ((-6.0, 6.0), (-6.0, 6.0)), (21, 21))
    wide = wigner_grid(spec, ((-102.0, 102.0), (-102.0, 102.0)), (35, 35))  # spacing 6
    assert np.max(np.abs(small.values)) < 1e-8 < 1e-3 < wide.values.max()
    rows = np.searchsorted(wide.x, [-6.0, 0.0, 6.0])
    assert np.array_equal(wide.x[rows], small.x[[0, 10, 20]])
    assert np.array_equal(wide.p[rows], small.p[[0, 10, 20]])
    cut = wide.values[np.ix_(rows, rows)]
    assert np.max(np.abs(cut - small.values[np.ix_([0, 10, 20], [0, 10, 20])])) <= 1e-12


def test_wigner_grid_is_zero_off_the_support():
    spec = CoherentSpec("nonlinear", 4, -5, 3.0)
    wide = wigner_grid(spec, ((-200.0, 300.0), (-3.0, 3.0)), (41, 9))
    reference = _panel_wigner_reference(spec, ((-200.0, 300.0), (-3.0, 3.0)), (41, 9))
    assert np.max(np.abs(wide.values - reference)) <= 1e-12
    for edge in (1e300, 8e307):  # past ~1e302 the window over the step overflows
        far = wigner_grid(spec, ((-edge, edge), (-3.0, 3.0)), (2, 9))
        assert not far.values.any() and far.lattice_points == 0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            wigner_grid(spec, ((-4.0, bad), (-3.0, 3.0)), (9, 9))


def test_wigner_grid_takes_the_model_support(recurrence_points):
    # the amplitude's support is that of every spatial path of the model,
    # |x| <= k_osc + 4: rows past it are exactly 0, and the shared lattice
    # evaluates no point more than half a step beyond it
    spec = CoherentSpec("nonlinear", 6, 1, 10.0)
    half = system._turning_point(6, 1, coefficients(spec).K) + system._SUPPORT_PADDING
    assert half > observables._WIGNER_MIN_SUPPORT
    grid = wigner_grid(spec, window=((-half - 1.5, half + 1.5), (-8.0, 8.0)),
                       resolution=(61, 41))
    outside = np.abs(grid.x) > half
    assert outside.any() and not outside.all()
    assert np.all(grid.values[outside] == 0.0)
    assert grid.step <= grid.x[1] - grid.x[0]  # one lattice shared by the rows
    assert np.max(np.abs(np.concatenate(recurrence_points))) <= half + 0.5 * grid.step
    # rows closer than the step share lattices that keep to the support too
    # (a lattice centred on each row would reach 17.94 against 13.38), and
    # 10,000 rows within 0.6 answer (a lattice each would pass the bound)
    for x_window, resolution in (((4.0, 4.5), (11, 5)), ((-0.3, 0.3), (10_000, 3))):
        recurrence_points.clear()
        grid = wigner_grid(spec, (x_window, (-8.0, 8.0)), resolution)
        assert np.isfinite(grid.values).all() and grid.change <= 1e-12
        assert np.max(np.abs(np.concatenate(recurrence_points))) <= half + 0.5 * grid.step
    # below k_osc ~ 5 that support would cut the Gaussian tail of the lowest
    # rungs at ~1e-8, which the integrand pairs with the peak: the m = 0
    # ground state (k_osc = 2) keeps |x| <= 9 and its exact exp(-x^2-p^2)/pi
    # on a shared lattice
    grid = wigner_grid(CoherentSpec("nonlinear", 0, -1, 1e-8), resolution=(17, 17))
    assert grid.truncation == 0 and grid.step <= grid.x[1] - grid.x[0]
    exact = np.exp(-grid.x[:, None] ** 2 - grid.p[None, :] ** 2) / math.pi
    assert np.max(np.abs(grid.values - exact)) <= 1e-15


def test_wigner_grid_evaluates_the_amplitude_once(monkeypatch):
    calls = []
    real = observables._basis_blocks

    def counted(*args, **kwargs):
        calls.append(args[3].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(observables, "_basis_blocks", counted)
    grid = wigner_grid(CoherentSpec("nonlinear", 6, 1, 10.0), resolution=(41, 41))
    assert calls == [grid.lattice_points]


def test_pole_distance_matches_gauss_hermite_nodes():
    # the strip half-width of the lattice step, the smallest |zero| of H_m,
    # from Newton steps on H_m, against the Gauss-Hermite nodes of numpy
    for m in range(2, 13, 2):
        nodes = np.polynomial.hermite.hermgauss(m)[0]
        expected = float(np.min(np.abs(nodes)))
        assert observables._pole_distance(m) == pytest.approx(expected, rel=4.5e-16, abs=0.0)


def test_both_statistics_routes_cut_the_weights_at_one_log_x(monkeypatch):
    # the weights of the direct route are the first terms of the closed
    # form's denominator F(1; b; x), to the bit, and are normalised from
    # the peak term by the scaled sum: both routes cut F at one ln x
    seen = []

    def spy(rows, *args):
        out = specfun._series_terms(rows, *args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(coherent, "_series_terms", spy)
    monkeypatch.setattr(observables, "_series_terms", spy)
    normalised = []
    for m in (0, 2, 4, 6, 12):
        for mu in lowest_weights(m):
            for az in (1e-3, 0.7, 3.0, 10.0, 100.0):
                seen.clear()
                log_w, _ = _log_weights(CoherentSpec("nonlinear", m, mu, az), 1e-14)
                try:
                    _factorial_moments(m, mu, az, (1,))
                except NumericalError:  # the rounding guard refuses after the sums
                    pass
                weights, den = seen
                assert len(weights.logs) <= len(den.logs), (m, mu, az)
                assert weights.logs.tobytes() == den.logs[:len(weights.logs)].tobytes(), (m, mu, az)
                normalised.append((log_w, weights))
    for log_w, weights in normalised:
        assert np.array_equal(log_w, (weights.logs - weights.peak) - math.log(weights.total))
