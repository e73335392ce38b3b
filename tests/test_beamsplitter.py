"""Balanced-beamsplitter checks: amplitude table, joint number statistics,
factorization and linear entropy."""

import cmath
import math
import time
import tracemalloc
from math import lgamma

import numpy as np
import pytest

from ratosc.beamsplitter import (
    TwoModeDistribution,
    linear_entropy,
    rank_one_residual,
    split,
    two_photon_distribution,
)
from ratosc.coherent import (
    VARIANTS,
    CoefficientVector,
    CoherentSpec,
    cat_coefficients,
    coefficients,
    hypergeometric_parameters,
    normalization_F,
    series_argument,
)
from ratosc.specfun import NumericalError
from ratosc.system import lowest_weights


# the m = 0 ladder climbs one state index per rung, so K may reach 10,000
_LADDER_M0 = CoherentSpec("nonlinear", 0, -1, 0.0)


def _vector(entries, spec=None):
    spec = spec or CoherentSpec("nonlinear", 4, -5, 0.0)
    return CoefficientVector(spec, np.asarray(entries, dtype=complex), 0.0)


def _reference_split(a):
    """One lgamma call per entry, row by row: the route split replaced.

    Row k, column r holds the amplitude at n1 + n2 = k, n2 = r; _arm_layout
    reads it in the (n1, n2) layout of the split table."""
    K = len(a) - 1
    g = np.zeros((K + 1, K + 1), dtype=complex)
    for k in range(K + 1):
        logs = np.array([lgamma(k + 1) - lgamma(min(r, k - r) + 1) - lgamma(k - min(r, k - r) + 1)
                         for r in range(k + 1)])
        g[k, : k + 1] = a[k] * np.exp(0.5 * logs - 0.5 * k * math.log(2.0))
    return g


def _arm_layout(g):
    """The (k, r) table g read as ref[n1 + n2, n2]; zero where n1 + n2 > K."""
    K = g.shape[0] - 1
    n1, n2 = np.indices(g.shape)
    return np.where(n1 + n2 <= K, g[np.minimum(n1 + n2, K), n2], 0.0)


def _reference_purity(amp):
    """Double loop over inner products of the columns of the (n1, n2) table,
    column n2 cut at n1 = K - n2."""
    K = amp.shape[0] - 1
    cols = [amp[: K + 1 - r, r] for r in range(K + 1)]
    purity = 0.0
    for r1, v1 in enumerate(cols):
        for v2 in cols[r1:]:
            n = min(v1.size, v2.size)
            inner = abs(np.vdot(v2[:n], v1[:n])) ** 2
            purity += inner if v2 is v1 else 2.0 * inner
    return purity


def _table_purity(amp):
    """||T T^H||_F^2 of the dense (n1, n2) table T, summed over products of
    16-row blocks."""
    K = amp.shape[0] - 1
    purity = 0.0
    for j0 in range(0, K + 1, 16):
        w = K + 1 - j0
        later = amp[j0:j0 + 16, :w].conj().T
        for i0 in range(0, j0 + 1, 16):
            block = amp[i0:i0 + 16, :w] @ later
            inner = float(np.vdot(block, block).real)
            purity += inner if j0 == i0 else 2.0 * inner
    return purity


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _svd_residual(p):
    """max|P - s u v^T| for the leading triplet of a dense SVD: the oracle."""
    u, s, vt = np.linalg.svd(p)
    return float(np.max(np.abs(p - s[0] * np.outer(u[:, 0], vt[0])))), s


def _fock(n):
    entries = np.zeros(n + 1)
    entries[n] = 1.0
    return _vector(entries, _LADDER_M0)


def _random_state(rng, K):
    a = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
    return a / np.linalg.norm(a)


def test_vacuum_input_stays_vacuum():
    out = split(_vector([1.0]))
    assert out.K == 0
    assert out.amplitudes[0, 0] == 1.0
    dist = two_photon_distribution(out)
    assert dist.p[0, 0] == 1.0
    assert linear_entropy(out).value == 0.0


def test_single_quantum_splits_evenly():
    out = split(_vector([0.0, 1.0]))
    assert out.amplitudes[1, 0] == pytest.approx(1.0 / math.sqrt(2.0))
    assert out.amplitudes[0, 1] == pytest.approx(1.0 / math.sqrt(2.0))
    dist = two_photon_distribution(out)
    assert dist.p[1, 0] == pytest.approx(0.5)
    assert dist.p[0, 1] == pytest.approx(0.5)


def test_row_norms_reproduce_input_weights():
    coeffs = coefficients(CoherentSpec("nonlinear", 4, -5, 2.0e3))
    out = split(coeffs)
    for k in range(out.K + 1):
        n2 = np.arange(k + 1)
        row = float(np.sum(np.abs(out.amplitudes[k - n2, n2]) ** 2))
        assert row == pytest.approx(abs(coeffs.entries[k]) ** 2, rel=1e-13)


def test_distribution_symmetry_and_mass():
    coeffs = coefficients(CoherentSpec("nonlinear", 6, 3, 500.0))
    dist = two_photon_distribution(split(coeffs))
    assert np.max(np.abs(dist.p - dist.p.T)) == 0.0
    assert np.all(dist.p >= 0.0)
    assert dist.total_mass == pytest.approx(coeffs.norm_sq(), abs=1e-10)


def test_poissonian_input_factorizes():
    for z in (1.5, 3.0):
        coeffs = coefficients(CoherentSpec("linearized", 2, 1, z), 1e-14)
        dist = two_photon_distribution(split(coeffs))
        mean = z * z / 4.0
        n = np.arange(dist.p.shape[0])
        marginal = np.exp(-mean) * mean**n / np.array([math.factorial(i) for i in n])
        assert np.max(np.abs(dist.p - np.outer(marginal, marginal))) < 1e-12
        assert rank_one_residual(dist) < 1e-12


def test_nonlinear_distribution_matches_gamma_closed_form():
    """Joint probabilities for the lowest order-4 ladder at |z| = 1e5 against
    the log-gamma expression for the weights, an independent route."""
    az = 1e5
    coeffs = coefficients(CoherentSpec("nonlinear", 4, -5, az))
    dist = two_photon_distribution(split(coeffs))
    x = series_argument(4, az)
    log_f = normalization_F(4, -5, az).log_mag
    b = hypergeometric_parameters(4, -5)
    for n1 in range(0, 13):
        for n2 in range(0, 13 - n1):
            s = n1 + n2
            log_w = (s * math.log(x) if s else 0.0) - log_f
            for bj in b:
                log_w -= lgamma(bj + s) - lgamma(bj)
            expected = math.exp(log_w) * math.comb(s, n2) / 2.0**s
            assert dist.p[n1, n2] == pytest.approx(expected, rel=1e-9)


def test_nonlinear_output_does_not_factorize():
    coeffs = coefficients(CoherentSpec("nonlinear", 4, -5, 1e5))
    dist = two_photon_distribution(split(coeffs))
    assert rank_one_residual(dist) > 1e-3


def test_marginal_equals_reduced_state_diagonal():
    coeffs = coefficients(CoherentSpec("nonlinear", 4, -5, 1e3))
    out = split(coeffs)
    dist = two_photon_distribution(out)
    marginal = dist.p.sum(axis=1)
    K = out.K
    diagonal = np.array([
        sum(abs(out.amplitudes[n1, r]) ** 2 for r in range(K + 1 - n1))
        for n1 in range(K + 1)
    ])
    assert np.max(np.abs(marginal - diagonal)) < 1e-10


def test_linear_entropy_values():
    z0 = split(coefficients(CoherentSpec("nonlinear", 4, -5, 0.0)))
    assert linear_entropy(z0).value == 0.0
    for z in (1.0, 4.0):
        lin = split(coefficients(CoherentSpec("linearized", 4, -5, z)))
        assert linear_entropy(lin).value < 1e-9
    for z in (1e3, 1e5):
        out = split(coefficients(CoherentSpec("nonlinear", 4, -5, z)))
        result = linear_entropy(out)
        assert result.value > 0.05
        assert 0.0 <= result.value < 1.0


def test_entropy_error_bound_tracks_tail():
    coeffs = coefficients(CoherentSpec("nonlinear", 4, -5, 1e3), 1e-12)
    result = linear_entropy(split(coeffs))
    assert result.error_bound >= 2.0 * coeffs.tail_mass
    assert result.error_bound < 1e-10


def test_entropy_rounding_stays_inside_error_bound():
    # a linearized input stays pure, so only rounding moves the value off 0
    lin = coefficients(CoherentSpec("linearized", 4, -5, 30.0))
    near_zero = linear_entropy(split(lin))
    assert 0.0 <= near_zero.value <= near_zero.error_bound  # 9.2e-14 against 3.7e-12
    # a purity past 1 by rounding alone (-3e-13 before the clamp) is clamped to 0
    scaled = CoefficientVector(lin.spec, lin.entries * (1.0 + 1e-13), lin.tail_mass)
    assert linear_entropy(split(scaled)).value == 0.0
    above = linear_entropy(split(coefficients(CoherentSpec("linearized", 4, -5, 35.0))))
    assert 0.0 <= above.value <= above.error_bound  # 4.1e-13 at K = 811
    assert above.error_bound < 1e-11


def test_entropy_invariant_under_eigenvalue_phase():
    base = CoherentSpec("nonlinear", 4, -5, 1e3)
    rotated = CoherentSpec("nonlinear", 4, -5, 1e3 * cmath.exp(1j * math.pi / 3.0))
    s_base = linear_entropy(split(coefficients(base))).value
    s_rot = linear_entropy(split(coefficients(rotated))).value
    assert s_base == pytest.approx(s_rot, abs=1e-10)


def test_split_is_bitwise_the_per_entry_route():
    rng = np.random.default_rng(11)
    # the table is filled in blocks of 16 rows: both edges of the first two
    for K in (0, 1, 2, 15, 16, 17, 31, 32, 33, 64, 137, 200):
        a = _random_state(rng, K)
        assert np.array_equal(split(_vector(a)).amplitudes, _arm_layout(_reference_split(a)))
    coeffs = coefficients(CoherentSpec("linearized", 4, -5, 12.0))
    assert coeffs.K <= 200
    assert np.array_equal(split(coeffs).amplitudes,
                          _arm_layout(_reference_split(coeffs.entries)))


def test_blocked_purity_matches_double_loop():
    # one short block, exact multiples of the block size and remainders
    rng = np.random.default_rng(5)
    for K in (0, 1, 30, 31, 32, 63, 64, 65, 120):
        out = split(_vector(_random_state(rng, K)))
        assert linear_entropy(out).value == pytest.approx(
            1.0 - _reference_purity(out.amplitudes), abs=1e-14)
    out = split(coefficients(CoherentSpec("nonlinear", 4, -5, 1e3)))
    assert out.K <= 120
    assert linear_entropy(out).value == pytest.approx(
        1.0 - _reference_purity(out.amplitudes), abs=1e-14)


def test_distribution_scatter_is_bitwise_the_double_loop():
    rng = np.random.default_rng(23)
    for K in (0, 1, 2, 23, 100, 200):
        a = _random_state(rng, K)
        out = split(_vector(a))
        gm = np.abs(_reference_split(a)) ** 2  # (k, r) layout, k = n1 + n2
        reference = np.zeros((K + 1, K + 1))
        for s in range(K + 1):
            for n2 in range(s + 1):
                reference[s - n2, n2] = gm[s, n2]
        assert np.array_equal(two_photon_distribution(out).p, reference)


def test_two_copy_entropy_matches_the_loop_over_the_table():
    rng = np.random.default_rng(17)
    # sub-normalised so the entropy sits far from its clamp at 0
    for K in (0, 1, 15, 16, 17, 137, 400):
        out = split(_vector(0.8 * _random_state(rng, K)))
        assert linear_entropy(out).value == pytest.approx(
            1.0 - _table_purity(out.amplitudes), abs=1e-14)


def test_random_state_entropy_is_the_table_purity_within_the_bound():
    rng = np.random.default_rng(29)
    for K in (2, 300, 2000):
        out = split(_vector(_random_state(rng, K)))
        result = linear_entropy(out)
        assert abs(result.value - (1.0 - _table_purity(out.amplitudes))) <= result.error_bound


def test_fock_input_entropy_is_one_minus_the_central_binomial():
    # |n> splits into the binomial mixture C(n, k) / 2^n over one arm, whose
    # purity is sum_k C(n, k)^2 / 4^n = C(2n, n) / 4^n
    for n in (0, 1, 2, 10, 100, 1000, 3000):
        fock = np.zeros(n + 1)
        fock[n] = 1.0
        result = linear_entropy(split(_vector(fock, _LADDER_M0)))
        exact = 1.0 - math.comb(2 * n, n) / 4**n
        assert abs(result.value - exact) <= result.error_bound, n


def test_linearized_entropy_is_zero_within_the_bound_up_to_k_2000():
    # a linearized input is a coherent state of the rungs, so both arms
    # stay pure and only rounding and the tail move the value off 0
    for z in (10.0, 30.0, 45.0, 60.0):
        coeffs = coefficients(CoherentSpec("linearized", 0, -1, z))
        result = linear_entropy(split(coeffs))
        assert 0.0 <= result.value <= result.error_bound, z
    assert coeffs.K > 2000


def test_entropy_is_prompt_at_the_state_index_edge():
    # m = 0 climbs one state index per rung: K = 10,000 is the top of the domain
    K = 10000
    out = split(_vector(_random_state(np.random.default_rng(6), K), _LADDER_M0))
    start = time.process_time()
    result = linear_entropy(out)
    assert time.process_time() - start < 5.0
    assert 0.0 < result.value < 1.0


def test_split_allocates_nothing_quadratic():
    K = 600
    coeffs = _vector(_random_state(np.random.default_rng(3), K))
    peak = _traced_peak(lambda: split(coeffs))
    assert peak < 0.01 * (K + 1) ** 2 * np.dtype(complex).itemsize
    out = split(coeffs)
    assert out.amplitudes is out.amplitudes  # formed on first access, then kept


def test_split_is_prompt_where_the_table_would_be_a_gigabyte():
    # m = 0 climbs one state index per rung, so K = 8,000 stays valid
    K = 8000
    coeffs = _vector(_random_state(np.random.default_rng(4), K),
                     CoherentSpec("nonlinear", 0, -1, 0.0))
    assert (K + 1) ** 2 * np.dtype(complex).itemsize > 1e9
    start = time.process_time()
    out = split(coeffs)
    assert time.process_time() - start < 0.1
    assert out.K == K


def test_entropy_peak_memory_grows_linearly_in_k():
    # the 16-row blocks of pairs hold a few arrays of 16 x (K + 16) entries:
    # ~88 complex entries per rung at K = 600 and ~69 at K = 10,000
    for K in (600, 10000):
        out = split(_vector(_random_state(np.random.default_rng(3), K), _LADDER_M0))
        peak = _traced_peak(lambda: linear_entropy(out))
        assert peak <= 100 * (K + 1) * np.dtype(complex).itemsize, K


def test_distribution_peak_memory_is_one_table():
    # P is written from the formed rows block by block, with no complex
    # table or index arrays beside it
    K = 600
    out = split(_vector(_random_state(np.random.default_rng(3), K)))
    peak = _traced_peak(lambda: two_photon_distribution(out))
    assert peak <= 1.5 * (K + 1) ** 2 * np.dtype(float).itemsize


def test_split_refuses_tables_past_the_state_index_bound():
    # K = 31,117 (m = 8) and K = 8,846 (m = 6): tables of 14.4 GiB and 1.2 GiB
    for spec in (CoherentSpec("nonlinear", 8, -9, 6.9e25), CoherentSpec("nonlinear", 6, 3, 6e17)):
        coeffs = coefficients(spec)
        start = time.process_time()
        with pytest.raises(ValueError, match="state index"):
            split(coeffs)
        assert time.process_time() - start < 0.1


def _distribution(coeffs):
    return two_photon_distribution(split(coeffs))


def test_rank_one_residual_matches_the_svd_oracle_over_every_ladder():
    compared = 0
    for m in range(0, 13, 2):
        for mu in lowest_weights(m):
            for variant in VARIANTS:
                for az in (0.0, 0.5, 3.0, 30.0, 1e3, 1e5, 1e8):
                    try:
                        coeffs = coefficients(CoherentSpec(variant, m, mu, az))
                    except (ValueError, NumericalError):
                        continue  # past the coefficient caps
                    if coeffs.K > 250:  # the oracle's O(K^3) SVD
                        continue
                    dist = _distribution(coeffs)
                    expected, _ = _svd_residual(dist.p)
                    assert abs(rank_one_residual(dist) - expected) <= 1e-13 * dist.p.max(), \
                        (variant, m, mu, az)
                    compared += 1
    assert compared >= 400
    # one table of K = 1,026, past the sweep
    dist = _distribution(coefficients(CoherentSpec("linearized", 4, -5, 40.0)))
    assert dist.p.shape[0] == 1027
    assert abs(rank_one_residual(dist) - _svd_residual(dist.p)[0]) <= 1e-13 * dist.p.max()


def test_rank_one_residual_separates_close_leading_values():
    # even cats and |50>: sigma2 / sigma1 up to 0.996, still a unique triplet
    cases = [(_distribution(cat_coefficients(CoherentSpec("nonlinear", m, mu, az), "even")), ratio)
             for m, mu, az, ratio in ((0, -1, 3.0, 0.964), (4, -5, 1e5, 0.991),
                                      (6, -7, 1e8, 0.996))]
    cases.append((_distribution(_fock(50)), 25.0 / 26.0))
    for dist, ratio in cases:
        expected, s = _svd_residual(dist.p)
        assert s[1] / s[0] == pytest.approx(ratio, abs=5e-4)
        assert abs(rank_one_residual(dist) - expected) <= 1e-13 * dist.p.max()


def test_rank_one_residual_refuses_a_tied_leading_value_promptly():
    # sigma1 = sigma2 exactly: the odd cat's P is bipartite in the parity of
    # n1, and |5> pairs C(5, 2) with C(5, 3); no best rank-one P is unique
    for coeffs in (cat_coefficients(CoherentSpec("nonlinear", 4, -5, 1e5), "odd"), _fock(5)):
        dist = _distribution(coeffs)
        start = time.process_time()
        with pytest.raises(NumericalError, match="sigma2/sigma1"):
            rank_one_residual(dist)
        assert time.process_time() - start < 0.1


def test_rank_one_residual_forms_no_second_table(monkeypatch):
    # no LAPACK call and no (K+1)^2 array beside P
    for name in ("svd", "eig", "eigh", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, name, None)
    dist = _distribution(coefficients(CoherentSpec("linearized", 4, -5, 40.0)))
    peak = _traced_peak(lambda: rank_one_residual(dist))
    assert peak <= 0.1 * dist.p.nbytes  # 0.036 P measured
    assert rank_one_residual(TwoModeDistribution(np.zeros((3, 3)), 0.0)) == 0.0
    assert rank_one_residual(TwoModeDistribution(np.array([[0.25]]), 0.25)) == 0.0
