"""Coherent-state construction: coefficients, normalisation, evolution,
densities, cat states and overlaps."""

import cmath
import math
import time
import tracemalloc
from math import lgamma

import numpy as np
import pytest

from ratosc.coherent import (
    CoherentSpec,
    cat_coefficients,
    coefficients,
    count_local_maxima,
    count_wavepackets,
    default_grid,
    density,
    density_profile,
    eigen_residual,
    evolve,
    fringe_wavelength,
    hypergeometric_parameters,
    normalization_F,
    overlap,
    overlap_closed_form,
    series_argument,
)
from ratosc.coherent import (MAX_COEFFICIENTS, _PROFILE_BLOCK, _profile_from_coefficients,
                             _support_grid)
from ratosc import coherent, system
from ratosc.specfun import NumericalError
from ratosc.system import StateLabel, ladder_element, lowest_weights, wavefunction, wavefunction_rows

# frozen from 60-digit evaluations
F_45_AT_10_POW_2_5 = 389.6386367469463117111354
D_6_M7_AT_10 = 0.9996900282111558359100705


def test_spec_validation():
    with pytest.raises(ValueError):
        CoherentSpec("squeezed", 4, -5, 1.0)
    with pytest.raises(ValueError):
        CoherentSpec("nonlinear", 4, 7, 1.0)
    spec = CoherentSpec("nonlinear", 4, -5, 2.0 + 1.0j)
    assert spec.abs_z == pytest.approx(abs(2.0 + 1.0j))


def test_zero_eigenvalue_collapses_to_lowest_weight():
    for variant in ("nonlinear", "linearized"):
        c = coefficients(CoherentSpec(variant, 4, -5, 0.0))
        assert c.K == 0
        assert c.entries[0] == 1.0
        assert c.tail_mass == 0.0
        # past a floor: A_0 = 1 and zeros, from the weights' general path
        c = coefficients(CoherentSpec(variant, 4, -5, 0.0), min_index=3)
        assert c.entries.dtype == complex
        assert c.entries.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert c.tail_mass == 0.0


def test_first_coefficient_ratio_is_ladder_element():
    spec = CoherentSpec("nonlinear", 4, -5, 10.0 ** 2.5)
    c = coefficients(spec)
    # A_1 / A_0 = z / a_{mu+m+1}, with a_0 = -sqrt(3840)
    ratio = c.entries[1] / c.entries[0]
    assert ratio == pytest.approx(spec.z / ladder_element(4, 0), rel=1e-13)


def test_recurrence_invariant_all_orders():
    for spec in (CoherentSpec("nonlinear", 2, -3, 5.0),
                 CoherentSpec("nonlinear", 4, 2, 120.0 * cmath.exp(0.7j)),
                 CoherentSpec("nonlinear", 6, -7, 1e8)):
        c = coefficients(spec)
        for k in range(c.K):
            elem = ladder_element(spec.m, spec.mu + (spec.m + 1) * (k + 1))
            lhs = elem * c.entries[k + 1]
            rhs = spec.z * c.entries[k]
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_gamma_form_of_coefficients():
    """A_k against the log-gamma closed form for the lowest ladder of the
    order-4 system at |z| = 1e5: an oracle independent of the running
    ladder-element products used by the implementation."""
    spec = CoherentSpec("nonlinear", 4, -5, 1e5)
    c = coefficients(spec)
    x = series_argument(4, 1e5)
    log_f = normalization_F(4, -5, 1e5).log_mag
    b = hypergeometric_parameters(4, -5)
    for k in range(11):
        # |A_k|^2 = x^k / (F prod_j |Gamma(b_j+k)/Gamma(b_j)|); pochhammer
        # signs cancel pairwise for even order, so ln|Gamma| suffices
        log_w = k * math.log(x) if k else 0.0
        for bj in b:
            log_w -= lgamma(bj + k) - lgamma(bj)
        magnitude = math.exp(0.5 * (log_w - log_f))
        assert abs(c.entries[k]) == pytest.approx(magnitude, rel=1e-10)
        assert c.entries[k].real * (-1.0) ** k > 0  # sign alternation


def test_normalization_invariant():
    specs = [CoherentSpec("nonlinear", 4, -5, 30.0),
             CoherentSpec("nonlinear", 6, 5, 2.0e3),
             CoherentSpec("linearized", 2, -3, 4.0),
             CoherentSpec("linearized", 6, -7, 2.5 * cmath.exp(1.1j))]
    for tail_tol in (1e-10, 1e-14):
        for spec in specs:
            c = coefficients(spec, tail_tol)
            total = c.norm_sq()
            assert 1.0 - c.tail_mass - 1e-12 <= total <= 1.0 + 1e-12


def test_real_positive_z_gives_alternating_real_entries():
    c = coefficients(CoherentSpec("nonlinear", 6, -7, 50.0))
    assert np.all(c.entries.imag == 0.0)
    signs = np.sign(c.entries.real)
    assert np.allclose(signs, [(-1.0) ** k for k in range(len(signs))])


def test_linearized_weights_are_poisson():
    spec = CoherentSpec("linearized", 4, 1, 3.0)
    c = coefficients(spec)
    mean = 0.5 * 9.0
    for k in range(c.K + 1):
        weight = abs(c.entries[k]) ** 2
        poisson = math.exp(-mean) * mean**k / math.factorial(k)
        assert weight == pytest.approx(poisson, rel=1e-12)


def test_linearized_recurrence_reproduces_closed_form():
    """Solving the two-term recurrence A_{k+1} sqrt(2(k+1)) = z A_k and
    normalising must land on exp(-|z|^2/4) (z/sqrt(2))^k / sqrt(k!)."""
    from ratosc.system import linearized_element

    z = 1.7 - 0.4j
    solved = [1.0 + 0.0j]
    for k in range(30):
        solved.append(z * solved[-1] / linearized_element(4, k + 1))
    solved = np.array(solved)
    solved /= math.sqrt(float(np.sum(np.abs(solved) ** 2)))
    c = coefficients(CoherentSpec("linearized", 4, -5, z))
    n = len(c.entries)
    assert np.allclose(solved[:n], c.entries, rtol=1e-10, atol=1e-16)


def test_normalization_series_values():
    assert normalization_F(4, -5, 0.0).to_float() == 1.0
    value = normalization_F(4, -5, 10.0 ** 2.5).to_float()
    assert value == pytest.approx(F_45_AT_10_POW_2_5, rel=1e-12)


def test_normalization_series_parameter_cancellation():
    """For the lowest weight the unit lower parameter cancels the unit upper
    parameter, leaving a series with only the m fractional parameters."""
    from ratosc.specfun import signed_series

    x = series_argument(4, 700.0)
    full = normalization_F(4, -5, 700.0).to_float()
    reduced = signed_series((), (-0.2, -0.4, -0.6, -0.8), x).value.to_float()
    assert full == pytest.approx(reduced, rel=1e-12)


def test_normalization_matches_direct_ladder_series():
    for m, mu, az in ((2, -3, 50.0), (4, 2, 300.0), (6, -7, 1e4)):
        total = 0.0
        log_d = 0.0
        k = 0
        term = 1.0
        logs = [0.0]
        while True:
            k += 1
            a = ladder_element(m, mu + (m + 1) * k)
            log_d += math.log(a * a)
            logs.append(2.0 * k * math.log(az) - log_d)
            if logs[-1] < logs[0] - 60 and logs[-1] < max(logs) - 60:
                break
        peak = max(logs)
        direct = math.fsum(math.exp(v - peak) for v in logs)
        series = normalization_F(m, mu, az)
        assert series.log_mag == pytest.approx(peak + math.log(direct), abs=1e-10)


def test_evolution_phases():
    spec = CoherentSpec("nonlinear", 6, -7, 2.0)
    assert evolve(spec, 0.0) is spec
    full = evolve(spec, math.pi / 7.0)
    assert full.z == pytest.approx(spec.z, rel=1e-12)
    half = evolve(spec, math.pi / 14.0)
    assert half.z == pytest.approx(-spec.z, rel=1e-12)


def test_density_zero_z_is_lowest_state_density():
    spec = CoherentSpec("nonlinear", 6, 2, 0.0)
    x = np.linspace(-4, 4, 17)
    rho = density(spec, x)
    psi = wavefunction(StateLabel(6, 2, 0), x)
    assert np.allclose(rho, psi**2, rtol=1e-12)


def test_density_is_normalised_and_periodic():
    spec = CoherentSpec("nonlinear", 4, -5, 2.0e3)
    x = default_grid(spec)
    times = [0.0, 0.11, 0.31]
    _, rho = density_profile(spec, times, x=x)
    for row in rho:
        assert np.trapezoid(row, x) == pytest.approx(1.0, abs=1e-8)
    period = math.pi / 5.0
    _, rho_shift = density_profile(spec, [t + period for t in times], x=x)
    assert np.max(np.abs(rho - rho_shift)) < 1e-12


def test_density_scalar_matches_profile():
    spec = CoherentSpec("linearized", 4, -5, 1.5)
    x, rho = density_profile(spec, [0.2])
    j = len(x) // 3
    assert density(spec, float(x[j]), 0.2) == pytest.approx(float(rho[0, j]), rel=1e-12)


def test_density_refuses_a_non_finite_time():
    spec = CoherentSpec("nonlinear", 4, -5, 2.0)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            density(spec, 0.3, t)
        with pytest.raises(ValueError, match="not finite"):
            density_profile(spec, [0.0, t])


def test_cat_states():
    spec = CoherentSpec("nonlinear", 6, -7, 30.0)
    even_raw = cat_coefficients(spec, "even", normalize=False)
    odd_raw = cat_coefficients(spec, "odd", normalize=False)
    assert np.all(even_raw.entries[1::2] == 0.0)
    assert np.all(odd_raw.entries[0::2] == 0.0)
    d = overlap(6, -7, 30.0)
    assert even_raw.norm_sq() == pytest.approx(1.0 + d, rel=1e-12)
    assert odd_raw.norm_sq() == pytest.approx(1.0 - d, rel=1e-12)
    even = cat_coefficients(spec, "even")
    odd = cat_coefficients(spec, "odd")
    assert even.norm_sq() == pytest.approx(1.0, rel=1e-12)
    assert odd.norm_sq() == pytest.approx(1.0, rel=1e-12)
    # disjoint ladder steps make the two cats exactly orthogonal
    assert np.vdot(even.entries, odd.entries) == 0.0


def test_cat_validation():
    with pytest.raises(ValueError):
        cat_coefficients(CoherentSpec("nonlinear", 6, -7, 0.0), "odd")
    with pytest.raises(ValueError):
        cat_coefficients(CoherentSpec("nonlinear", 6, -7, 1.0j), "even")
    with pytest.raises(ValueError):
        cat_coefficients(CoherentSpec("nonlinear", 6, -7, 1.0), "sideways")


def test_odd_cat_at_tiny_eigenvalue():
    # 1 - D rounds to 0 here; the norm comes from the retained odd entries
    for variant in ("nonlinear", "linearized"):
        for z in (1e-9, 1e-100, 1e-160, 1e-200, 1e-300):
            odd = cat_coefficients(CoherentSpec(variant, 4, -5, z), "odd")
            assert np.all(np.isfinite(odd.entries))
            assert np.all(odd.entries[0::2] == 0.0)
            assert odd.entries[1] != 0.0
            assert odd.norm_sq() == pytest.approx(1.0, rel=1e-12)
            assert odd.tail_mass < 1e-14


def test_coefficients_at_tiny_eigenvalue():
    # |z|^2 / a^2 underflows here; the weights stay in log space
    for variant in ("nonlinear", "linearized"):
        for z in (1e-160, 1e-200, 1e-300):
            c = coefficients(CoherentSpec(variant, 4, -5, z))
            assert c.K == 0
            assert c.entries[0] == 1.0
            assert c.tail_mass < 1e-300
    for z in (1e-160, 1e-200, 1e-300):
        assert overlap(6, -7, z) == 1.0


def test_unreachable_truncation_fails_at_once():
    # the weights peak near k = |z|^2 / 2 = 5e7 and k = (|z|^2/216)^{1/3} ~ 1.7e7,
    # both past MAX_COEFFICIENTS
    for spec in (CoherentSpec("linearized", 2, -3, 1e4),
                 CoherentSpec("nonlinear", 2, -3, 1e12)):
        start = time.process_time()
        with pytest.raises(NumericalError):
            coefficients(spec)
        assert time.process_time() - start < 0.1


def test_non_finite_eigenvalue_is_rejected():
    for z in (math.nan, math.inf, complex(1.0, -math.inf), complex(math.nan, 0.0)):
        with pytest.raises(ValueError):
            CoherentSpec("nonlinear", 4, -5, z)


def test_odd_cat_density_vanishes_at_origin():
    spec = CoherentSpec("nonlinear", 6, -7, 5.0)
    odd = cat_coefficients(spec, "odd")
    from ratosc.system import wavefunction_rows

    x = np.array([0.0, 0.5, 1.0])
    psi = wavefunction_rows(6, -7, range(len(odd.entries)), x)
    rho = np.abs(odd.entries @ psi) ** 2
    assert rho[0] < 1e-28 * rho.max()


def test_overlap_limits_and_dual_route():
    assert overlap(6, -7, 0.0) == 1.0
    assert overlap(6, -7, 10.0) == pytest.approx(D_6_M7_AT_10, rel=1e-12)
    # (0, -1) at |z| = 1e3 is left out: its weights peak near rung 5e5, past
    # MAX_COEFFICIENTS, so the direct route refuses
    for m, mu, az in [(0, -1, 1.0), (0, -1, 10.0)] + [
            (m, -m - 1, az) for m in (2, 6, 12) for az in (1.0, 10.0, 1e3)]:
        direct = overlap(m, mu, az)
        closed = overlap_closed_form(m, mu, az)
        assert abs(direct - closed) <= 1e-14, (m, mu, az)


def test_ladders_use_disjoint_state_indices():
    for m in (2, 4, 6):
        seen = set()
        for mu in lowest_weights(m):
            c = coefficients(CoherentSpec("nonlinear", m, mu, 25.0))
            nus = set(int(n) for n in c.nus)
            assert not (nus & seen)
            seen |= nus


def test_defining_equation_residual():
    assert eigen_residual(CoherentSpec("nonlinear", 4, -5, 0.0)) == 0.0
    r1 = eigen_residual(CoherentSpec("nonlinear", 4, -5, 1e5))
    assert r1 < 1e-4 * 1e5
    assert r1 < 1e-9 * 1e5  # achieved headroom
    assert eigen_residual(CoherentSpec("nonlinear", 6, 3, 10.0)) < 1e-9
    with pytest.raises(ValueError):
        eigen_residual(CoherentSpec("linearized", 4, -5, 1.0))


def test_wavepacket_counter_smooths_fringes():
    x = np.linspace(-20, 20, 4001)
    packets = sum(np.exp(-((x - c) ** 2)) for c in (-10.0, 0.0, 10.0))
    fringed = packets * (1.0 + 0.8 * np.cos(12.0 * x))
    assert count_local_maxima(fringed) > 3
    assert count_wavepackets(x, fringed, fringe_scale=2 * math.pi / 12.0) == 3
    with pytest.raises(ValueError, match="rho must hold at least one sample"):
        count_local_maxima([])


def test_wavepacket_kernel_is_capped_at_the_profile(monkeypatch):
    seen = []
    monkeypatch.setattr("ratosc.coherent.count_local_maxima",
                        lambda r: seen.append(len(r)) or count_local_maxima(r))
    # a kernel half-width of 4 sigma / dx = 80 samples smooths 5 points into 5
    assert count_wavepackets(np.arange(5.0), [0.0, 1.0, 0.0, 2.0, 0.0], 10.0) == 1
    assert seen == [5]
    # 4 sigma / dx ~ 8e12 kernel entries uncapped
    x = np.arange(0.0, 5.0, 0.01)
    start = time.process_time()
    count_wavepackets(x, np.sin(3.0 * x) ** 2, 1e10)
    assert time.process_time() - start < 0.1
    assert seen[-1] == x.size


def test_wavepacket_counter_refuses_bad_arguments():
    x, rho = [0.0, 1.0, 2.0], [0.0, 1.0, 0.0]
    for args, name in ((([0.0], [1.0], 1.0), "x and rho"),
                       ((x, rho + [0.0, 1.0], 0.1), "x and rho"),
                       (([1.0, 1.0, 1.0], rho, 0.1), "x must step up"),
                       ((x, rho, math.nan), "fringe_scale"),
                       ((x, rho, 0.0), "fringe_scale"),
                       ((x, rho, -1.0), "fringe_scale")):
        with pytest.raises(ValueError, match=name):
            count_wavepackets(*args)


def test_one_ladder_check_lists_the_lowest_weights():
    message = r"mu = 5 is not a lowest weight for m = 4; choose one of \[-5, 1, 2, 3, 4\]"
    for call in (lambda: StateLabel(4, 5, 0), lambda: CoherentSpec("nonlinear", 4, 5, 1.0),
                 lambda: normalization_F(4, 5, 1.0), lambda: overlap_closed_form(4, 5, 1.0)):
        with pytest.raises(ValueError, match=message):
            call()


def test_fringe_wavelength_scale():
    spec = CoherentSpec("nonlinear", 6, -7, 1e8)
    lam = fringe_wavelength(spec)
    assert 0.1 < lam < 0.3


def test_five_wavepackets_for_order_four():
    """The semi-classical regime of the order-4 system: some time in the
    period shows exactly m+1 = 5 separated packets, never more."""
    spec = CoherentSpec("nonlinear", 4, -5, 1e5)
    x = default_grid(spec)
    times = np.linspace(0.0, math.pi / 5.0, 71, endpoint=False)
    _, rho = density_profile(spec, times, x=x)
    lam = fringe_wavelength(spec)
    counts = [count_wavepackets(x, row, lam) for row in rho]
    assert max(counts) == 5
    assert counts.count(5) > 10


def _per_time_profile(spec, times, x):
    """The density movie one time at a time, with a complex product each."""
    coeffs = coefficients(spec)
    psi = wavefunction_rows(spec.m, spec.mu, range(len(coeffs.entries)), x)
    ks = np.arange(len(coeffs.entries))
    return np.array([np.abs((coeffs.entries * np.exp(-1j * (2 * spec.m + 2) * t * ks)) @ psi) ** 2
                     for t in times])


def test_density_profile_matches_per_time_loop():
    for spec, count in ((CoherentSpec("nonlinear", 6, -7, 1e8 * cmath.exp(0.7j)), 141),
                        (CoherentSpec("linearized", 4, -5, 2.0 - 3.0j), 70),
                        (CoherentSpec("nonlinear", 2, 1, 30.0), 1)):
        times = np.linspace(0.0, math.pi / (spec.m + 1), count)
        x, rho = density_profile(spec, times)
        ref = _per_time_profile(spec, times, x)
        assert rho.shape == ref.shape
        scale = np.max(ref, axis=1, keepdims=True)
        assert np.max(np.abs(rho - ref) / scale) <= 1e-14
        assert np.all(rho >= 0.0)


def _halves_apart(coeffs, times, x):
    # both halves of a symmetric grid as separate calls; neither half is
    # mirror-symmetric, so each is evaluated on its own points
    half = len(x) // 2
    return np.hstack([_profile_from_coefficients(coeffs, times, x[:half]),
                      _profile_from_coefficients(coeffs, times, x[half:])])


def test_folded_density_matches_halves_evaluated_apart():
    spec = CoherentSpec("nonlinear", 6, -7, 1e8 * cmath.exp(0.7j))
    cases = [(coefficients(spec), 2 * _PROFILE_BLOCK + 5),
             (coefficients(CoherentSpec("linearized", 4, 3, 2.0 - 3.0j)), 1),
             (coefficients(CoherentSpec("nonlinear", 0, -1, 40.0)), 3),
             # entries are exactly zero on every even k
             (cat_coefficients(CoherentSpec("nonlinear", 4, -5, 30.0), "odd"),
              _PROFILE_BLOCK + 1)]
    for coeffs, count in cases:
        grid = _support_grid(coeffs)
        times = np.linspace(0.0, 0.3, count)
        for x in (grid, grid[1:-1], grid[:-1] - grid[:-1][::-1], np.array([-1.3, 1.3])):
            assert np.array_equal(x, -x[::-1])
            rho = _profile_from_coefficients(coeffs, times, x)
            ref = _halves_apart(coeffs, times, x)
            assert rho.shape == (count, len(x))
            assert np.max(np.abs(rho - ref)) <= 1e-14 * np.max(ref)
            assert np.all(rho >= 0.0)


@pytest.mark.parametrize("block", [5, 64])
def test_folded_density_blocks_meet_inside_the_grid(monkeypatch, block):
    # point blocks of the basis that end inside each half of the grid, on
    # odd and even mirror-symmetric grids and on an asymmetric one, give
    # the densities of one block over the whole half
    coeffs = coefficients(CoherentSpec("nonlinear", 4, -5, 30.0 * cmath.exp(0.3j)))
    grid = _support_grid(coeffs)
    times = np.linspace(0.0, 0.4, 3)
    grids = (grid, grid[1:-1], grid[:-1] - grid[:-1][::-1], grid[:-3])
    whole = [_profile_from_coefficients(coeffs, times, x) for x in grids]
    monkeypatch.setattr(system, "_BLOCK_POINTS", block)
    for x, ref in zip(grids, whole):
        rho = _profile_from_coefficients(coeffs, times, x)
        assert np.max(np.abs(rho - ref)) <= 1e-14 * np.max(ref)


@pytest.mark.parametrize("block", [512, None])
def test_density_work_space_is_bounded_by_the_point_block(monkeypatch, block):
    # beside its output the density holds one block of basis rows, turned
    # into its mirror image in place, the recurrence buffers, one
    # imaginary-part buffer of at most _PROFILE_BLOCK times and the phased
    # coefficients, never the basis of every point (9.5 MB at this case,
    # with phi rows stored beside it)
    if block is not None:
        monkeypatch.setattr(system, "_BLOCK_POINTS", block)
    coeffs = coefficients(CoherentSpec("nonlinear", 2, -3, 6500.0))
    assert coeffs.K == 95
    x = _support_grid(coeffs)
    rows = coeffs.K + 1
    width = min(system._BLOCK_POINTS, x.size)
    for count in (2, 100):
        tracemalloc.start()
        try:
            rho = _profile_from_coefficients(coeffs, np.linspace(0.0, 0.5, count), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (width * (2 * rows + 2 * min(count, _PROFILE_BLOCK)) + 8 * count * rows)
        assert peak - rho.nbytes <= bound + (1 << 18), (count, peak)


def test_density_keeps_the_shape_of_x():
    # a float for a scalar x, else an array shaped like x, 0-d included;
    # the values are those of density_profile on the flattened points
    spec = CoherentSpec("nonlinear", 4, -5, 30.0 * cmath.exp(0.3j))
    for x in (np.linspace(-2.0, 3.0, 6).reshape(2, 3), np.zeros((2, 3)), np.array(0.7),
              np.array([[1.5]])):
        rho = density(spec, x)
        assert isinstance(rho, np.ndarray) and rho.shape == x.shape
        assert np.array_equal(rho.reshape(-1), density_profile(spec, [0.0], x.reshape(-1))[1][0])
        assert density(spec, x, 0.2).shape == x.shape
    value = density(spec, 0.7)
    assert isinstance(value, float) and value == density(spec, np.array(0.7))


def test_default_grid_is_mirror_symmetric_within_an_ulp_of_linspace():
    for spec in (CoherentSpec("nonlinear", 2, -3, 6500.0), CoherentSpec("nonlinear", 6, -7, 1e8),
                 CoherentSpec("linearized", 4, -5, 3.0), CoherentSpec("nonlinear", 12, 5, 0.0)):
        x = default_grid(spec)
        assert np.array_equal(x, -x[::-1])
        if len(x) % 2:
            assert x[len(x) // 2] == 0.0
        linear = np.linspace(-x[-1], x[-1], len(x))
        assert np.max(np.abs(x - linear)) <= np.spacing(x[-1])


def test_asymmetric_grid_keeps_the_unfolded_products():
    # the unfolded path: one basis pass on every point, the real part as one
    # product over all times, the imaginary part in blocks of _PROFILE_BLOCK
    coeffs = coefficients(CoherentSpec("nonlinear", 4, -5, 2.0e3 * cmath.exp(0.4j)))
    spec = coeffs.spec
    x = np.linspace(-30.0, 41.0, 1201)
    times = np.linspace(0.0, 0.5, 2 * _PROFILE_BLOCK + 3)
    ks = np.arange(len(coeffs.entries))
    psi = wavefunction_rows(spec.m, spec.mu, ks, x)
    c = coeffs.entries * np.exp(-1j * (2 * spec.m + 2) * times[:, None] * ks)
    expected = np.ascontiguousarray(c.real) @ psi
    np.square(expected, out=expected)
    for start in range(0, len(times), _PROFILE_BLOCK):
        part = np.ascontiguousarray(c.imag[start:start + _PROFILE_BLOCK]) @ psi
        expected[start:start + _PROFILE_BLOCK] += part * part
    assert np.array_equal(_profile_from_coefficients(coeffs, times, x), expected)


def test_a_negative_abs_z_is_refused_before_any_series_runs(monkeypatch):
    # one check on |z|, in coherent._log_series_argument, which the overlap
    # of either route and the normalisation series reach first
    def no_series(*args):
        raise AssertionError("a series ran")

    monkeypatch.setattr(coherent, "_series_terms", no_series)
    monkeypatch.setattr(coherent, "_series_stack", no_series)
    for call in (overlap, overlap_closed_form, normalization_F):
        for az in (-3.0, -1e-300, -math.inf):
            with pytest.raises(ValueError, match="abs_z must be >= 0"):
                call(4, -5, az)


def test_coefficients_refuse_a_min_index_outside_its_range():
    # a negative index used to move K (to 40 instead of 3 at |z| = 3), raise
    # IndexError at z = 0, TypeError for 2.5 and "did not converge" for 10**6
    for az in (0.0, 3.0, 1e5):
        spec = CoherentSpec("nonlinear", 4, -5, az)
        for bad in (-1, -40, 2.5, 10**6, MAX_COEFFICIENTS + 1, "3", None):
            with pytest.raises(ValueError, match="min_index"):
                coefficients(spec, min_index=bad)
    spec = CoherentSpec("nonlinear", 4, -5, 3.0)
    assert coefficients(spec).K == 3
    assert coefficients(spec, min_index=np.int64(7)).K >= 7
