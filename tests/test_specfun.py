"""Kernel checks: signed-log arithmetic, recurrences, series, quadrature nodes."""

import dataclasses
import gc
import math
import time
import tracemalloc

import numpy as np
import pytest

from ratosc import specfun
from ratosc.coherent import (
    CoherentSpec,
    _log_weights,
    hypergeometric_parameters,
    series_argument,
)
from ratosc.specfun import (
    NumericalError,
    SignedLog,
    _log_terms,
    hermite,
    hermite_phi,
    mod_hermite,
    panel_nodes,
    phi_rows,
    signed_series,
)

# 0F4(-1/5,-2/5,-3/5,-4/5; 1), frozen from a 60-digit evaluation
F_NEG_PARAMS_AT_ONE = 389.6386367469463117111354


def test_signed_log_round_trip():
    for v in (1.0, -1.0, 0.0):
        assert SignedLog.from_float(v).to_float() == v
    for v in (0.125, -7.25, 3.75):
        back = SignedLog.from_float(v).to_float()
        assert back == pytest.approx(v, rel=5e-16, abs=0.0)  # one ulp
    # at the extremes of double range the log carries ~|ln v| eps of
    # relative error through exp, about 1e-13
    for v in (3.5e-300, -2.75e300, 1e-8):
        back = SignedLog.from_float(v).to_float()
        assert back == pytest.approx(v, rel=2e-13, abs=0.0)


def test_signed_log_constants_are_not_fields():
    assert tuple(f.name for f in dataclasses.fields(SignedLog)) == ("sign", "log_mag")
    assert repr(SignedLog.ONE) == "SignedLog(sign=1, log_mag=0.0)"
    assert repr(SignedLog.ZERO) == "SignedLog(sign=0, log_mag=-inf)"
    assert SignedLog.ZERO.to_float() == 0.0 and SignedLog.ONE.to_float() == 1.0


def test_signed_log_arithmetic_matches_floats():
    rng = np.random.default_rng(20240811)
    a = rng.uniform(-100.0, 100.0, 10_000)
    b = rng.uniform(-100.0, 100.0, 10_000)
    for x, y in zip(a, b):
        sx, sy = SignedLog.from_float(x), SignedLog.from_float(y)
        prod = (sx * sy).to_float()
        assert prod == pytest.approx(x * y, rel=1e-14)
        total = (sx + sy).to_float()
        assert total == pytest.approx(x + y, rel=1e-14, abs=1e-12)


def test_signed_log_huge_magnitudes():
    big = SignedLog(1, 5000.0)
    tiny = SignedLog(-1, -5000.0)
    assert (big * tiny).to_float() == pytest.approx(-1.0)
    assert (big + (-big)).sign == 0
    assert (big / big).to_float() == 1.0
    assert big.to_float() == math.inf


def test_signed_log_rejects_non_finite():
    with pytest.raises(ValueError):
        SignedLog.from_float(math.inf)
    with pytest.raises(ValueError):
        SignedLog.from_float(math.nan)


def test_hermite_low_orders():
    assert hermite(0, 1.7) == 1.0
    assert hermite(2, 1.0) == 2.0
    assert hermite(4, 0.0) == 12.0
    # H_5(x) = 32x^5 - 160x^3 + 120x
    x = 0.8
    assert hermite(5, x) == pytest.approx(32 * x**5 - 160 * x**3 + 120 * x, rel=1e-14)


def test_hermite_overflow_reports_non_finite():
    assert not math.isfinite(hermite(400, 10.0))


def test_mod_hermite_values():
    x = np.linspace(-3, 3, 7)
    assert np.all(mod_hermite(0, x) == 1.0)
    assert mod_hermite(2, 1.0) == 6.0
    assert mod_hermite(4, 0.0) == 12.0
    # P_4(x) = 16x^4 + 48x^2 + 12
    assert mod_hermite(4, 2.0) == pytest.approx(16 * 16 + 48 * 4 + 12)


def test_mod_hermite_is_hermite_of_the_rotated_argument():
    # P_n(x) = (-i)^n H_n(ix), the identity of mod_hermite's docstring, holds
    # to the bit: the two are one three-term pass with opposite signs
    x = np.concatenate([np.linspace(-40.0, 40.0, 2001), [0.0, 1e-300, 1e6, -1e6]])
    for n in range(13):
        rotated = (-1j) ** n * hermite(n, 1j * x)
        assert np.all(rotated.imag == 0.0), n
        assert np.array_equal(mod_hermite(n, x), rotated.real), n


def test_mod_hermite_positive_for_even_orders():
    x = np.linspace(-20, 20, 401)
    for n in range(0, 13, 2):
        values = mod_hermite(n, x)
        assert np.all(values >= 1.0)
        if n >= 2:
            assert np.min(values) >= 2.0


def test_mod_hermite_derivatives_match_finite_differences():
    h = 1e-5
    for n in (1, 3, 6, 9):
        for x in (-2.3, 0.4, 1.9):
            d1 = mod_hermite(n, x, 1)
            fd1 = (mod_hermite(n, x + h) - mod_hermite(n, x - h)) / (2 * h)
            assert d1 == pytest.approx(fd1, rel=1e-8, abs=1e-6)
            d2 = mod_hermite(n, x, 2)
            fd2 = (mod_hermite(n, x + h) - 2 * mod_hermite(n, x) + mod_hermite(n, x - h)) / h**2
            assert d2 == pytest.approx(fd2, rel=1e-5, abs=1e-3)


def test_hermite_phi_reference_points():
    assert hermite_phi(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-15)
    assert hermite_phi(1, 0.0) == 0.0
    direct = hermite(10, 1.0) * math.exp(-0.5) / math.sqrt(2**10 * math.factorial(10) * math.sqrt(math.pi))
    assert hermite_phi(10, 1.0) == pytest.approx(direct, rel=1e-12)


def test_hermite_phi_matches_direct_formula():
    worst = 0.0
    for n in range(31):
        norm = math.sqrt(2**n * math.factorial(n) * math.sqrt(math.pi))
        for x in np.linspace(-6, 6, 25):
            direct = hermite(n, x) * math.exp(-0.5 * x * x) / norm
            got = hermite_phi(n, x)
            if abs(direct) > 1e-280:
                worst = max(worst, abs(got - direct) / abs(direct))
    assert worst < 1e-10


def test_hermite_phi_extreme_arguments_stay_finite():
    # deep tunnelling: underflows cleanly to zero
    assert hermite_phi(0, 50.0) == 0.0
    # oscillatory region reached through the tunnelling region
    value = hermite_phi(2600, 50.0)
    assert math.isfinite(value)
    assert abs(value) > 1e-3


def test_phi_rows_agrees_with_scalar():
    x = np.linspace(-10, 10, 41)
    rows = phi_rows([0, 3, 17], x)
    for n in (0, 3, 17):
        expected = np.array([hermite_phi(n, xi) for xi in x])
        assert np.allclose(rows[n], expected, rtol=1e-12, atol=1e-300)


def test_phi_rows_matches_scalar_oracle_past_underflow():
    # the Gaussian start underflows past |x| = 37.4; the kernel carries it
    # as a log offset instead of refusing those points
    x = np.linspace(-60, 60, 241)
    orders = (0, 1, 5, 100, 1000, 2600, 10_000)
    rows = phi_rows(orders, x)
    for n in orders:
        expected = np.array([hermite_phi(n, xi) for xi in x])
        assert np.max(np.abs(rows[n] - expected)) < 1e-13
        assert np.all(rows[n][expected == 0.0] == 0.0)
    far = phi_rows([0, 7], np.array([-1e300, 2e6, np.inf]))
    assert np.all(far[0] == 0.0) and np.all(far[7] == 0.0)


def test_hypergeometric_argument_zero_is_one():
    result = signed_series((1.0,), (0.37, 1.2), 0.0)
    assert result.value.to_float() == 1.0
    assert result.terms == 1


def test_hypergeometric_exponential_identity():
    # upper and lower parameter cancel, leaving exp(x)
    value = signed_series((1.0,), (1.0,), 2.5).value.to_float()
    assert value == pytest.approx(math.exp(2.5), rel=1e-12)


def test_hypergeometric_negative_fractional_parameters():
    lower = (-0.2, -0.4, -0.6, -0.8)
    value = signed_series((), lower, 1.0).value.to_float()
    assert value == pytest.approx(F_NEG_PARAMS_AT_ONE, rel=1e-12)
    # first correction term is 1/prod(lower) = 625/24
    k1 = 1.0
    for b in lower:
        k1 /= b
    assert k1 == pytest.approx(625.0 / 24.0, rel=1e-15)


def test_hypergeometric_tolerance_refinement():
    # the truncation drops nothing a double can hold: the exact sum of
    # twice as many of the same terms differs by the rounding bound at most
    upper, lower = (1.0,), (0.31, 0.77, 1.4)
    eps = np.finfo(float).eps
    for x in (250.0, 3.0, -3.0, 1e6):
        res = signed_series(upper, lower, x)
        logs, signs = (a[:, 0] for a in _log_terms([(upper, lower, x < 0.0)], math.log(abs(x)),
                                                   2 * res.terms + 2))
        value, refined = res.value.to_float(), math.fsum(signs * np.exp(logs))
        assert abs(value - refined) <= (res.rounding_bound + eps) * abs(refined), x


def test_hypergeometric_validation():
    with pytest.raises(ValueError):
        signed_series((1.0, 2.0), (0.5,), 1.0)          # p > q
    with pytest.raises(ValueError):
        signed_series((1.0,), (-2.0, 0.5), 1.0)         # nonpositive integer


def test_signed_series_refuses_bad_input_promptly():
    # every refusal comes before any term is summed, through the callers too
    from ratosc.coherent import overlap_closed_form

    start = time.process_time()
    for lower in ((0.0, 0.5), (-2.0, 0.5)):
        with pytest.raises(ValueError, match="nonpositive integer"):
            signed_series((1.0,), lower, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        signed_series((1.0,), (0.5,), math.nan)
    with pytest.raises(ValueError, match="NaN"):
        overlap_closed_form(4, -5, math.nan)
    assert time.process_time() - start < 0.1


def test_signed_series_alternating_argument():
    # exp(-x) through the parameter-cancelled series at negative argument
    value = signed_series((1.0,), (1.0,), -3.0).value.to_float()
    assert value == pytest.approx(math.exp(-3.0), rel=1e-11)


def test_panel_nodes_integrate_polynomial_exactly():
    xs, ws = panel_nodes(-2.0, 3.0, 4, degree=20)
    value = float(np.sum(ws * xs**6))
    assert value == pytest.approx((3.0**7 - (-2.0) ** 7) / 7.0, rel=1e-14)


def _reference_series(upper, lower, x, max_terms=100_000):
    """Term-by-term signed-log summation with the truncation rule of the
    array kernel, at eps/2: stop at the first K with t_{K+1} < t_K and
    t_{K+1} / (1 - |t_{K+2}/t_{K+1}|) <= eps/2 |sum_{k<=K} t_k|."""
    if x == 0.0:
        return SignedLog.ONE, 1
    log_tol = math.log(np.finfo(float).eps / 2.0)
    terms = [SignedLog.ONE]
    ended = False
    total = SignedLog.ONE
    for K in range(max_terms):
        while not ended and len(terms) < K + 3:
            k = len(terms) - 1
            num = x
            for a in upper:
                num *= a + k
            den = k + 1.0
            for b in lower:
                den *= b + k
            ratio = num / den
            ended = ratio == 0.0
            if not ended:
                terms.append(terms[-1] * SignedLog.from_float(ratio))
        if len(terms) < K + 3:  # no t_{K+2}: the series ends, every term is summed
            for term in terms[K + 1:]:
                total = total + term
            return total, len(terms)
        t0, t1, t2 = terms[K:K + 3]
        if t1.log_mag < t0.log_mag:
            r = math.exp(t2.log_mag - t1.log_mag)
            if r < 1.0 and total.sign != 0 and (
                    t1.log_mag - math.log1p(-r) <= total.log_mag + log_tol):
                return total, K + 1
        total = total + t1
    raise AssertionError("reference series did not converge")


def _series_grid(seed=20261018, per_kind=40):
    rng = np.random.default_rng(seed)
    cases = []
    for kind in ("positive", "alternating", "terminating"):
        for _ in range(per_kind):
            p = int(rng.integers(0, 3))
            upper = list(rng.uniform(0.1, 4.0, p))
            lower = tuple(rng.uniform(0.1, 4.0, int(rng.integers(max(p, 1), p + 3))))
            if kind == "positive":
                x = 10.0 ** rng.uniform(-3.0, 3.0)
            elif kind == "alternating":
                # |x| <= 2 keeps the cancellation within a factor e^4
                x = -(10.0 ** rng.uniform(-3.0, math.log10(2.0)))
            else:
                upper = [-float(rng.integers(0, 9))] + upper
                x = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-2.0, 0.5)
            cases.append((kind, tuple(upper), lower, x))
    return cases


def test_series_kernel_matches_term_loop():
    # in the last case t_3 ~ 8e-18 is below eps/2 of the sum, but t_3 > t_2:
    # the sum stops only past the rise, at K = 3
    cases = _series_grid() + [("rising", (-1.0 + 1e-9,), (-2.0 + 1e-8,), 1e-5)]
    for kind, upper, lower, x in cases:
        expected, terms = _reference_series(upper, lower, x)
        result = signed_series(upper, lower, x)
        assert result.terms == terms, (kind, upper, lower, x)
        assert result.value.to_float() == pytest.approx(expected.to_float(), rel=1e-12), (
            kind, upper, lower, x)


def test_series_argument_enters_in_log_space():
    # the kernel never forms x itself, so no |x| is too small
    for log_x in (-700.0, -1e4):
        logs, signs = (a[:, 0] for a in _log_terms([((1.0,), (0.5, 1.5), True)], log_x, 4))
        assert np.all(np.isfinite(logs))
        assert logs[1] == pytest.approx(log_x - math.log(0.75), rel=1e-15)
        assert list(signs) == [1.0, -1.0, 1.0, -1.0]


def test_series_refuses_unreachable_peak_at_once():
    # terms of e^x peak near k = x, far past the term cap
    start = time.process_time()
    with pytest.raises(NumericalError):
        signed_series((), (), 1e9)
    assert time.process_time() - start < 1.0


def test_series_rounding_bound_covers_cancellation():
    # e^x at negative x: the alternating sum loses every digit near x = -30,
    # and the reported bound must say so
    for x in (-20.0, -30.0):
        res = signed_series((), (), x)
        value = res.value.to_float()
        assert abs(value - math.exp(x)) <= res.rounding_bound * abs(value)
        assert res.rounding_bound > 1.0
    # a series of one sign: the bound is terms * eps * (1 + sum_j |ln(x / (j+1))|)
    res = signed_series((), (), 30.0)
    eps = np.finfo(float).eps
    log_path = 1.0 + sum(abs(math.log(30.0 / (j + 1))) for j in range(res.terms - 1))
    assert res.rounding_bound == pytest.approx(res.terms * eps * log_path, rel=1e-12)
    assert abs(res.value.to_float() - math.exp(30.0)) <= res.rounding_bound * math.exp(30.0)
    assert signed_series((), (), 0.0).rounding_bound == 0.0


def test_series_rounding_bound_covers_the_log_sum():
    # long series of one sign: the running sum of log ratios, not the
    # summation, sets the error of e^x, and the bound must cover it
    for x in (300.0, 700.0, 2000.0):
        res = signed_series((), (), x)
        assert abs(res.value.log_mag - x) <= res.rounding_bound


# ---------------------------------------------------------------------------
# per-parameter-set tables
# ---------------------------------------------------------------------------

def _clear_tables():
    specfun._ratio_table.cache_clear()
    specfun._series_limits.cache_clear()


def _series_bits(result):
    """A SeriesResult as exact bit patterns."""
    return (result.value.sign, result.value.log_mag.hex(), result.terms,
            result.rounding_bound.hex())


def _weight_bits(spec):
    try:
        logs, tail = _log_weights(spec, 1e-14)
    except NumericalError as exc:  # the linearized weights at large |z|
        return str(exc)
    return logs.tobytes(), tail.hex()


def _ladder_sweep(m, mu, abs_zs):
    """(series call, weight spec) pairs of a |z| sweep on ladder (m, mu)."""
    b = hypergeometric_parameters(m, mu)
    cases = []
    for az in abs_zs:
        x = series_argument(m, az)
        for order in (0, 1, 2):
            shifted = tuple(bj + order for bj in b)
            cases.append(((order + 1.0,), shifted, x))
            cases.append(((order + 1.0,), shifted, -x))
    specs = [CoherentSpec(variant, m, mu, az) for az in abs_zs
             for variant in ("nonlinear", "linearized")]
    return cases, specs


def test_cold_and_warm_tables_agree_bitwise():
    cases, specs = _ladder_sweep(4, -5, 10.0 ** np.linspace(-3.0, 6.0, 10))
    cases += [(upper, lower, x) for _, upper, lower, x in _series_grid(per_kind=10)]
    for upper, lower, x in cases:
        _clear_tables()
        cold = _series_bits(signed_series(upper, lower, x))
        assert _series_bits(signed_series(upper, lower, x)) == cold, (upper, lower, x)
    for spec in specs:
        _clear_tables()
        cold = _weight_bits(spec)
        assert _weight_bits(spec) == cold, spec


def test_sweep_order_does_not_change_results():
    # ascending |z| fills the tables short first, descending long first
    for m, mu in ((2, -3), (6, -7)):
        cases, specs = _ladder_sweep(m, mu, 10.0 ** np.linspace(-2.0, 7.0, 19))
        _clear_tables()
        up = [_series_bits(signed_series(*case)) for case in cases]
        up_weights = [_weight_bits(spec) for spec in specs]
        _clear_tables()
        down = [_series_bits(signed_series(*case)) for case in reversed(cases)][::-1]
        down_weights = [_weight_bits(spec) for spec in reversed(specs)][::-1]
        assert up == down and up_weights == down_weights, (m, mu)
    # a slice of a longer table is bitwise a fresh shorter one, and the
    # longest cached table a slice of the per-call route of long series
    params = ((1.0,), hypergeometric_parameters(2, -3))
    longest = specfun._TABLE_MAX_ENTRIES
    per_call = specfun._ratio_logs(*params, 3 * longest)
    for length in (1, 2, 33, 64, 1000, longest):
        fresh = specfun._ratio_logs(*params, length)
        cached = specfun._ratio_table(*params, longest)
        for a, b, c in zip(fresh, cached, per_call):
            assert a.tobytes() == b[:length].tobytes() == c[:length].tobytes()


def _terms_bits(t):
    """A _Terms record as exact bit patterns."""
    return (t.logs.tobytes(), t.steps.tobytes(), t.peak.hex(), t.total.hex(),
            t.abs_total.hex(), t.tail.hex())


def test_stacked_rows_are_bitwise_one_row_stacks():
    # the factorial-moment rows of orders 0-2, the normalisation series at
    # -x, a terminating row (upper -6, tail 0) and a row whose first pass
    # falls short (peak near k = 22 at x = 0.5, first count 46, K = 53), in
    # one stack: each row's terms and sum equal those of the row alone
    b = hypergeometric_parameters(4, -5)
    rows = [((order + 1.0,), tuple(bj + order for bj in b), False) for order in (0, 1, 2)]
    rows += [((1.0,), b, True), ((-6.0,), (1.5, 0.25), False), ((-6.0,), (1.5, 0.25), True),
             ((1000.0,), (1.0,), False)]
    for x in (0.5, 3.0, 40.0):
        for min_index, log_tol in ((0, math.log(1e-14)), (5, specfun._LOG_HALF_EPS)):
            stacked = specfun._series_terms(rows, math.log(x), log_tol, 10**6, min_index)
            for row, t in zip(rows, stacked):
                (alone,) = specfun._series_terms([row], math.log(x), log_tol, 10**6, min_index)
                assert _terms_bits(t) == _terms_bits(alone), (row, x, min_index)
        if x < 10.0:  # the short row's pass was doubled on its own
            assert len(stacked[-1].logs) > specfun._first_count(math.log(x), 1, log_tol, 10**6 + 3)
        for row, result in zip(rows, specfun._series_stack(rows, math.log(x))):
            upper, lower, negative = row
            alone = signed_series(upper, lower, -x if negative else x)
            assert _series_bits(result) == _series_bits(alone), (row, x)


def test_log_terms_cannot_write_into_a_cached_table():
    _clear_tables()
    upper, lower = (1.0,), (-0.5, 1.5)
    table = [a.copy() for a in specfun._ratio_table(upper, lower, 32)]
    for negative in (False, True):
        logs, signs = (a[:, 0] for a in _log_terms([(upper, lower, negative)], 0.3, 20))
        logs[:] = 7.0  # a fresh array per call
        with pytest.raises(ValueError):
            signs[1] = 7.0
    for cached in specfun._ratio_table(upper, lower, 32):
        with pytest.raises(ValueError):
            cached[0] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(table, specfun._ratio_table(upper, lower, 32)))
    assert specfun._ratio_table.cache_info().misses == 1
    logs, signs = (a[:, 0] for a in _log_terms([(upper, lower, True)], 0.3, 20))
    assert list(signs[:4]) == [1.0, 1.0, -1.0, 1.0]  # (-1)^k sign(0.3^k (1)_k/((-0.5)_k (1.5)_k))


def test_retained_tables_stay_within_their_bound():
    # 50 parameter sets whose first pass fills a table of the largest
    # retained length, then one ~777,000-term series past it
    _clear_tables()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(50):
            assert signed_series((), (1.0 + i / 8.0,), 1.2e8).terms > specfun._TABLE_MAX_ENTRIES // 2
        long = signed_series((1.0,), hypergeometric_parameters(2, -3), series_argument(2, 1e10))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert long.terms > 700_000
    table_bytes = specfun._TABLE_CACHE_SIZE * specfun._TABLE_MAX_ENTRIES * 16
    assert retained > 0.9 * table_bytes  # the tables are kept ...
    assert retained <= table_bytes + 65536  # ... within their bound plus records


def test_a_zero_sum_reads_back_as_minus_infinity():
    # 1F0(-1;;1) = 1 - 1: the one read-back of a sum is -inf, and the
    # series value the signed-log zero
    (t,) = specfun._series_terms([((-1.0,), (), False)], 0.0, specfun._LOG_HALF_EPS, 10)
    assert len(t.logs) == 2 and t.total == 0.0 and t.log_total == -math.inf
    assert signed_series((-1.0,), (), 1.0).value == SignedLog.ZERO


def test_rows_of_one_sign_take_the_path_of_signed_rows():
    # a row of positive terms is summed by the one path for either sign:
    # its sum is the running sum, and sum|t_k| the pairwise sum of the terms
    b = hypergeometric_parameters(4, -5)
    for row in (((1.0,), b, False), ((2.0,), tuple(bj + 1 for bj in b), False), ((), (), False)):
        for log_x in (-3.0, 0.5, 4.0, 12.0):
            (t,) = specfun._series_terms([row], log_x, specfun._LOG_HALF_EPS, 10**6)
            scaled = np.exp(t.logs - t.peak)
            assert t.total == np.add.accumulate(scaled)[-1]
            assert t.abs_total == np.add.reduce(scaled)
            assert t.log_total == math.log(t.total) + t.peak
