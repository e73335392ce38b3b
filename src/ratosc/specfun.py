"""Numerical kernels shared by the whole library.

Signed-log arithmetic, the oscillator-function recurrence and generalized
hypergeometric series, each cut by ``_series_terms`` on one path for terms
of either sign and read back as its ``log_total``; outside ``__all__``, the
reference oracles of the tests and ``selftest`` (``hermite_phi``,
``mod_hermite``, Gauss-Legendre ``panel_nodes``) and ``hermite``.
Everything is a pure function of its inputs.  The only shared state is
a set of bounded lru caches of the argument-free parts of the series
(read-only arrays and immutable records), so all routines are safe to
call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

__all__ = [
    "NumericalError",
    "SignedLog",
    "SeriesResult",
    "phi_rows",
    "signed_series",
]

MAX_SERIES_TERMS = 1_000_000

_EPS = float(np.finfo(float).eps)
# signed_series stops where the dropped terms are below eps/2 of the sum
_LOG_HALF_EPS = math.log(0.5 * _EPS)

# Ratio tables of the pFq series: one per (upper, lower, power-of-two
# length), kept only up to _TABLE_MAX_ENTRIES entries, past which a series
# costs its terms, not its per-call set-up.  A table holds two float64
# arrays, so the retained tables take at most
# _TABLE_CACHE_SIZE * _TABLE_MAX_ENTRIES * 16 bytes = 8 MiB.
_TABLE_MIN_ENTRIES = 32
_TABLE_MAX_ENTRIES = 1 << 14
_TABLE_CACHE_SIZE = 32
# per-parameter-set records (a few hundred bytes each)
_LIMITS_CACHE_SIZE = 128

# exp() overflows above this; to_float saturates to +-inf instead of raising.
_LOG_HUGE = math.log(8.98846567431158e307)

# phi_rows: exp(-x^2/2) below exp(-700) (a normal double) is kept as a log
# offset.  Offset points are rescaled by exp(460.5) ~ 1e200 every 8 orders,
# which cannot overflow while each order grows values by at most
# sqrt(2)|x| + 1 <= 1.5e6; 460.5 is exact in binary, so raising the offset
# adds no rounding error however often it happens.
_PHI_LOG_START_MIN = -700.0
_PHI_LOG_RESCALE = 460.5
_PHI_RESCALE = math.exp(_PHI_LOG_RESCALE)
_PHI_RESCALE_EVERY = 8
_PHI_X_ZERO = 1e6


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or left the double range;
    the message states the estimate that failed."""


# ---------------------------------------------------------------------------
# signed-log arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedLog:
    """A real number stored as (sign, ln|value|).

    Keeps products and sums whose magnitudes overflow double precision
    (powers of |z| up to 1e8 appear throughout the coherent-state algebra)
    inside ordinary floats.  ``sign`` is -1, 0 or +1; ``log_mag`` is ignored
    when ``sign`` is 0.  Round trips through floats are exact for moderate
    values and accurate to ~|ln x| eps (below 2e-13) across the full double
    range.
    """

    sign: int
    log_mag: float

    ZERO: ClassVar["SignedLog"]  # filled in after the class body
    ONE: ClassVar["SignedLog"]

    @staticmethod
    def from_float(value: float) -> "SignedLog":
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"cannot represent {value!r} as SignedLog")
        if value == 0.0:
            return SignedLog(0, -math.inf)
        return SignedLog(1 if value > 0.0 else -1, math.log(abs(value)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.log_mag > _LOG_HUGE:
            return math.inf if self.sign > 0 else -math.inf
        return self.sign * math.exp(self.log_mag)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        sign = self.sign * other.sign
        if sign == 0:
            return SignedLog(0, -math.inf)
        return SignedLog(sign, self.log_mag + other.log_mag)

    def __truediv__(self, other: "SignedLog") -> "SignedLog":
        if other.sign == 0:
            raise ZeroDivisionError("signed-log division by zero")
        if self.sign == 0:
            return SignedLog(0, -math.inf)
        return SignedLog(self.sign * other.sign, self.log_mag - other.log_mag)

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.log_mag)

    def __add__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.log_mag >= other.log_mag else (other, self)
        d = lo.log_mag - hi.log_mag  # <= 0
        if hi.sign == lo.sign:
            return SignedLog(hi.sign, hi.log_mag + math.log1p(math.exp(d)))
        if d == 0.0:
            return SignedLog(0, -math.inf)
        if d < -0.693:
            mag = hi.log_mag + math.log1p(-math.exp(d))
        else:
            mag = hi.log_mag + math.log(-math.expm1(d))
        return SignedLog(hi.sign, mag)

    def __sub__(self, other: "SignedLog") -> "SignedLog":
        return self + (-other)


SignedLog.ZERO = SignedLog(0, -math.inf)
SignedLog.ONE = SignedLog(1, 0.0)


# ---------------------------------------------------------------------------
# Hermite-family recurrences
# ---------------------------------------------------------------------------

def _hermite_pass(n: int, x, step: float):
    """The three-term recurrence h_{j+1} = 2x h_j + step j h_{j-1} from
    h_0 = 1, h_1 = 2x, up to order n: H_n for step -2, P_n for step +2."""
    h_prev = x * 0.0 + 1.0  # scalar or array, matching x
    if n == 0:
        return h_prev
    h = 2.0 * x
    for j in range(1, n):
        h, h_prev = 2.0 * x * h + step * j * h_prev, h
    return h


def hermite(n: int, x):
    """Hermite polynomial H_n(x), physicists' convention.

    Evaluated with the three-term recurrence H_{n+1} = 2x H_n - 2n H_{n-1}.
    Overflows to +-inf for large n*x; anything needing high order goes
    through the normalised oscillator functions (phi_rows) instead.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    return _hermite_pass(n, x, -2.0)


def mod_hermite(n: int, x, derivative_order: int = 0):
    """Hermite polynomial of rotated argument, (-i)^n H_n(ix), real for real x.

    Satisfies the all-positive recurrence P_{n+1} = 2x P_n + 2n P_{n-1}, the
    pass of :func:`hermite` with the other sign and stable for every real x,
    so for even n it is strictly positive (>= 2 for n >= 2); that is what
    keeps the deformed potential nonsingular.  Derivatives follow from
    P_n' = 2n P_{n-1}.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if derivative_order not in (0, 1, 2):
        raise ValueError("derivative_order must be 0, 1 or 2")
    if n < derivative_order:
        return x * 0.0
    scale = math.perm(n, derivative_order) * 2.0 ** derivative_order  # 2^d n!/(n-d)!, exact
    return scale * _hermite_pass(n - derivative_order, x, 2.0)


def hermite_phi(n: int, x: float) -> float:
    """Normalised oscillator eigenfunction
    phi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), one point at a time.

    The scalar reference for :func:`phi_rows`: the same normalised
    recurrence, run for one point with its own dynamic rescaling, so the
    value stays finite and accurate even deep in the tunnelling region
    (n <= 1e4, |x| <= 50).  Tests and ``selftest`` use it as the oracle;
    the library runs the pass of ``phi_rows`` over blocks of points.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    # carry exp(-x^2/2) as a log offset so the start never underflows
    offset = -0.5 * x * x
    vb = math.pi ** -0.25
    va = 0.0
    for k in range(n):
        va, vb = vb, x * math.sqrt(2.0 / (k + 1)) * vb - math.sqrt(k / (k + 1.0)) * va
        mag = abs(vb)
        if mag > 1e250:
            va *= 1e-250
            vb *= 1e-250
            offset += math.log(1e250)
        elif 0.0 < mag < 1e-250:
            va *= 1e250
            vb *= 1e250
            offset -= math.log(1e250)
    if vb == 0.0:
        return 0.0
    log_val = offset + math.log(abs(vb))
    if log_val > _LOG_HUGE:  # cannot happen for |phi| <= 1, kept as a guard
        return math.copysign(math.inf, vb)
    # exp rounds to the nearest subnormal or to 0 below the double range
    return math.copysign(math.exp(log_val), vb)


def _phi_orders(x, wanted):
    """Yield (n, window) at the clipped points x for each n of the ascending
    list wanted: the pass of :func:`phi_rows`, run in place.  window[j % 3]
    holds phi_j (phi_{-1} = 0) for the wanted j among n - 2, n - 1 and n, in
    buffers the next step overwrites and a caller writes to none; on points
    with a log offset they are a ring of folded rows, filled at the wanted
    orders only.  Every value is that of the plain step
    (x c_n) phi_n - d_n phi_{n-1}, for any split of the points into blocks.
    """
    log_start = -0.5 * x * x
    deep = log_start < _PHI_LOG_START_MIN
    offset = np.where(deep, log_start, 0.0) if np.any(deep) else None
    phi0 = math.pi ** -0.25 * np.exp(log_start if offset is None else log_start - offset)
    ring = window = [phi0, np.empty_like(phi0), np.zeros_like(phi0)]  # phi_n in ring[n % 3]
    scratch = np.empty_like(phi0)
    if offset is not None:  # exp(offset/2) changes only where the offset does, at a rescale
        half = np.exp(0.5 * offset)
        window = [np.empty_like(phi0), np.empty_like(phi0), np.zeros_like(phi0)]
    wanted_set = set(wanted)
    for k in range(-1, wanted[-1] if wanted else 0):
        new = ring[(k + 1) % 3]
        if k >= 0:
            prev, cur = ring[(k - 1) % 3], ring[k % 3]
            np.multiply(x, math.sqrt(2.0 / (k + 1)), out=new)
            new *= cur
            np.multiply(prev, math.sqrt(k / (k + 1.0)), out=scratch)
            new -= scratch
            if offset is not None and k % _PHI_RESCALE_EVERY == 0:
                big = np.maximum(np.abs(cur, out=scratch), np.abs(new), out=scratch) > _PHI_RESCALE
                if np.any(big):
                    np.divide(cur, _PHI_RESCALE, out=cur, where=big)
                    np.divide(new, _PHI_RESCALE, out=new, where=big)
                    np.add(offset, _PHI_LOG_RESCALE, out=offset, where=big)
                    np.exp(np.multiply(offset, 0.5, out=half), out=half)
        if k + 1 in wanted_set:
            if offset is not None:  # the offset folded back in as two factors exp(offset/2)
                np.multiply(new, half, out=window[(k + 1) % 3])
                window[(k + 1) % 3] *= half
            yield k + 1, window


def phi_rows(rows, x) -> dict[int, np.ndarray]:
    """Oscillator functions phi_n on an array of points, for selected n.

    One upward pass of the normalised recurrence
    phi_{n+1} = x sqrt(2/(n+1)) phi_n - sqrt(n/(n+1)) phi_{n-1},
    collecting the requested rows, for any finite x.  Where the Gaussian
    start exp(-x^2/2) would leave the normal double range (|x| > 37.4) it
    is carried as a per-point log offset; every few orders the points whose values grew
    past 1e200 are scaled back and their offset raised to match (Bunck,
    BIT 49 (2009) 281).  An emitted row folds the offset back in as two
    factors exp(offset/2), so values below the double range come out as 0.
    Points with |x| > 1e6 give 0, exact for every order below 1e10.  Each
    row is copied from the window of the pass :func:`_phi_orders`, which the
    eigenfunction kernel reads per block of points, keeping no rows.
    """
    wanted = sorted({int(r) for r in rows})
    if wanted and wanted[0] < 0:
        raise ValueError("orders must be >= 0")
    x = np.clip(np.asarray(x, dtype=float), -_PHI_X_ZERO, _PHI_X_ZERO)
    return {n: w[n % 3].reshape(x.shape).copy() for n, w in _phi_orders(x.reshape(-1), wanted)}


# ---------------------------------------------------------------------------
# hypergeometric series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesResult:
    """A summed series: its value, the number of terms summed and a
    first-order bound on its relative rounding error,

        terms * eps * (1 + sum_j |ln(t_{j+1}/t_j)|) * sum|t_k| / |sum t_k|.

    The dropped terms are below eps/2 of the sum, so truncation adds
    nothing.  The 1 covers the summation and the log sum the running sum of
    log ratios that gives the terms, whose rounding dominates for a long
    series of one sign (e^x at x = 700 is off by 8e-13 relative).  The last
    factor is the cancellation of an alternating series (e^x at x = -30
    gives a bound above 1e4, so no digit of the value is certain).  The
    bound is reported, not enforced.
    """

    value: SignedLog
    terms: int
    rounding_bound: float


def _ratio_factors(upper, lower, k):
    """prod_i (a_i + k) / ((k+1) prod_j (b_j + k)): the term ratio of the
    pFq series without its argument, for a scalar or an array of k."""
    num = 1.0
    for a in upper:
        num = num * (a + k)
    den = k + 1.0
    for b in lower:
        den = den * (b + k)
    return num / den


def _ratio_logs(upper, lower, length: int):
    """ln|r_k| and the sign prefix prod_{i<k} sign(r_i), k = 0..length-1, of
    the argument-free term ratios r_k = _ratio_factors(upper, lower, k), as
    read-only arrays.  Past the zero of a terminating series ln|r_k| is
    -inf and the prefix 0; callers read only up to that zero."""
    ratio = _ratio_factors(upper, lower, np.arange(length, dtype=float))
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.abs(ratio))
    prefix = np.ones(length)
    if any(c < 0.0 for c in (*upper, *lower)):
        np.cumprod(np.sign(ratio[:-1]), out=prefix[1:])
    log_ratio.flags.writeable = False
    prefix.flags.writeable = False
    return log_ratio, prefix


_ratio_table = lru_cache(maxsize=_TABLE_CACHE_SIZE)(_ratio_logs)


def _log_terms(rows, log_x: float, count: int):
    """ln|t_k| and sign(t_k), k = 0..count-1, of the series sum_k t_k with
    t_0 = 1 and t_{k+1}/t_k = x prod_i (a_i + k) / ((k+1) prod_j (b_j + k))
    at -|x| where negative is set: column j of two (count, len(rows))
    arrays holds row j (upper, lower, negative) of rows.  The terms run
    down the outer axis, so a slice of terms is contiguous however many
    rows there are.

    ln|t_k| is the running sum of ln|r_k| + ln|x|, so an |x| beyond the
    double range costs nothing.  The argument-free ln|r_k| and sign prefix
    come from a cached table of the next power-of-two length (up to
    _TABLE_MAX_ENTRIES entries; longer series build theirs per call), every
    entry computed on its own, so a row is bitwise the same in any stack
    and through warm or cold tables.  upper and lower are tuples, since
    they key the cache; the signs are read-only.  count stays at or below
    the first zero term of a terminating series.
    """
    logs = np.empty((count, len(rows)))
    signs = np.empty((count, len(rows)))
    logs[0] = 0.0
    length = max(count, _TABLE_MIN_ENTRIES)
    for j, (upper, lower, negative) in enumerate(rows):
        if length <= _TABLE_MAX_ENTRIES:
            log_ratio, prefix = _ratio_table(upper, lower, 1 << (length - 1).bit_length())
        else:
            log_ratio, prefix = _ratio_logs(upper, lower, count)
        np.add(log_ratio[:count - 1], log_x, out=logs[1:, j])
        signs[:, j] = prefix[:count]
        if negative:  # t_k of x < 0 carries the extra sign (-1)^k
            np.negative(signs[1::2, j], out=signs[1::2, j])
    np.add.accumulate(logs, axis=0, out=logs)  # 0 + a is a: row 0 adds nothing
    signs.flags.writeable = False
    return logs, signs


class _SeriesLimits(NamedTuple):
    """The argument-free checks and limits of a series truncated at an
    index of at most max_index."""

    bad_lower: float | None  # a lower parameter that is a nonpositive integer
    end: int                 # index of the first zero term, at most max_index + 3
    open_pq: bool            # p > q and the series does not terminate
    cap_log: float           # ln|r| at index max_index (-inf where r = 0)


@lru_cache(maxsize=_LIMITS_CACHE_SIZE)
def _series_limits(upper: tuple, lower: tuple, max_index: int) -> _SeriesLimits:
    bad_lower = next((b for b in lower if b <= 0.0 and float(b).is_integer()), None)
    # an upper parameter -n (n = 0, 1, ...) makes t_{n+1} and all later terms
    # 0; a zero past t_{max_index+2}, the last term computed, counts as none
    end = min([int(-a) + 1 for a in upper if a <= 0.0 and float(a).is_integer()]
              + [max_index + 3])
    open_pq = len(upper) > len(lower) and end == max_index + 3
    if bad_lower is not None:  # refused before any limit is read
        return _SeriesLimits(bad_lower, end, open_pq, math.nan)
    factor = abs(_ratio_factors(upper, lower, float(max_index)))
    cap_log = math.log(factor) if factor > 0.0 else -math.inf
    return _SeriesLimits(bad_lower, end, open_pq, cap_log)


def _first_count(log_x: float, slope: int, log_tol: float, cap: int) -> int:
    """Terms to compute in a first pass: the peak index |x|^{1/slope} of a
    series whose term ratio falls like x / k^slope, plus a Gaussian tail
    of width sqrt(k_peak / slope) down to the tolerance exp(log_tol)
    (3 sqrt(digits) widths against the 2.15 sqrt(digits) of the Gaussian
    itself, since the terms past the peak fall more slowly than it).
    Callers double the count when it falls short."""
    if slope < 1:
        return min(64, cap)
    k_peak = math.exp(min(log_x / slope, math.log(cap)))
    width = math.sqrt(k_peak / slope + 1.0)
    digits = -log_tol / math.log(10.0)
    return min(int(k_peak + 3.0 * math.sqrt(digits) * width) + 32, cap)


class _Terms(NamedTuple):
    """The terms t_0..t_K of a series truncated by :func:`_series_terms`."""

    logs: np.ndarray   # ln|t_k|, k = 0..K
    steps: np.ndarray  # ln|t_{k+1}/t_k|, k = 0..K-1
    peak: float        # the largest ln|t_k| computed
    total: float       # sum_{k<=K} t_k / e^peak
    abs_total: float   # sum_{k<=K} |t_k| / e^peak
    tail: float        # bound on |sum_{k>K} t_k| / |sum_{k<=K} t_k|

    @property
    def log_total(self) -> float:
        """ln|sum_{k<=K} t_k|, or -inf where the sum is 0: the one read-back
        of every series of the library."""
        return math.log(abs(self.total)) + self.peak if self.total else -math.inf

    @property
    def rounding_bound(self) -> float:
        """The bound of :class:`SeriesResult` on the relative rounding
        error of the sum; inf where the sum is 0."""
        total = abs(self.total)
        if total == 0.0:
            return math.inf
        log_path = 1.0 + float(np.add.reduce(np.abs(self.steps)))
        return len(self.logs) * _EPS * log_path * self.abs_total / total


def _series_terms(rows, log_x: float, log_tol: float, max_index: int,
                  min_index: int = 0) -> list[_Terms]:
    """The terms of each series (upper, lower, negative) of rows, a stack
    that shares ln|x| (:func:`_log_terms`), each up to its first
    K >= min_index with t_{K+1} < t_K and t_{K+1} / (1 - |t_{K+2}/t_{K+1}|)
    <= exp(log_tol) |sum_{k<=K} t_k|: the truncation rule of every series of
    the library.  The left side, a geometric bound on the dropped terms
    while their ratios do not grow, is returned over |sum| as ``tail``.
    A terminating series that meets it nowhere stops at its last nonzero
    term, with tail 0.  The rows that share a count are computed, scaled
    and summed in one array pass; a count is sized by :func:`_first_count`,
    once per distinct slope and end, and a row's is doubled while no K
    qualifies, so each row is bitwise a one-row stack.  NumericalError is
    raised up front where the terms still grow at index max_index, and
    after the last pass where no K <= max_index qualifies.
    """
    limits, counts, firsts = [], [], {}
    for upper, lower, _ in rows:
        lim = _series_limits(upper, lower, max_index)
        if lim.end == max_index + 3 and log_x + lim.cap_log >= 0.0:
            raise NumericalError(f"series terms still grow at the {max_index + 1}-term cap")
        limits.append(lim)
        slope = len(lower) + 1 - len(upper)
        if (slope, lim.end) not in firsts:  # rows that share both share the count
            firsts[slope, lim.end] = _first_count(log_x, slope, log_tol, lim.end)
        counts.append(min(max(firsts[slope, lim.end], min_index + 3), lim.end))
    out = [None] * len(rows)
    todo = list(range(len(rows)))
    while todo:
        count = counts[todo[0]]
        group = [i for i in todo if counts[i] == count]  # the rows of this pass
        logs, signs = _log_terms([rows[i] for i in group], log_x, count)
        peak = np.maximum.reduce(logs)
        scaled = np.exp(logs - peak)
        running = np.add.accumulate(signs * scaled)  # a sign +1 multiplies exactly
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = logs[1:] - logs[:-1]  # ln|t_{k+1}/t_k|
            # ln(exp(log_tol) |sum_{k<=K} t_k|), K = 0..count-3
            log_limit = np.log(np.abs(running[:-2])) + (peak + log_tol)
            # a ratio t_{K+2}/t_{K+1} of one or more gives nan or inf: no stop
            log_tail = logs[1:-1] - np.log1p(-np.exp(steps[1:]))
            falls = steps[:-1] < 0.0
        ok = falls & (log_tail <= log_limit)
        ok[:min_index] = False
        stops = ok.argmax(axis=0).tolist() if count > 2 else [0] * len(group)
        for j, i in enumerate(group):
            K = stops[j]
            if count > 2 and ok[K, j]:
                tail = math.exp(log_tail[K, j] - log_limit[K, j] + log_tol)
            elif count < limits[i].end:
                counts[i] = min(2 * count, limits[i].end)
                continue
            elif limits[i].end == max_index + 3:
                raise NumericalError(f"series did not converge within {max_index + 1} terms")
            else:
                K, tail = count - 1, 0.0
            out[i] = _Terms(logs[:K + 1, j], steps[:K, j], float(peak[j]), float(running[K, j]),
                            float(np.add.reduce(scaled[:K + 1, j])), tail)
        todo = [i for i in todo if out[i] is None]
    return out


def signed_series(upper, lower, x: float) -> SeriesResult:
    """Sum the pFq series to double precision: its terms, for an argument
    of either sign, stop where those dropped are below eps/2 of the sum
    (:func:`_series_terms`), and a SignedLog is built only for the result.
    ``rounding_bound`` bounds the relative rounding error of the sum, which
    cancellation makes large for an alternating series.

    ValueError is raised up front for a lower parameter that is a
    nonpositive integer (it annihilates a denominator factor), a NaN
    argument, or p > q unless the series terminates; NumericalError, also
    up front, where the terms still grow at the MAX_SERIES_TERMS cap.
    """
    log_x = math.log(abs(x)) if x != 0.0 else -math.inf
    return _series_stack([(tuple(upper), tuple(lower), x < 0.0)], log_x)[0]


def _series_stack(rows, log_x: float) -> list[SeriesResult]:
    """:func:`signed_series` of each row (upper, lower, negative) of a stack,
    at the argument -x where negative is set and at x elsewhere, ln|x| =
    log_x (-inf for x = 0), from one stacked pass of :func:`_series_terms`;
    each result is bitwise that of the row alone."""
    for upper, lower, _ in rows:
        limits = _series_limits(upper, lower, MAX_SERIES_TERMS - 1)
        if limits.bad_lower is not None:
            raise ValueError(f"lower parameter {limits.bad_lower} is a nonpositive integer")
        if math.isnan(log_x):
            raise ValueError("series argument is NaN")
        if limits.open_pq:
            raise ValueError("a series with p > q upper/lower parameters must terminate")
    if log_x == -math.inf:
        return [SeriesResult(SignedLog.ONE, 1, 0.0)] * len(rows)
    return [SeriesResult(SignedLog((t.total > 0.0) - (t.total < 0.0), t.log_total),
                         len(t.logs), t.rounding_bound)
            for t in _series_terms(rows, log_x, _LOG_HALF_EPS, MAX_SERIES_TERMS - 1)]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def panel_nodes(a: float, b: float, n_panels: int, degree: int = 20):
    """Nodes and weights of composite Gauss-Legendre quadrature on [a, b].

    A fixed (non-adaptive) rule, independent of the trapezoid lattices the
    library integrates on, and so the reference rule of the tests and of
    ``ratosc selftest``.
    """
    if n_panels < 1:
        raise ValueError("need at least one panel")
    nodes, weights = np.polynomial.legendre.leggauss(degree)
    edges = np.linspace(a, b, n_panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * np.diff(edges)
    xs = (mids[:, None] + halves[:, None] * nodes[None, :]).ravel()
    ws = (halves[:, None] * weights[None, :]).ravel()
    return xs, ws
