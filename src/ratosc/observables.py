"""Physical diagnostics of a coherent state.

Energy expectations (closed hypergeometric form and direct sum), rung-number
statistics with the Mandel Q parameter, uncertainty products from the
moments of the state's amplitude (the basis moment matrices, outside
``__all__``, are their reference), and Wigner phase-space functions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coherent import (
    CoherentSpec,
    _amplitudes,
    _log_series_argument,
    _log_weights,
    coefficients,
    evolve,
    hypergeometric_parameters,
)
from .specfun import (
    _EPS,
    _LOG_HALF_EPS,
    MAX_SERIES_TERMS,
    NumericalError,
    SignedLog,
    _series_terms,
    hermite,
    panel_nodes,  # noqa: F401  (no caller here; bench/tracer.py wraps this name)
    signed_series,  # noqa: F401  (no caller here; bench/tracer.py wraps this name)
)
from .system import (
    StateLabel,
    _SUPPORT_PADDING,
    _basis_blocks,
    _turning_point,
    wavefunction_rows,  # noqa: F401  (no caller here; bench/tracer.py wraps this name)
)

__all__ = [
    "WignerGrid",
    "UncertaintyResult",
    "energy_expectation",
    "number_moments",
    "mandel_q",
    "uncertainty",
    "uncertainties",
    "wigner_cross_term",
    "wigner_grid",
]

# ---------------------------------------------------------------------------
# energies and number statistics
# ---------------------------------------------------------------------------

_CLOSED_FORM_TOL = 1e-8  # the relative rounding bound a closed-form moment may carry


@lru_cache(maxsize=64)
def _moment_series(m: int, mu: int, order: int):
    """The stack row (order+1; b+order) of the order-th factorial-moment
    series of ladder (m, mu), its prefactor order! / prod_j (b_j)_order, a
    float (order <= 2 and every |b_j|, |b_j + 1| >= 1/(m+1)), and a bound on
    its relative rounding (b_j + i within eps (2 |b_j| + 1) / |b_j + i|, one
    more per product); cached per ladder and order, reused by a |z| sweep."""
    b = hypergeometric_parameters(m, mu)
    pref = math.factorial(order) / math.prod(bj + i for bj in b for i in range(order))
    pref_err = _EPS * sum((2 * abs(bj) + 1) / abs(bj + i) + 2 for bj in b for i in range(order))
    return ((order + 1.0,), tuple(bj + order for bj in b), False), pref, pref_err


def _factorial_moments(m: int, mu: int, abs_z: float, orders) -> tuple[tuple[float, float], ...]:
    """Falling-factorial moments <k (k-1) ... (k-order+1)> of the rung number
    for the nonlinear weights, one (value, bound) pair per entry of orders,
    via the shifted-parameter series ratio

        order! x^order / prod_j (b_j)_order * F(order+1; b+order; x) / F(1; b; x).

    The denominator F(1; b; x) and the numerators of all orders, series of
    positive terms, are summed in one stacked pass to the tolerance of
    signed_series at the ln x of the weights, and read back as their
    ``log_total``.  The bound adds to their ``rounding_bound`` the
    prefactor's and 4 ulps of each part of the exponent order ln x + ln pref
    + (ln F_num - ln F_den), ln x = 2 ln|z| - (m+1) ln(2m+2) by its parts,
    which dominate at small |z|.  A moment whose bound passes
    _CLOSED_FORM_TOL raises NumericalError: the running log sums that give
    the terms lose digits as the series grow (Q was off by 0.9% at K ~
    1.7e5).  The bound is first order, so it refuses from K ~ 1,350
    (m = 12) to ~5,000 (m = 0).
    """
    if abs_z == 0.0:
        return ((0.0, 0.0),) * len(orders)
    moments = [_moment_series(m, mu, order) for order in orders]
    rows = [((1.0,), hypergeometric_parameters(m, mu), False)] + [row for row, *_ in moments]
    log_x = _log_series_argument(m, abs_z)  # finite where x itself underflows
    log_x_size = 2.0 * abs(math.log(abs_z)) + (m + 1) * math.log(2 * m + 2)
    den, *nums = _series_terms(rows, log_x, _LOG_HALF_EPS, MAX_SERIES_TERMS - 1)
    den_bound, log_den = den.rounding_bound, den.log_total
    out = []
    for order, (_, pref, pref_err), num in zip(orders, moments, nums):
        log_pref, log_num = math.log(abs(pref)), num.log_total
        parts = order * log_x_size + abs(log_pref) + abs(log_num) + abs(log_den)
        bound = den_bound + num.rounding_bound + pref_err + 4.0 * _EPS * (parts + 1.0)
        if bound > _CLOSED_FORM_TOL:
            raise NumericalError(f"the closed form of the order-{order} moment has a "
                                 f"rounding bound of {bound:.1e}, past "
                                 f"{_CLOSED_FORM_TOL:.0e}; the direct route answers")
        value = SignedLog(1 if pref > 0.0 else -1,
                          order * log_x + log_pref + (log_num - log_den)).to_float()
        out.append((value, bound))
    return tuple(out)


def _finite(value: float, name: str) -> float:
    """value, or NumericalError where a closed form leaves the double range."""
    if not math.isfinite(value):
        raise NumericalError(f"the closed form of {name} leaves the double range")
    return value


def _rung_moments(spec: CoherentSpec, method: str, tail_tol: float, orders) -> tuple[float, ...]:
    """<N> (order 1) and <N(N-1)> (order 2), one per entry of orders: sums
    against the truncated weights (direct), or the Poisson forms, unchecked,
    and the series ratios of :func:`_factorial_moments` (closed_form)."""
    if method == "direct":
        w = np.exp(_log_weights(spec, tail_tol)[0])
        k = np.arange(len(w), dtype=float)
        return tuple(float(np.sum((k * (k - 1.0) if order == 2 else k) * w)) for order in orders)
    if method != "closed_form":
        raise ValueError("method must be 'closed_form' or 'direct'")
    if spec.variant == "linearized":
        n = 0.5 * (spec.abs_z * spec.abs_z)
        return tuple(n * n if order == 2 else n for order in orders)
    return tuple(value for value, _ in _factorial_moments(spec.m, spec.mu, spec.abs_z, orders))


def energy_expectation(spec: CoherentSpec, method: str = "closed_form",
                       tail_tol: float = 1e-14) -> float:
    """<H> = 2 mu + 2m + 2 + (2m+2) <N> in the coherent state, rung k having
    the eigenvalue 2 (mu + (m+1) k + m + 1), with <N> as in number_moments:
    closed_form and direct agree to the truncation and series tolerances.
    NumericalError where the linearized closed form leaves the double range.
    """
    (mean_k,) = _rung_moments(spec, method, tail_tol, (1,))
    return _finite(2.0 * spec.mu + 2.0 * spec.m + 2.0 + (2.0 * spec.m + 2.0) * mean_k, "<H>")


def number_moments(spec: CoherentSpec, method: str = "closed_form",
                   tail_tol: float = 1e-14):
    """(<N>, <N(N-1)>) for the rung-number operator N |mu + (m+1)k> = k |...>;
    NumericalError where the linearized closed form leaves the double range."""
    n1, n2 = _rung_moments(spec, method, tail_tol, (1, 2))
    return n1, _finite(n2, "<N(N-1)>")


def mandel_q(spec: CoherentSpec, method: str = "closed_form",
             tail_tol: float = 1e-14) -> float:
    """Mandel parameter (<N(N-1)> - <N>^2) / <N>.

    Zero marks Poisson statistics, negative sub-Poissonian.  The value at
    z = 0 is defined as the limit 0; the linearized variant is identically
    Poissonian, so its closed form returns exactly 0.  Q = O(<N>) as
    |z| -> 0, so where <N> underflows to 0 the value is that limit, 0.
    A bad method, or a bad tail_tol on the direct route, raises ValueError
    at z = 0 too, as in number_moments.
    """
    if method == "closed_form" and spec.variant == "linearized":
        return 0.0
    n1, n2 = number_moments(spec, method, tail_tol)
    if n1 == 0.0:
        return 0.0
    return (n2 - n1 * n1) / n1


# ---------------------------------------------------------------------------
# position and momentum moments, uncertainty products
# ---------------------------------------------------------------------------

_QUAD_TOL = 1e-10  # uncertainty: absolute change of the lattice sums between passes

# Relative to the largest sum, the change between converged passes is
# summation rounding: 1e-14 to 2e-14 measured at K = 469, 1000 and 1400,
# where the sums reach 1e4 and an abs_tol of 1e-10 cannot be met.
_MOMENT_ROUNDING = 1e-13
_MAX_REFINEMENTS = 3  # _lattice_sums: halvings of the step before it refuses


def _lattice_sums(m: int, mu: int, K: int, sums, abs_tol: float):
    """Trapezoid sums of the integrands that sums(x) adds up over the
    mirror-symmetric nodes x, whose half x >= 0 the basis kernel evaluates,
    for the basis of ladder (m, mu) up to rung K: (value, nodes,
    refinements, change).

    The lattice j h, |j| <= n, spans [-half, half] with half = k_osc + 4
    beyond the top rung's turning point k_osc, and h = half / n is the
    largest such step below the step of :func:`_lattice_step` at p = 0:
    the band-limit step, or the strip step where the zeros of P_m bound
    the strip |Im x| < a in which the integrands are analytic and the
    trapezoid rule converges like exp(-2 pi a / h).  Each refinement halves
    h; the lattices are nested, so only the new midpoints are evaluated,
    T(h/2) = T(h)/2 + (h/2) sum f(midpoints), until every sum is stable to
    abs_tol, or to 1e-13 of the largest sum where that is larger.  nodes
    counts the accepted lattice, change is the last change between passes.
    ValueError for a top state index mu + (m+1) K past MAX_STATE_INDEX, before
    any node is evaluated; NumericalError if _MAX_REFINEMENTS passes fall short.
    """
    StateLabel(m, mu, K)  # validates the ladder and the top state index
    k_osc = _turning_point(m, mu, K)
    half = k_osc + _SUPPORT_PADDING
    n = math.ceil(half / _lattice_step(m, k_osc, 0.0))
    h = half / n
    coarse = h * sums(h * np.arange(-n, n + 1))
    for refinement in range(1, _MAX_REFINEMENTS + 1):
        # T(h/2) - T(h) = (h sum f(midpoints) - T(h)) / 2, formed in place
        step = sums(h * (np.arange(-n, n) + 0.5))
        step *= h
        step -= coarse
        step *= 0.5
        diff = float(max(step.max(), -step.min()))
        step += coarse
        coarse, n, h = step, 2 * n, 0.5 * h
        if diff <= max(abs_tol, _MOMENT_ROUNDING * max(coarse.max(), -coarse.min())):
            return coarse, 2 * n + 1, refinement, diff
    raise NumericalError(f"lattice sums change by {diff:.3e} in refinement "
                         f"{_MAX_REFINEMENTS}, past {abs_tol:.1e}")


# Matrix elements of x, x^2, p, p^2 between the rungs 0..K of one ladder,
# with the nodes, refinements and change of _lattice_sums.  mx, mx2 and mp2
# are real symmetric, mp2 positive semidefinite; mp is Hermitian with
# purely imaginary entries and a zero diagonal, the eigenfunctions being real.
MomentMatrices = namedtuple("MomentMatrices",
                            "m mu K mx mx2 mp mp2 nodes refinements change")


def _moment_sums(m: int, mu: int, K: int, x: np.ndarray) -> np.ndarray:
    """Node sums of psi_a x psi_b, psi_a x^2 psi_b, psi_a psi_b' and
    psi_a' psi_b' over the nodes x, stacked as a (4, K+1, K+1) array: the
    node blocks of :func:`~ratosc.system._basis_blocks`, one pass (orders
    0 and 1) over all of them.
    """
    sums = np.zeros((4, K + 1, K + 1))
    for start, stop, (p0, p1) in _basis_blocks(m, mu, range(K + 1), x, (0, 1)):
        xb = x[start:stop]
        w = p0 * xb
        sums[0] += w @ p0.T
        w *= xb
        sums[1] += w @ p0.T
        del w  # else it outlives the block, beside the kernel's next one
        sums[2] += p0 @ p1.T
        sums[3] += p1 @ p1.T
    return sums


def moment_matrices(m: int, mu: int, K: int, abs_tol: float = 1e-10) -> MomentMatrices:
    """The (K+1) x (K+1) moment matrices, entries stable to abs_tol, with
    <p^2> as int psi_a' psi_b' (integration by parts), on the lattice of
    :func:`_lattice_sums`: the reference of :func:`uncertainty`."""
    sums, *passes = _lattice_sums(m, mu, K, lambda x: _moment_sums(m, mu, K, x), abs_tol)
    mx, mx2, mp, mp2 = sums
    return MomentMatrices(m, mu, K, mx, mx2, -1j * mp, mp2, *passes)


_cached_matrices = lru_cache(maxsize=64)(moment_matrices)


UncertaintyResult = namedtuple("UncertaintyResult", ["sigma_x", "sigma_p", "product"])


def uncertainty(spec: CoherentSpec, t: float = 0.0,
                tail_tol: float = 1e-14) -> UncertaintyResult:
    """Standard deviations of position and momentum and their product for
    the time-evolved state; the product is bounded below by 1/2.

    <x> = int x |psi|^2, <x^2>, <p> = Im int conj(psi) psi' and
    <p^2> = int |psi'|^2 are summed from the state's amplitude on the
    lattice of :func:`_lattice_sums`, stable to 1e-10, or to 1e-13 of
    the largest where that is larger.  Any truncation K is admitted whose
    top state index mu + (m+1) K stays within system.MAX_STATE_INDEX;
    past it ValueError is raised before any node is evaluated.
    """
    return uncertainties([spec], t, tail_tol)[0]


def uncertainties(specs, t: float = 0.0,
                  tail_tol: float = 1e-14) -> list[UncertaintyResult]:
    """:func:`uncertainty` of states of one ladder (m, mu) in one pass.

    Their coefficient rows, padded to the largest truncation K, share each
    basis evaluation on the lattice of rung K, and the tolerance applies
    to the largest moment of the stack.  Each block of basis values and
    first derivatives from :func:`~ratosc.system._basis_blocks` is summed
    into the four moments as it comes.  ValueError for a second ladder.
    """
    specs = list(specs)
    if not specs:
        return []
    m, mu = specs[0].m, specs[0].mu
    if any((spec.m, spec.mu) != (m, mu) for spec in specs):
        raise ValueError("the states must share one ladder (m, mu)")
    rows = [coefficients(evolve(spec, t), tail_tol).entries for spec in specs]
    K = max(row.size for row in rows) - 1
    c = np.array([np.concatenate((row, np.zeros(K + 1 - row.size))) for row in rows])

    def sums(x):  # x |psi|^2, x^2 |psi|^2, Im conj(psi) psi', |psi'|^2
        out = np.zeros((len(c), 4))
        # each block holds the complex psi and psi' of every row beside the basis
        for start, stop, basis in _basis_blocks(m, mu, range(K + 1), x, (0, 1), 4 * len(c)):
            xb = x[start:stop]
            psi, dpsi = (_amplitudes(c, rows) for rows in basis)
            dens = psi.real ** 2 + psi.imag ** 2
            out[:, 0] += dens @ xb
            out[:, 1] += dens @ (xb * xb)
            out[:, 2] += (psi.real * dpsi.imag - psi.imag * dpsi.real).sum(axis=1)
            out[:, 3] += (dpsi.real ** 2 + dpsi.imag ** 2).sum(axis=1)
        return out

    x1, x2, p1, p2 = _lattice_sums(m, mu, K, sums, _QUAD_TOL)[0].T
    sigma_x = np.sqrt(np.maximum(x2 - x1 * x1, 0.0))
    sigma_p = np.sqrt(np.maximum(p2 - p1 * p1, 0.0))
    return [UncertaintyResult(*map(float, r)) for r in zip(sigma_x, sigma_p, sigma_x * sigma_p)]


# ---------------------------------------------------------------------------
# Wigner functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Wigner function sampled on a rectangular phase-space grid.

    step is the trapezoid step h of the y integral, lattice_points the
    number of points, spaced h/2, at which the state amplitude was evaluated,
    change the largest change from step h to h/2 on a subset of x rows.
    """

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray        # shape (len(x), len(p))
    min_value: float
    negative_volume: float    # integral of |min(W, 0)|
    mass: float               # grid sum times cell area
    truncation: int           # rung count of the underlying state
    step: float
    lattice_points: int
    change: float

    def marginal_x(self) -> np.ndarray:
        """Momentum-integrated marginal, which equals the position density."""
        return np.trapezoid(self.values, self.p, axis=1)


_WIGNER_BLOCK = 1 << 19  # (x, y) pairs per gathered block of the y transform
_WIGNER_MAX_ENTRIES = 1 << 23  # y kernel entries per h/2 pass, and lattice points with pads
_WIGNER_TOL = 1e-10  # absolute bound on the step change; every state has |W| <= 1/pi
# The Wigner integrand pairs the amplitude's edge with its peak: below k_osc ~ 5 the
# support k_osc + 4 cuts the lowest rungs' Gaussian tail at ~1e-8, |x| = 9 at ~1e-17
_WIGNER_MIN_SUPPORT = 9.0


@lru_cache(maxsize=None)
def _pole_distance(m: int) -> float:
    """Smallest |zero| of H_m, even 0 < m <= 12, whose multiples of i are the
    zeros of P_m, the poles of the amplitude: four Newton steps from the
    asymptotic pi / (2 sqrt(2m+1)), within 3e-5 of it (three reach the last bit)."""
    a = math.pi / (2.0 * math.sqrt(2 * m + 1))
    for _ in range(4):
        a -= hermite(m, a) / (2.0 * m * hermite(m - 1, a))
    return a


def _lattice_step(m: int, k_osc: float, p_max: float) -> float:
    """The band-limit and strip step of the Wigner integrand (see :func:`wigner_grid`)."""
    # the band limit of the top rung's energy plus three oscillator levels
    # covers the Gaussian momentum tail of the low rungs
    h = 2.0 * math.pi / (1.5 * (2.0 * math.sqrt(k_osc * k_osc + 12.0) + 2.0 * p_max))
    if m > 0:
        a = _pole_distance(m)
        h = min(h, 2.0 * math.pi * a / (-math.log(np.finfo(float).eps) + 2.0 * a * p_max))
    return h


def _y_transform(left: np.ndarray, right: np.ndarray, centres: np.ndarray, width: int,
                 stride: int, h: float, half: float, p: np.ndarray) -> np.ndarray:
    """(h/pi) sum_{|jh|<=half} left[c - stride j] right[c + stride j] exp(-2ipjh)
    for each centre c, each pair +-j once against real tables of cos and sin, so
    real where left = conj(right); left and right are lattices of width points
    laid end to end, and an index past the ends of its centre's lattice reads them."""
    j = np.arange(1, math.ceil(half / h) + 1)
    phase = np.outer(2.0 * h * j, p)
    cos, sin = (h / math.pi) * np.cos(phase), (h / math.pi) * np.sin(phase)
    out = []
    for c in np.array_split(centres, max(1, centres.size * (2 * j.size + 1) // _WIGNER_BLOCK)):
        end = (c - c % width)[:, None]  # the low end of each centre's lattice
        lo, hi = (np.clip(c[:, None] + s, end, end + width - 1) for s in (-stride * j, stride * j))
        fwd, back = left[lo] * right[hi], left[hi] * right[lo]
        out.append(_amplitudes(fwd + back, cos) - 1j * _amplitudes(fwd - back, sin)
                   + (h / math.pi) * (left[c] * right[c])[:, None])
    return np.concatenate(out)


def _wigner_lattice(m: int, mu: int, ks, rows, x: np.ndarray, dx: float, p: np.ndarray,
                    tol: float):
    """The y transform (1/pi) int dy conj(a(x-y)) b(x+y) exp(-2ipy) of the
    amplitudes a = rows[0] @ basis and b = rows[-1] @ basis over the rungs
    ks of ladder (m, mu), at the rows x spaced dx and the momenta p, on the
    lattices of :func:`wigner_grid` for the top rung of ks: (values, change,
    h, lattice points), change the largest change from step h to h/2 on a
    subset of the rows; NumericalError where it passes the absolute tol.
    The support is |x| <= max(k_osc + _SUPPORT_PADDING, _WIGNER_MIN_SUPPORT)."""
    k_osc = _turning_point(m, mu, max(ks))
    half = max(k_osc + _SUPPORT_PADDING, _WIGNER_MIN_SUPPORT)
    p_max = float(np.max(np.abs(p)))
    s = 0.5 * _lattice_step(m, k_osc, p_max)  # h0/2; checked before anything divides by it
    if (2.0 * half / s if s > 0.0 else math.inf) * p.size > _WIGNER_MAX_ENTRIES:
        raise ValueError(f"momentum window max|p| = {p_max:.3g} needs a y step of {2 * s:.3g}, "
                         f"too fine for a y kernel of at most {_WIGNER_MAX_ENTRIES} entries")
    inside = np.abs(x) <= half  # elsewhere one factor of the integrand vanishes
    xs = x[inside]
    n = xs.size
    values = np.zeros((x.size, p.size), dtype=complex)
    if not n:
        return values, 0.0, 2.0 * s, 0
    # row i lies on the lattice through row i mod q, c (i // q) spacings along:
    # q rows closer than s, and a lattice per row where all n are that close
    q = n if 0.0 < n * dx <= s else 1 if dx == 0.0 else max(1, math.floor(s / dx))  # s/dx < n
    c = math.ceil(q * dx / s) if q < n else 0
    s = q * dx / c if c else s
    k = np.arange(math.floor((-half - xs[q - 1]) / s), math.ceil((half - xs[0]) / s) + 1)
    width = k.size + 2  # each lattice lies between two zero end points
    if q * width > _WIGNER_MAX_ENTRIES:
        raise ValueError(f"{n} x rows spaced {dx:.3g} need {q * width} lattice points, too many")
    lattice = xs[:q, None] + s * k
    keep = np.abs(lattice) < half + s  # within one spacing of the support
    at, points = np.flatnonzero(np.pad(keep, ((0, 0), (1, 1)))), lattice[keep]
    pad = np.zeros((len(rows), q * width), dtype=complex)
    for start, stop, (psi,) in _basis_blocks(m, mu, ks, points, (0,)):
        for row, amplitude in zip(rows, pad):
            amplitude[at[start:stop]] = _amplitudes(row, psi)
    left, right = np.conj(pad[0]), pad[-1]
    centres = width * (np.arange(n) % q) + c * (np.arange(n) // q) + 1 - k[0]
    values[inside] = _y_transform(left, right, centres, width, 2, 2.0 * s, half, p)
    some = slice(None, None, max(1, n // 8))
    change = float(np.max(np.abs(_y_transform(left, right, centres[some], width, 1, s, half, p)
                                 - values[inside][some]), initial=0.0))
    if not change <= tol:
        raise NumericalError(f"step change {change:.3e} at h = {2 * s:.3g} past tol = {tol:.1e}")
    return values, change, 2.0 * s, points.size


def wigner_cross_term(label_a: StateLabel, label_b: StateLabel,
                      x: float, p: float, tol: float = _WIGNER_TOL) -> complex:
    """Phase-space kernel (1/pi) int dy psi_a(x-y) psi_b(x+y) exp(-2ipy)
    between two basis states of the same ladder: the lattice transform of
    :func:`wigner_grid` for one row and one momentum, with k_osc that of the
    higher rung and the row on a lattice of its own.

    The value is the trapezoid sum at step h; its change at step h/2 must
    stay within the absolute tolerance tol, else NumericalError is raised.
    A |p| whose step would pass _WIGNER_MAX_ENTRIES lattice entries (so any
    non-finite p), or a non-finite x, raises ValueError before the lattice
    is built.
    """
    if (label_a.m, label_a.mu) != (label_b.m, label_b.mu):
        raise ValueError("labels must belong to the same ladder")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    values = _wigner_lattice(label_a.m, label_a.mu, (label_a.k, label_b.k), np.eye(2),
                             np.array([x], float), 0.0, np.array([p], float), tol)[0]
    return complex(values[0, 0])


def wigner_grid(spec: CoherentSpec, window=((-8.0, 8.0), (-8.0, 8.0)),
                resolution=(161, 161), tail_tol: float = 1e-14) -> WignerGrid:
    """Wigner function of the coherent state on a grid.

    (1/pi) int dy conj(psi(x-y)) psi(x+y) exp(-2ipy) by the trapezoid rule,
    over the rungs 0..K of the state's own truncation.  The step h0 is the
    smaller of the band-limit step 2 pi / (1.5 (2 sqrt(k_osc^2 + 12) + 2 max|p|)),
    whose margin of three oscillator levels above the top rung covers the
    Gaussian momentum tail, and the strip step
    2 pi a / (ln(1/eps) + 2 a max|p|), a being the distance to the nearest
    pole of the amplitude, the smallest |zero| of H_m, whose aliasing error
    exp(-2 pi a / h) the factor exp(-2ipy) raises by exp(2 a |p|).  The
    amplitude is evaluated once, on lattices of spacing h/2: of the n rows
    inside the support, spaced dx, row i lies on the lattice through row
    i mod q, q = min(n, max(1, floor(h0 / (2 dx)))) or 1 where dx = 0, with
    h = 2 q dx / ceil(2 q dx / h0) for q < n (one lattice where dx >= h0/2),
    else h = h0 and a lattice per row; it is contracted from the blocks of
    :func:`~ratosc.system._basis_blocks` as they come.  The amplitude counts
    as zero past |x| = k_osc + 4, the model's support, or past 9 where that
    is larger (the Gaussian tail of the lowest rungs); each lattice reaches
    at most one spacing past it, and each pair +-y is summed once, so the
    values are real by construction.  Raises ValueError for a non-finite
    window, a resolution that is not two integers, a momentum range whose
    step would make the y kernel pass _WIGNER_MAX_ENTRIES entries, or rows
    whose lattices would, or a reversed axis (each checked before either is
    built; an axis of zero width is allowed); NumericalError if the change
    from step h to h/2 passes _WIGNER_TOL = 1e-10 absolute, whatever the window.
    """
    c = coefficients(spec, tail_tol)
    (x_lo, x_hi), (p_lo, p_hi) = window
    nx, np_count = resolution
    if not all(isinstance(n, (int, np.integer)) for n in resolution):
        raise ValueError(f"resolution must be two integers, got {resolution!r}")
    if nx < 2 or np_count < 2 or not all(map(math.isfinite, (x_lo, x_hi, p_lo, p_hi,
                                                                 x_hi - x_lo, p_hi - p_lo))):
        raise ValueError("the grid needs a finite window and two points per axis")
    for axis, lo, hi in (("x", x_lo, x_hi), ("p", p_lo, p_hi)):
        if hi < lo:
            raise ValueError(f"the {axis} window ({lo}, {hi}) is reversed; give it as (min, max)")
    x = np.linspace(x_lo, x_hi, nx)
    p = np.linspace(p_lo, p_hi, np_count)
    values, change, h, points = _wigner_lattice(spec.m, spec.mu, range(c.K + 1), (c.entries,), x,
                                                (x_hi - x_lo) / (nx - 1), p, _WIGNER_TOL)
    values = values.real  # the transform of one amplitude is real by construction
    cell = (x[1] - x[0]) * (p[1] - p[0])
    negative = float(np.sum(np.abs(np.minimum(values, 0.0))) * cell)
    return WignerGrid(x, p, values, float(values.min()), negative, float(values.sum() * cell),
                      c.K, h, points, change)
