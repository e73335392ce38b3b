"""Coherent states of the order-m ladder operators.

Two operator variants act on each ladder of the deformed oscillator: the
native lowering operator with matrix elements growing like nu^{(m+1)/2}
("nonlinear"), and a rescaled version with oscillator-like elements
sqrt(2k) ("linearized").  This module builds the superposition
coefficients for both, evolves them in time, and evaluates position
densities, cat-state combinations and component overlaps.

Coefficients are computed in log space and exposed as ordinary complex
numbers only after normalisation, so eigenvalue magnitudes up to |z| = 1e8
stay inside double precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import SignedLog, _series_stack, _series_terms
from .specfun import signed_series  # noqa: F401  (no caller here; bench/tracer.py wraps this name)
from .system import (_SUPPORT_PADDING, _basis_blocks, _check_ladder, _linspace, _turning_point,
                     ladder_element)
from .system import wavefunction_rows  # noqa: F401  (no caller here; bench/tracer.py wraps this name)

__all__ = [
    "VARIANTS",
    "CoherentSpec",
    "CoefficientVector",
    "hypergeometric_parameters",
    "series_argument",
    "coefficients",
    "normalization_F",
    "evolve",
    "density",
    "density_profile",
    "default_grid",
    "cat_coefficients",
    "overlap",
    "overlap_closed_form",
    "eigen_residual",
    "count_local_maxima",
    "count_wavepackets",
    "fringe_wavelength",
]

VARIANTS = ("nonlinear", "linearized")

MAX_COEFFICIENTS = 200_000
_GRID_POINTS_PER_WAVELENGTH = 20  # default_grid: of the shortest fringe 2 pi / k_max
_MAXIMA_THRESHOLD = 0.01  # count_local_maxima: of the global maximum
_PACKET_SMOOTHING = 2.0  # count_wavepackets: Gaussian width in fringe scales


@dataclass(frozen=True)
class CoherentSpec:
    """A fully specified coherent state: operator variant, deformation order,
    lowest weight of its ladder and the complex eigenvalue z."""

    variant: str
    m: int
    mu: int
    z: complex

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        _check_ladder(self.m, self.mu)
        object.__setattr__(self, "z", complex(self.z))
        if not cmath.isfinite(self.z):
            raise ValueError(f"z must be finite, got {self.z!r}")

    @property
    def abs_z(self) -> float:
        return abs(self.z)


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Truncated superposition coefficients A_0..A_K with a certified bound
    on the squared-norm mass beyond the truncation."""

    spec: CoherentSpec
    entries: np.ndarray
    tail_mass: float

    @property
    def K(self) -> int:
        return len(self.entries) - 1

    @property
    def nus(self) -> np.ndarray:
        m, mu = self.spec.m, self.spec.mu
        return mu + (m + 1) * np.arange(len(self.entries))

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.entries) ** 2))


@lru_cache(maxsize=64)
def hypergeometric_parameters(m: int, mu: int) -> tuple[float, ...]:
    """Lower parameters of the normalisation series for ladder (m, mu):
    (mu - j)/(m+1) + 1 for j = 1..m together with (mu + m + 1)/(m+1) + 1.
    Cached per ladder: a |z| sweep asks for the same tuple at every point."""
    params = [(mu - j) / (m + 1.0) + 1.0 for j in range(1, m + 1)]
    params.append((mu + m + 1.0) / (m + 1.0) + 1.0)
    return tuple(params)


def series_argument(m: int, abs_z: float) -> float:
    """The normalisation series runs in x = |z|^2 / (2m+2)^{m+1}."""
    return abs_z * abs_z / float(2 * m + 2) ** (m + 1)


# ---------------------------------------------------------------------------
# truncation machinery
# ---------------------------------------------------------------------------

def _log_series_argument(m: int, abs_z: float) -> float:
    """ln x = 2 ln|z| - (m+1) ln(2m+2), the argument of every series of the
    model, finite even where x under- or overflows, -inf at |z| = 0; the one
    check on |z|: ValueError for a negative one, before any series runs."""
    if abs_z < 0.0:
        raise ValueError("abs_z must be >= 0")
    return 2.0 * math.log(abs_z) - (m + 1) * math.log(2 * m + 2) if abs_z else -math.inf


def _log_weights(spec: CoherentSpec, tail_tol: float, min_index: int = 0):
    """ln|A_k|^2 of the normalised weights up to the truncation index
    K >= min_index, plus the certified relative tail bound.

    The unnormalised weights are series terms, cut at tail_tol by the rule
    of every series (:func:`~ratosc.specfun._series_terms`): for the
    nonlinear variant those of F(1; b; x), since the ladder elements obey
    a^2(nu_{k+1}) = (2m+2)^{m+1} prod_j (b_j + k); for the linearized one
    those of e^x at x = |z|^2/2, the m = 0 argument.  Both enter through ln x,
    so no |z| underflows, and are normalised from the peak by their truncated
    sum (the dropped mass is below tail_tol, far under double resolution).
    coefficients and the statistics that need only |A_k|^2 read them here.
    NumericalError is raised at once when the weights still grow at index
    MAX_COEFFICIENTS, and after the terms are computed when the tail bound
    is not met by then.
    """
    if not 0.0 < tail_tol <= 1e-8:
        raise ValueError("tail_tol must lie in (0, 1e-8]")
    if not isinstance(min_index, (int, np.integer)) or not 0 <= min_index <= MAX_COEFFICIENTS:
        raise ValueError(f"min_index must be an integer in [0, {MAX_COEFFICIENTS}], "
                         f"got {min_index!r}")
    m, mu = spec.m, spec.mu
    az = spec.abs_z
    if az == 0.0:  # A_0 = 1 and every later entry 0
        return np.where(np.arange(min_index + 1), -np.inf, 0.0), 0.0
    if spec.variant == "nonlinear":
        row, log_x = ((1.0,), hypergeometric_parameters(m, mu), False), _log_series_argument(m, az)
    else:
        row, log_x = ((), (), False), _log_series_argument(0, az)
    (t,) = _series_terms([row], log_x, math.log(tail_tol), MAX_COEFFICIENTS, min_index)
    return (t.logs - t.peak) - math.log(t.total), t.tail


def coefficients(spec: CoherentSpec, tail_tol: float = 1e-14,
                 min_index: int = 0) -> CoefficientVector:
    """Superposition coefficients of the coherent state.

    nonlinear:  A_k = z^k / (D_k sqrt(F)) with D_k the running product of
    ladder matrix elements, so the sign (-1)^k appears by itself and the
    two-term recurrence a_{nu_{k+1}} A_{k+1} = z A_k holds by construction.

    linearized: A_k = (z/sqrt(2))^k / sqrt(k!) over the truncated sum of e^{|z|^2/2}.

    The truncation index K is the first index past which a geometric bound
    on the dropped |A_k|^2, the terms of the normalisation series cut by the
    rule of every series (:func:`_log_weights`), is below tail_tol; the
    bound is reported as tail_mass.  At z = 0, A_0 = 1 and the rest are 0.
    """
    log_w, tail = _log_weights(spec, tail_tol, min_index)
    mags = np.exp(0.5 * log_w)
    if spec.variant == "nonlinear":
        np.negative(mags[1::2], out=mags[1::2])  # the sign (-1)^k
    phases = np.exp(1j * cmath.phase(spec.z) * np.arange(len(log_w)))
    return CoefficientVector(spec, mags * phases, tail)


# ---------------------------------------------------------------------------
# normalisation and overlaps
# ---------------------------------------------------------------------------

def normalization_F(m: int, mu: int, abs_z: float) -> SignedLog:
    """Squared-norm series F = sum |z|^{2k} / D_k^2, evaluated through its
    closed hypergeometric form (one upper parameter equal to 1)."""
    _check_ladder(m, mu)
    (F,) = _series_stack([((1.0,), hypergeometric_parameters(m, mu), False)],
                         _log_series_argument(m, abs_z))
    return F.value


def overlap(m: int, mu: int, abs_z: float, tail_tol: float = 1e-16) -> float:
    """Overlap of the two cat-state components, <+z | -z>, for the nonlinear
    variant: the alternating sum of the normalised weights (-1)^k |A_k|^2.

    Each summand is at most one, so the result carries ordinary absolute
    double precision even when |z| = 1e8 makes the unnormalised terms span
    hundreds of orders of magnitude.  ValueError for a negative |z|.
    """
    _log_series_argument(m, abs_z)  # the check on |z|, before any series runs
    weights = np.exp(_log_weights(CoherentSpec("nonlinear", m, mu, complex(abs_z)), tail_tol)[0])
    signs = np.where(np.arange(len(weights)) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * weights))


def overlap_closed_form(m: int, mu: int, abs_z: float) -> float:
    """The same overlap via the ratio of the normalisation series at
    negated and positive argument, summed as one stacked pair and divided
    in signed-log arithmetic; ValueError for a negative |z|."""
    _check_ladder(m, mu)
    params = hypergeometric_parameters(m, mu)
    num, den = _series_stack([((1.0,), params, True), ((1.0,), params, False)],
                             _log_series_argument(m, abs_z))
    return (num.value / den.value).to_float()


# ---------------------------------------------------------------------------
# time evolution and densities
# ---------------------------------------------------------------------------

def evolve(spec: CoherentSpec, t: float) -> CoherentSpec:
    """Time evolution z -> z exp(-i (2m+2) t); exactly periodic with period
    pi / (m+1), so t is first reduced modulo that period (as a double),
    which keeps the phase finite for every finite t; ValueError for any other."""
    if not math.isfinite(t):
        raise ValueError(f"time t = {t} is not finite")
    t = math.fmod(t, math.pi / (spec.m + 1))
    if t == 0.0:
        return spec
    factor = cmath.exp(-1j * (2 * spec.m + 2) * t)
    return CoherentSpec(spec.variant, spec.m, spec.mu, spec.z * factor)


def density(spec: CoherentSpec, x, t: float = 0.0, tail_tol: float = 1e-14):
    """Position probability density |sum_k A_k(t) psi_{nu_k}(x)|^2 at scalar
    or array x: a float for a scalar x, else an array shaped like x."""
    coeffs = coefficients(evolve(spec, t), tail_tol)
    xv = np.asarray(x, dtype=float)
    rho = _profile_from_coefficients(coeffs, [0.0], xv.reshape(-1))[0]
    return float(rho[0]) if np.isscalar(x) else rho.reshape(xv.shape)


def _amplitudes(entries: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """entries @ psi for complex entries and a real basis matrix psi, as two
    real products, so the basis is never cast to complex."""
    out = np.empty(entries.shape[:-1] + psi.shape[1:], dtype=complex)
    out.real = entries.real @ psi
    out.imag = entries.imag @ psi
    return out


_PROFILE_BLOCK = 32  # times per block of the imaginary-part product


def _squared_amplitudes(c: np.ndarray, psi: np.ndarray, out: np.ndarray) -> None:
    """out = |c @ psi|^2 for complex c of shape (T, K+1) and a real basis psi
    of shape (K+1, N); out is a (T, N) array or a view of one.

    (Re c @ psi)^2 is written into out and squared in place; the imaginary
    part goes through one reused block buffer of _PROFILE_BLOCK times, so
    the work space beyond out stays small.
    """
    np.matmul(np.ascontiguousarray(c.real), psi, out=out)
    np.square(out, out=out)
    c_imag = np.ascontiguousarray(c.imag)
    buf = np.empty((min(len(c), _PROFILE_BLOCK), psi.shape[1]))
    for start in range(0, len(c), _PROFILE_BLOCK):
        stop = min(start + _PROFILE_BLOCK, len(c))
        part = buf[:stop - start]
        np.matmul(c_imag[start:stop], psi, out=part)
        np.square(part, out=part)
        out[start:stop] += part


def _profile_from_coefficients(coeffs: CoefficientVector, times, x: np.ndarray) -> np.ndarray:
    """Densities |sum_k A_k exp(-i (2m+2) t k) psi_k(x)|^2 for each t, shape
    (len(times), len(x)).

    Each block of basis rows from :func:`~ratosc.system._basis_blocks` is
    taken for every time at once, by the real products of
    :func:`_squared_amplitudes` with the phased coefficients, straight into
    rho; on a mirror-symmetric grid (the default grid is) the kernel
    evaluates the half x >= 0 and yields the other half by parity.
    ValueError for a non-finite time.
    """
    spec = coeffs.spec
    ks = np.arange(len(coeffs.entries))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.isfinite(times).all():
        raise ValueError(f"time t = {times[~np.isfinite(times)][0]} is not finite")
    # modulo the period pi/(m+1), as in evolve, so every finite time stays finite
    times = np.fmod(times, math.pi / (spec.m + 1))
    c = coeffs.entries * np.exp(-1j * (2 * spec.m + 2) * times[:, None] * ks)
    rho = np.empty((times.size, x.size))
    for start, stop, (psi,) in _basis_blocks(spec.m, spec.mu, ks, x, (0,)):
        _squared_amplitudes(c, psi, rho[:, start:stop])
    return rho


def default_grid(spec: CoherentSpec, tail_tol: float = 1e-14) -> np.ndarray:
    """Position grid wide enough for the classical support at the truncation
    energy and fine enough to resolve the shortest interference fringes."""
    return _support_grid(coefficients(spec, tail_tol))


def _support_grid(coeffs: CoefficientVector) -> np.ndarray:
    """default_grid for an already-built coefficient vector."""
    spec = coeffs.spec
    k_max = _turning_point(spec.m, spec.mu, coeffs.K)
    half_range = k_max + _SUPPORT_PADDING
    step = 2.0 * math.pi / k_max / _GRID_POINTS_PER_WAVELENGTH
    n = max(int(math.ceil(2.0 * half_range / step)) + 1, 101)
    return _linspace(-half_range, half_range, n)


def density_profile(spec: CoherentSpec, times, x=None, tail_tol: float = 1e-14):
    """Densities at several times on a shared grid.

    Returns (x, rho) with rho of shape (len(times), len(x)).  The
    coefficients are built once and the basis functions evaluated once; only
    the coefficient phases change with t, and all times are taken by two
    real matrix products (real and imaginary parts of the phased
    coefficients) against that basis.  ValueError for a non-finite time.
    """
    coeffs = coefficients(spec, tail_tol)
    x = _support_grid(coeffs) if x is None else np.asarray(x, dtype=float)
    return x, _profile_from_coefficients(coeffs, times, x)


def count_local_maxima(rho) -> int:
    """Strict interior local maxima of a sampled profile above 1% of its global
    maximum, each interference fringe counted apart; ValueError if it is empty."""
    r = np.asarray(rho, dtype=float)
    if r.size == 0:
        raise ValueError("rho must hold at least one sample")
    thr = _MAXIMA_THRESHOLD * float(r.max())
    interior = (r[1:-1] > r[:-2]) & (r[1:-1] > r[2:]) & (r[1:-1] > thr)
    return int(np.sum(interior))


def count_wavepackets(x, rho, fringe_scale: float) -> int:
    """Number of wavepacket envelopes in a density profile.

    Colliding or turning-point packets carry full-contrast interference
    fringes whose spacing is at most the two-beam value pi/p_max, far below
    the packet separation, so the profile is averaged with a Gaussian a few
    fringe wavelengths wide before maxima are counted.  This reproduces the
    by-eye packet count while leaving genuinely separated humps intact.
    ValueError unless x and rho are 1-D of one length (at least 2), x steps
    up by a finite dx, and fringe_scale is positive and finite.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(rho, dtype=float)
    if x.ndim != 1 or x.shape != r.shape or x.size < 2:
        raise ValueError(f"x and rho must be 1-D of one length, at least 2; "
                         f"got shapes {x.shape} and {r.shape}")
    dx = float(x[1] - x[0])
    if not (0.0 < dx < math.inf):
        raise ValueError(f"x must step up by a finite dx, got dx = {dx}")
    if not (0.0 < fringe_scale < math.inf):
        raise ValueError(f"fringe_scale must be positive and finite, got {fringe_scale}")
    sigma = _PACKET_SMOOTHING * fringe_scale
    # no sample of the profile reads a kernel entry past len(r) - 1
    n = max(int(min(4.0 * sigma / dx, r.size - 1)), 1)
    kernel = np.exp(-0.5 * (np.arange(-n, n + 1) * dx / sigma) ** 2)
    kernel /= kernel.sum()
    smooth = np.convolve(r, kernel)[n:n + r.size]
    return count_local_maxima(smooth)


def fringe_wavelength(spec: CoherentSpec, tail_tol: float = 1e-14) -> float:
    """Finest two-beam interference scale pi/p_max at the truncation energy."""
    coeffs = coefficients(spec, tail_tol)
    nu_max = spec.mu + (spec.m + 1) * coeffs.K
    e_max = 2.0 * max(nu_max + spec.m + 1, 1)
    return math.pi / math.sqrt(e_max)


# ---------------------------------------------------------------------------
# cat states
# ---------------------------------------------------------------------------

def cat_coefficients(spec: CoherentSpec, parity: str, normalize: bool = True,
                     tail_tol: float = 1e-14) -> CoefficientVector:
    """Coefficients of the even (+) or odd (-) combination of |+z> and |-z>.

    For real z > 0 the two components share magnitudes and differ by the
    sign (-1)^k, so the combination keeps only even or only odd k; the
    discarded entries are exactly zero.  Without normalisation the squared
    norm is 1 +- D (component overlap); with it the retained entries plus
    the tail bound have unit norm.  The odd cat keeps at least one odd
    entry however small |z| is.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if spec.z.imag != 0.0 or spec.z.real < 0.0:
        raise ValueError("cat states are built for real z >= 0")
    if parity == "odd" and spec.z == 0:
        raise ValueError("odd cat state at z = 0 is the zero vector")
    keep = 0 if parity == "even" else 1
    coeffs = coefficients(spec, tail_tol, min_index=keep)
    entries = np.where(np.arange(len(coeffs.entries)) % 2 == keep,
                       coeffs.entries * math.sqrt(2.0), 0.0 + 0.0j)
    tail = 2.0 * coeffs.tail_mass  # bounds the dropped mass of either parity
    if normalize:
        # the norm of the retained entries plus the tail, scaled by the
        # largest entry: 1 - D rounds to 0 for the odd cat at tiny |z|,
        # while the odd entries themselves stay representable
        peak = float(np.max(np.abs(entries)))
        if peak == 0.0:
            raise ValueError(f"{parity} cat state underflows at |z| = {spec.abs_z!r}")
        scaled_tail = (math.sqrt(tail) / peak) ** 2
        scaled_sq = float(np.sum(np.abs(entries / peak) ** 2)) + scaled_tail
        entries = entries / (peak * math.sqrt(scaled_sq))
        tail = scaled_tail / scaled_sq
    return CoefficientVector(spec, entries, tail)


# ---------------------------------------------------------------------------
# defining-equation residual
# ---------------------------------------------------------------------------

def eigen_residual(spec: CoherentSpec, tail_tol: float = 1e-14) -> float:
    """Root-sum-square defect of the eigenvalue recurrence
    a_{nu_{k+1}} A_{k+1} = z A_k over the truncated coefficient vector
    (nonlinear variant)."""
    if spec.variant != "nonlinear":
        raise ValueError("the defining-equation residual applies to the nonlinear variant")
    coeffs = coefficients(spec, tail_tol)
    a = coeffs.entries
    total = 0.0
    for k in range(len(a) - 1):
        elem = ladder_element(spec.m, spec.mu + (spec.m + 1) * (k + 1))
        total += abs(elem * a[k + 1] - spec.z * a[k]) ** 2
    return math.sqrt(total)
