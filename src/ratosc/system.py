"""The deformed-oscillator model.

Spectrum, partner potential, eigenfunctions built on exceptional Hermite
polynomials, ladder-operator matrix elements and the polynomial-algebra
spectral identity.  Units are dimensionless throughout (energies in units
of half the oscillator quantum, lengths in oscillator lengths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    _PHI_X_ZERO,
    NumericalError,
    _phi_orders,
    mod_hermite,  # noqa: F401  (no caller here; bench/tracer.py wraps this name)
    phi_rows,  # noqa: F401  (no caller here; bench/tracer.py wraps this name)
)

__all__ = [
    "StateLabel",
    "lowest_weights",
    "energy",
    "potential",
    "hamiltonian_potential",
    "wavefunction",
    "wavefunction_rows",
    "ladder_element",
    "linearized_element",
    "q_polynomial",
    "algebra_residual",
    "verify_hamiltonian",
]

MAX_ORDER = 12          # recurrence-verified range for the deformation order
MAX_STATE_INDEX = 10_000
_SUPPORT_PADDING = 4.0  # spatial grids and lattices: beyond the turning point


def _check_order(m: int) -> None:
    if m < 0 or m % 2 != 0:
        raise ValueError(f"deformation order must be a nonnegative even integer, got {m}")
    if m > MAX_ORDER:
        raise ValueError(f"deformation order {m} exceeds the supported maximum {MAX_ORDER}")


def lowest_weights(m: int) -> list[int]:
    """The m+1 lowest weights, one per ladder: -m-1 and 1..m."""
    _check_order(m)
    return [-m - 1] + list(range(1, m + 1))


def _check_ladder(m: int, mu: int) -> None:
    """ValueError unless mu is a lowest weight of the deformation order m."""
    weights = lowest_weights(m)
    if mu not in weights:
        raise ValueError(f"mu = {mu} is not a lowest weight for m = {m}; "
                         f"choose one of {weights}")


@dataclass(frozen=True)
class StateLabel:
    """Eigenstate nu = mu + (m+1) k, the k-th rung of the ladder rooted at mu."""

    m: int
    mu: int
    k: int

    def __post_init__(self):
        _check_ladder(self.m, self.mu)
        if self.k < 0:
            raise ValueError("ladder step k must be >= 0")
        if self.nu > MAX_STATE_INDEX:
            raise ValueError(f"state index {self.nu} exceeds supported maximum {MAX_STATE_INDEX}")

    @property
    def nu(self) -> int:
        return self.mu + (self.m + 1) * self.k


def _turning_point(m: int, mu: int, K: int) -> float:
    """The turning point k_osc of rung K, past which the spatial grids pad."""
    return math.sqrt(4.0 * max(mu + (m + 1) * K + m + 1, 1))


def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n), made mirror-symmetric to the bit,
    x[i] == -x[n-1-i], where lo == -hi and n > 1, so that the basis kernel
    folds it across x = 0; each point moves by at most 1 ulp of hi."""
    x = np.linspace(lo, hi, n)
    return 0.5 * (x - x[::-1]) if lo == -hi and n > 1 else x


def energy(label: StateLabel) -> float:
    """Eigenvalue 2 (nu + m + 1) = 2 mu + (2m+2)(k+1)."""
    return 2.0 * (label.nu + label.m + 1)


def _top_ratio(m: int, x):
    """(R, 1/P_m) with R = P_{m-1}/P_m, from one unscaled pass of the
    all-positive modified Hermite recurrence P_{j+1} = 2x P_j + 2j P_{j-1},
    the model's only one, at x its callers clip to |x| <= _PHI_X_ZERO = 1e6,
    where |P_12| < 4.2e75.  At x = 0 the odd orders vanish and R is exactly
    0.  Every derivative the model needs is a function of R (:func:`_rational_factors`).
    """
    lo = x * 0.0
    hi = x * 0.0 + 1.0
    two_x = 2.0 * x
    for j in range(m):
        lo, hi = hi, two_x * hi + 2.0 * j * lo
    return lo / hi, 1.0 / hi


def _rational_factors(m: int, r, x):
    """(R, R', R'') from R = P_{m-1}/P_m, m > 0: R' = 1 - 2xR - 2mR^2 and
    R'' = -2R - 2xR' - 4mRR'.  Each term is odd (R, R'') or even (R') in x,
    so parity holds to the bit.  R' ~ -1/(2x^2) cancels terms ~1: it loses
    relative accuracy like x^2 eps from |x| ~ 1e3 on (3.5e-4 at |x| = 1e6,
    m = 12, against exact rationals), and R'' ~ 1/x^3 inherits the error
    through 2xR' (no digit is left past |x| ~ 1e4).  Where they are used, in
    the rows and the potential, their terms fall below an ulp of the leading
    terms or multiply oscillator functions that are exactly 0."""
    r1 = 1.0 - 2.0 * x * r - 2.0 * m * r * r
    return r, r1, -2.0 * r - 2.0 * x * r1 - 4.0 * m * r * r1


def potential(m: int, x):
    """Deformed potential x^2 - 2 [P''/P - (P'/P)^2 + 1], with P the positive
    even-order modified Hermite polynomial.

    With P' = 2m P_{m-1}, P'' = 4m(m-1) P_{m-2} and the recurrence, this is
    x^2 - 2 - 4m R' in R = P_{m-1}/P_m alone, R' = 1 - 2xR - 2mR^2, formed
    at x clipped to |x| <= 1e6 as in the basis kernel: past it 4m R' ~ 2m/x^2
    lies below half an ulp of x^2 - 2, which the curve equals there.  An x
    whose square overflows raises NumericalError.  See hamiltonian_potential
    for the energy origin that pairs with the spectrum convention used here.
    """
    _check_order(m)
    with np.errstate(over="ignore"):
        x2 = x * x
    if np.any(np.isinf(x2)):
        raise NumericalError(f"x^2 overflows at |x| = {float(np.max(np.abs(x))):.3g}")
    xc = np.clip(x, -_PHI_X_ZERO, _PHI_X_ZERO)
    _, r1, _ = _rational_factors(m, _top_ratio(m, xc)[0], xc)
    return x2 - 2.0 - 4.0 * m * r1


def hamiltonian_potential(m: int, x):
    """The potential shifted by 2m+1 so the added ground state sits at E = 0.

    This is the zero point consistent with the eigenvalues 2 (nu + m + 1);
    the eigen-equation -psi'' + V psi = E psi holds with this V, not with
    the conventional curve returned by :func:`potential`.
    """
    return potential(m, x) + (2.0 * m + 1.0)


def ladder_element(m: int, nu: int) -> float:
    """Matrix element of the order-m lowering operator between states nu and
    nu-(m+1): -sqrt(2^{m+1} (nu-1)(nu-2)...(nu-m) (nu+m+1)).

    The radicand is >= 0 for every valid nu (negative factors pair up for
    even m) and vanishes exactly on the lowest weights, which the operator
    annihilates.
    """
    _check_order(m)
    if nu != -m - 1 and nu < 0:
        raise ValueError(f"state index {nu} is not in the spectrum for m = {m}")
    radicand = 2.0 ** (m + 1) * (nu + m + 1)
    for j in range(1, m + 1):
        radicand *= nu - j
    if radicand < 0.0:
        raise ArithmeticError(f"negative radicand for m={m}, nu={nu}; invalid input slipped through")
    return -math.sqrt(radicand)


def linearized_element(m: int, k: int) -> float:
    """Matrix element sqrt(2k) of the linearized lowering operator between
    rungs k and k-1 of one ladder (oscillator-like, commutator equal to 2)."""
    _check_order(m)
    if k < 1:
        raise ValueError("ladder step k must be >= 1")
    return math.sqrt(2.0 * k)


def q_polynomial(m: int, E: float, shifted: bool = False) -> float:
    """Order m+1 spectral polynomial of the ladder algebra.

    shifted=False:  Q(E)        = E * prod_{i=1..m} (E - 2m - 2 - 2i)
    shifted=True:   Q(E + 2m+2) = (E + 2m + 2) * prod_{i=1..m} (E - 2i)
    """
    _check_order(m)
    if shifted:
        out = E + 2.0 * m + 2.0
        for i in range(1, m + 1):
            out *= E - 2.0 * i
    else:
        out = float(E)
        for i in range(1, m + 1):
            out *= E - 2.0 * m - 2.0 - 2.0 * i
    return out


def algebra_residual(m: int, nu: int) -> float:
    """Defect of the spectral commutation identity on eigenstate nu:
    |a_{nu+m+1}^2 - a_nu^2 - (Q(E_nu + 2m+2) - Q(E_nu))|, zero in exact
    arithmetic for every valid nu."""
    _check_order(m)
    a_up = ladder_element(m, nu + m + 1)
    a_dn = ladder_element(m, nu)
    e_nu = 2.0 * (nu + m + 1)
    lhs = a_up * a_up - a_dn * a_dn
    rhs = q_polynomial(m, e_nu, shifted=True) - q_polynomial(m, e_nu, shifted=False)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------

def wavefunction(label: StateLabel, x, derivative_order: int = 0):
    """Position wavefunction of one eigenstate, or its first or second
    derivative, at scalar or array x: a float for a scalar x, else an array
    shaped like x.

    A single-state view of :func:`wavefunction_rows`, which holds the
    formulas.  For the added ground state (nu = -m-1) the form
    exp(-x^2/2)/P_m(x) is used directly.  For nu >= 0 the evaluation runs
    through the numerically stable two-term combination of normalised
    oscillator functions

        psi_nu = sqrt((nu+1)/(nu+m+1)) phi_{nu+1}
               + (2m / sqrt(2 (nu+m+1))) (P_{m-1}/P_m) phi_nu,

    which is algebraically identical to the textbook quotient of the
    exceptional polynomial by P_m but free of the factorial overflow that
    kills the literal form near nu ~ 150.  It is finite for every finite
    x, and exactly 0 past |x| = 1e6.
    """
    xv = np.asarray(x, dtype=float)
    row = wavefunction_rows(label.m, label.mu, [label.k], xv.ravel(), derivative_order)[0]
    return float(row[0]) if np.isscalar(x) else row.reshape(xv.shape)


def wavefunction_rows(m: int, mu: int, ks, x, derivative_order: int = 0) -> np.ndarray:
    """Matrix of wavefunctions psi_{mu+(m+1)k}(x) for all requested ladder
    steps k at once, sharing a single oscillator-function recurrence pass.

    Returns an array of shape (len(ks), len(x)).  With
    phi_n' = sqrt(2n) phi_{n-1} - x phi_n and phi_n'' = (x^2 - 2n - 1) phi_n
    the derivatives of the two-term form are exact, like the values.  R
    enters with R' = 1 - 2xR - 2mR^2 and R'' = -2R - 2xR' - 4mRR', and the
    ground row with P_m'/P_m = 2mR and 1/P_m, all from one unscaled pass
    of :func:`_top_ratio` at x clipped to |x| <= 1e6: the rows are finite
    for every finite x, and exactly 0 past |x| = 1e6.  The rows are those of the kernel
    :func:`_basis_blocks`, stored, bitwise the same for any set of orders.

    Parity holds to the bit: the d-th derivative obeys
    psi_nu^(d)(-x) = (-1)^(nu+1+d) psi_nu^(d)(x) exactly, since every step
    of the recurrences only flips signs under x -> -x; the kernel takes
    one half of a mirror-symmetric point set from it.
    """
    if derivative_order not in (0, 1, 2):
        raise ValueError("derivative_order must be 0, 1 or 2")
    return _wavefunction_stack(m, mu, ks, x, (derivative_order,))[0]


def _wavefunction_stack(m: int, mu: int, ks, x, orders) -> list[np.ndarray]:
    """Rows of :func:`wavefunction_rows` for each derivative order in
    ``orders`` (a sequence drawn from 0, 1, 2): a list with one array of
    shape (len(ks), len(x)) per order, copied from :func:`_basis_blocks`."""
    x = np.asarray(x, dtype=float).reshape(-1)
    out = [np.empty((len(ks), x.size)) for _ in orders]
    for start, stop, rows in _basis_blocks(m, mu, ks, x, orders):
        for dst, block in zip(out, rows):
            dst[:, start:stop] = block
    return out


# Points per block of _basis_blocks; fewer where the rows of a block and the
# values its caller holds per point would pass _BLOCK_ENTRIES floats (32 MB)
_BLOCK_POINTS = 4096
_BLOCK_ENTRIES = 1 << 22


def _basis_blocks(m: int, mu: int, ks, x, orders, held: int = 0):
    """The basis kernel: yield (start, stop, rows) over blocks of the points
    x, rows[j] the (len(ks), stop - start) rows of derivative order
    orders[j] (0, 1 or 2) at x[start:stop], in buffers the next block
    overwrites and the caller writes to none.  Per block, each rung's rows
    are formed from the window of phi_{nu-1}, phi_nu and phi_{nu+1} that the
    in-place pass :func:`~ratosc.specfun._phi_orders` yields at order nu + 1,
    in the operation order of the two-term form (so bitwise for any
    blocking), and one modified-Hermite pass gives R, R', R'' and the ground
    row (its rung found once per call).  ``held`` counts the values
    per point the caller keeps beside the rows.  The library's one parity
    fold: on points mirror-symmetric to the bit, x[i] == -x[n-1-i], the
    pass runs on x[n//2:] >= 0 only, and after each block its buffer is
    turned, row by row, into the block's mirror image, yielded for its own
    columns (a point at 0 once; the blocks come out of order).  ValueError,
    as from StateLabel, for a k < 0 or a top state index past
    MAX_STATE_INDEX, before any point is evaluated.
    """
    if len(ks):  # the checks of StateLabel, at the lowest and the top rung
        StateLabel(m, mu, min(ks))
        StateLabel(m, mu, max(ks))
    nus = [mu + (m + 1) * k for k in ks]
    # every row is 0 past the phi_rows clip; clipping keeps x^2 and x phi finite
    x = np.clip(np.asarray(x, dtype=float).reshape(-1), -_PHI_X_ZERO, _PHI_X_ZERO)
    half = x.size // 2 if np.array_equal(x, -x[::-1]) else 0
    top_order = max(orders)
    # phi_{nu-1} enters the derivatives only
    span = (-1, 0, 1) if top_order else (0, 1)
    wanted = sorted({max(nu + d, 0) for nu in nus if nu >= 0 for d in span})
    completes: dict[int, list[int]] = {}  # order n -> the rows of rung n - 1
    for i, nu in enumerate(nus):
        if nu >= 0:
            completes.setdefault(nu + 1, []).append(i)
    ground = [i for i, nu in enumerate(nus) if nu == -m - 1]
    norm = math.sqrt(2.0 ** m * math.factorial(m) / math.sqrt(math.pi))
    size = min(_BLOCK_POINTS, max(16, _BLOCK_ENTRIES // max(len(nus) * len(orders) + held, 1)))
    buffers = [np.empty((len(nus), min(size, x.size - half))) for _ in orders]
    for start in range(half, x.size, size):
        xb = x[start:start + size]
        out = [buf[:, :xb.size] for buf in buffers]
        r, inv_pm = _top_ratio(m, xb)
        r, r1, r2 = _rational_factors(m, r, xb) if m else (0.0, 0.0, 0.0)
        if ground:
            # N exp(-x^2/2)/P_m: log-derivative -s, s = x + P_m'/P_m = x + 2mR, s' = 1 + 2mR'
            g = norm * np.exp(-0.5 * xb * xb) * inv_pm
            s = xb + 2.0 * m * r
            rows = (g, -s * g, (s * s - 1.0 - 2.0 * m * r1) * g)
            for dst, order in zip(out, orders):
                dst[ground] = rows[order]
        for n, window in _phi_orders(xb, wanted):
            if n not in completes:
                continue
            nu = n - 1
            alpha = math.sqrt((nu + 1.0) / (nu + m + 1.0))
            beta = 2.0 * m / math.sqrt(2.0 * (nu + m + 1.0))
            ph_up, ph_n = window[n % 3], window[nu % 3]
            if top_order:
                ph_dn = window[(nu - 1) % 3]
                d_up = math.sqrt(2.0 * (nu + 1)) * ph_n - xb * ph_up
                d_n = math.sqrt(2.0 * nu) * ph_dn - xb * ph_n
            for dst, order in zip(out, orders):
                for i in completes[n]:
                    if order == 0:
                        dst[i] = alpha * ph_up + beta * r * ph_n
                    elif order == 1:
                        dst[i] = alpha * d_up + beta * (r1 * ph_n + r * d_n)
                    else:
                        dd_up = (xb * xb - 2.0 * (nu + 1) - 1.0) * ph_up
                        dd_n = (xb * xb - 2.0 * nu - 1.0) * ph_n
                        dst[i] = alpha * dd_up + beta * (r2 * ph_n + 2.0 * r1 * d_n + r * dd_n)
        stop = start + xb.size
        yield start, stop, out
        lo = max(start, x.size - half)  # x[lo:stop] mirror x[:half]; a point at 0 does not
        if lo < stop:
            for dst, order in zip(out, orders):
                for row, nu in zip(dst, nus):  # psi^(d)(-x) = (-1)^(nu+1+d) psi^(d)(x)
                    np.multiply(row[lo - start:][::-1], 1.0 - 2.0 * ((nu + order + 1) % 2),
                                out=row[:stop - lo])
            yield x.size - stop, x.size - lo, [dst[:, :stop - lo] for dst in out]


def verify_hamiltonian(label: StateLabel, grid_step: float = 1e-3) -> float:
    """Largest eigen-equation defect max |-psi'' + V psi - E psi| / max|psi|
    over a uniform grid covering the state's classical support.

    Uses the analytic second derivative; grid_step only sets the sampling
    density of the scan.
    """
    if not 1e-4 <= grid_step <= 1e-2:
        raise ValueError("grid_step must lie in [1e-4, 1e-2]")
    e = energy(label)
    half_range = _turning_point(label.m, label.mu, label.k) + _SUPPORT_PADDING
    n = int(2.0 * half_range / grid_step) + 1
    x = _linspace(-half_range, half_range, n)
    psi, d2 = (row[0] for row in _wavefunction_stack(label.m, label.mu, [label.k], x, (0, 2)))
    v = hamiltonian_potential(label.m, x)
    residual = np.abs(-d2 + (v - e) * psi)
    return float(np.max(residual) / np.max(np.abs(psi)))
