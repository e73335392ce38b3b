"""A coherent state on one arm of a balanced beamsplitter.

The input superposition rides on one port, vacuum on the other.  Each
basis excitation of weight k splits binomially over the two output arms,
giving the output amplitude table, the joint excitation-number
distribution, a factorization metric and the linear entropy of one arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

from .coherent import CoefficientVector
from .system import StateLabel

__all__ = [
    "OutputState",
    "TwoModeDistribution",
    "EntropyResult",
    "split",
    "two_photon_distribution",
    "rank_one_residual",
    "linear_entropy",
]


_EPS = float(np.finfo(float).eps)
# Rows of the skewed table gathered per matrix product in linear_entropy.
# Larger blocks mean fewer gathers, but two block buffers and the BLAS
# work space sit in memory beside the (K+1)^2 table: at K = 622, 32-row
# blocks raised the peak resident size by ~1.2 MB and 16-row ones by ~0.7.
_PURITY_BLOCK = 16


@dataclass(frozen=True, eq=False)
class OutputState:
    """Output amplitude table G(k, r) = A_k 2^{-k/2} sqrt(C(k, r)) for r <= k.

    The unimodular reflection phase attached to the r-th amplitude is kept
    out of the table by convention; it cancels identically in the joint
    number distribution and in the reduced-state purity, the two quantities
    computed from G downstream.
    """

    g: np.ndarray        # (K+1, K+1) complex, zero above the diagonal r > k
    tail_mass: float

    @property
    def K(self) -> int:
        return self.g.shape[0] - 1


def split(coeffs: CoefficientVector) -> OutputState:
    """Balanced splitting of the input superposition against vacuum.

    Square roots of the binomials are assembled in log space from one
    table of ln j!, so rows stay accurate out to k well past 100.  Row
    norms satisfy sum_r |G(k,r)|^2 = |A_k|^2 exactly (binomial theorem).
    A truncation whose top state index passes system.MAX_STATE_INDEX raises
    ValueError before the (K+1)^2 table is allocated.
    """
    a = coeffs.entries
    K = len(a) - 1
    StateLabel(coeffs.spec.m, coeffs.spec.mu, K)  # validates the top state index
    log_fact = np.array([lgamma(j + 1) for j in range(K + 1)])
    g = np.zeros((K + 1, K + 1), dtype=complex)
    for k in range(K + 1):
        r = np.arange(k + 1)
        r = np.minimum(r, k - r)  # bitwise-identical entries for r and k-r
        logs = log_fact[k] - log_fact[r] - log_fact[k - r]
        g[k, : k + 1] = a[k] * np.exp(0.5 * logs - 0.5 * k * math.log(2.0))
    return OutputState(g, coeffs.tail_mass)


@dataclass(frozen=True, eq=False)
class TwoModeDistribution:
    """Joint probability P(n1, n2) of counting n1 and n2 output quanta."""

    p: np.ndarray
    total_mass: float


def two_photon_distribution(out: OutputState) -> TwoModeDistribution:
    """P(n1, n2) = |A_{n1+n2}|^2 2^{-(n1+n2)} C(n1+n2, n2).

    Depends on the input only through |A_{n1+n2}|^2, which is why a
    non-Poissonian input cannot factorize over the arms.  Entries with
    n1+n2 beyond the truncation are zero; total_mass is the retained
    coefficient mass.
    """
    K = out.K
    gm = np.abs(out.g) ** 2
    p = np.zeros((K + 1, K + 1))
    s, n2 = np.tril_indices(K + 1)  # n1 + n2 = s over the table's lower triangle
    p[s - n2, n2] = gm[s, n2]
    return TwoModeDistribution(p, float(p.sum()))


def rank_one_residual(dist: TwoModeDistribution) -> float:
    """Largest-entry distance between P and its best rank-one approximation
    (leading singular triplet); zero means the arms are uncorrelated."""
    u, s, vt = np.linalg.svd(dist.p)
    best = s[0] * np.outer(u[:, 0], vt[0])
    return float(np.max(np.abs(dist.p - best)))


@dataclass(frozen=True)
class EntropyResult:
    """Linear entropy with the truncation error bound folded in."""

    value: float
    error_bound: float


def _skew_rows(g: np.ndarray, start: int, out: np.ndarray, conjugate: bool) -> np.ndarray:
    """Rows start.. of H[kappa, r] = G(r+kappa, r), or of its conjugate, written
    into the leading rows and columns of out; row kappa is the kappa-th
    subdiagonal of G, zero past column K - kappa."""
    rows = min(out.shape[0], g.shape[0] - start)
    width = g.shape[0] - start
    h = out[:rows, :width]
    for i in range(rows):
        d = g.diagonal(-(start + i))
        if conjugate:
            np.conjugate(d, out=h[i, : d.size])
        else:
            h[i, : d.size] = d
        h[i, d.size:] = 0.0
    return h


def linear_entropy(out: OutputState) -> EntropyResult:
    """1 - purity of one output arm after tracing out the other.

    With H[kappa, r] = G(r+kappa, r) the reduced state is rho = H H^H, so the
    purity is ||H H^H||_F^2.  H is gathered in blocks of 16 rows and
    each pair of blocks is multiplied once, the off-diagonal pairs counted
    twice by symmetry; row kappa vanishes past column K - kappa, so a pair
    multiplies only the columns its later block reaches.  The blocks live
    in two reused buffers, so no second (K+1) x (K+1) array is formed
    beside G.  All sums run to the truncation K, and twice the dropped
    coefficient mass bounds the truncation error of the purity
    (Cauchy-Schwarz).  error_bound adds to that a rounding term
    4 (K+1) ln(K+2) eps times the purity sum: the table entries carry the
    rounding of log-space binomials as large as K ln K, and each entry of
    rho sums K+1 of their products.  A value within that bound below zero
    is clamped to zero.
    """
    g = out.g
    K = out.K
    rows = np.empty((_PURITY_BLOCK, K + 1), dtype=complex)
    conj_rows = np.empty((_PURITY_BLOCK, K + 1), dtype=complex)
    purity = 0.0
    for i0 in range(0, K + 1, _PURITY_BLOCK):
        h_i = _skew_rows(g, i0, rows, conjugate=False)
        for j0 in range(i0, K + 1, _PURITY_BLOCK):
            hc_j = _skew_rows(g, j0, conj_rows, conjugate=True)
            block = h_i[:, : hc_j.shape[1]] @ hc_j.T
            inner = float(np.vdot(block, block).real)
            purity += inner if j0 == i0 else 2.0 * inner
    value = 1.0 - purity
    rounding = 4.0 * (K + 1) * math.log(K + 2) * _EPS * purity
    bound = 2.0 * out.tail_mass + 1e-13 + rounding
    if -bound <= value < 0.0:
        value = 0.0
    return EntropyResult(float(value), float(bound))
