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


def _log_binomial(k: int, r: int) -> float:
    r = min(r, k - r)  # bitwise-identical result for r and k-r
    return lgamma(k + 1) - lgamma(r + 1) - lgamma(k - r + 1)


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

    Square roots of the binomials are assembled in log space, so rows stay
    accurate out to k well past 100.  Row norms satisfy
    sum_r |G(k,r)|^2 = |A_k|^2 exactly (binomial theorem).
    """
    a = coeffs.entries
    K = len(a) - 1
    g = np.zeros((K + 1, K + 1), dtype=complex)
    for k in range(K + 1):
        logs = np.array([_log_binomial(k, r) for r in range(k + 1)])
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
    for s in range(K + 1):
        for n2 in range(s + 1):
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


def linear_entropy(out: OutputState) -> EntropyResult:
    """1 - purity of one output arm after tracing out the other.

    The reduced-state matrix elements are inner products of shifted columns
    of G; all sums run to the truncation K, and twice the dropped
    coefficient mass bounds the truncation error of the purity
    (Cauchy-Schwarz).  error_bound adds to that a rounding term
    4 (K+1) ln(K+2) eps times the purity sum: the table entries carry the
    rounding of log-space binomials as large as K ln K, and each inner
    product sums K+1 of their products.  A value within that bound below
    zero is clamped to zero.
    """
    K = out.K
    cols = [out.g[r:, r] for r in range(K + 1)]  # G(r+kappa, r) over kappa
    purity = 0.0
    for r1 in range(K + 1):
        v1 = cols[r1]
        for r2 in range(r1, K + 1):
            v2 = cols[r2]
            n = min(v1.size, v2.size)
            inner = abs(np.vdot(v2[:n], v1[:n])) ** 2
            purity += inner if r1 == r2 else 2.0 * inner
    value = 1.0 - purity
    rounding = 4.0 * (K + 1) * math.log(K + 2) * _EPS * purity
    bound = 2.0 * out.tail_mass + 1e-13 + rounding
    if -bound <= value < 0.0:
        value = 0.0
    return EntropyResult(float(value), float(bound))
