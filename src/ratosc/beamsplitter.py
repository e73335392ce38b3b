"""A coherent state on one arm of a balanced beamsplitter.

The input superposition rides on one port, vacuum on the other.  Each
basis excitation of weight k splits binomially over the two output arms,
giving the output amplitude table, the joint excitation-number
distribution, a factorization metric and the linear entropy of one arm.
Only the input vector is stored.  The table and the distribution are
formed in row blocks; the entropy forms no table at all, as the purity of
one arm is read off two copies of the input vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import lgamma

import numpy as np

from .coherent import CoefficientVector
from .specfun import NumericalError
from .system import StateLabel

__all__ = ["OutputState", "TwoModeDistribution", "EntropyResult", "split",
           "two_photon_distribution", "rank_one_residual", "linear_entropy"]


_EPS = float(np.finfo(float).eps)
# Products P q rank_one_residual spends on its leading triplet at most.
_MAX_PRODUCTS = 1000
# Rows per formed block: of the table in _row_blocks, of P - sigma u u^T in
# rank_one_residual and of the pairs (n, m) in linear_entropy.  Each block
# holds a few arrays of this many rows by at most K + _PURITY_BLOCK columns,
# so the work space grows as _PURITY_BLOCK * K; larger blocks mean fewer
# passes over more memory.
_PURITY_BLOCK = 16
# Factor on the doubled pair term in row n = i0 + r and column
# N = 2 i0 + j of a linear_entropy block: 0 where m = N - n < n (the pair
# (m, n) is counted in its own row), 1/2 on m = n, 1 past it.
_PAIR_FACTOR = 0.5 * (1.0 + np.sign(np.arange(2 * _PURITY_BLOCK)
                                    - 2 * np.arange(_PURITY_BLOCK)[:, None]))


@dataclass(frozen=True, eq=False)
class OutputState:
    """Output amplitudes indexed by the quanta counted in each arm:
    amplitudes[n1, n2] = A_{n1+n2} 2^{-(n1+n2)/2} sqrt(C(n1+n2, n2)).

    The table is formed only on the first access to amplitudes.  Entries
    with n1 + n2 beyond the truncation K are zero, so the table is filled
    on and above its anti-diagonal.  The unimodular reflection phase
    attached to the n2-th amplitude is kept out of the table by convention;
    it cancels identically in the joint number distribution and in the
    reduced-state purity, the two quantities computed from it downstream.
    """

    entries: np.ndarray   # A_0..A_K
    tail_mass: float

    @property
    def K(self) -> int:
        return len(self.entries) - 1

    @cached_property
    def amplitudes(self) -> np.ndarray:
        amp = np.zeros((self.K + 1, self.K + 1), dtype=complex)
        for i0, block in _row_blocks(self.entries):
            amp[i0:i0 + block.shape[0], :block.shape[1]] = block
        return amp


def _row_blocks(a):
    """Yield (i0, the _PURITY_BLOCK table rows from i0) over the columns
    row i0 reaches.

    Square roots of the binomials are assembled in log space from one
    table of ln j!, so entries stay accurate out to n1 + n2 well past 100,
    and (n1, n2) and (n2, n1) take the same expression in k = n1 + n2 and
    r = min(n1, n2), so they are bitwise equal.
    """
    K = len(a) - 1
    log_fact = np.array([lgamma(j + 1) for j in range(K + 1)])
    for i0 in range(0, K + 1, _PURITY_BLOCK):
        n1 = np.arange(i0, min(i0 + _PURITY_BLOCK, K + 1))[:, None]
        n2 = np.arange(K + 1 - i0)
        k = np.minimum(n1 + n2, K)  # past the anti-diagonal: any valid index, zeroed below
        r = np.minimum(n1, n2)  # bitwise-identical entries for (n1, n2) and (n2, n1)
        logs = log_fact[k] - log_fact[r] - log_fact[k - r]
        block = a[k] * np.exp(0.5 * logs - 0.5 * k * math.log(2.0))
        block[n1 + n2 > K] = 0.0
        yield i0, block


def split(coeffs: CoefficientVector) -> OutputState:
    """Balanced splitting of the input superposition against vacuum.

    Anti-diagonal norms satisfy sum_{n1+n2=k} |amplitudes[n1, n2]|^2 =
    |A_k|^2 exactly (binomial theorem).  split allocates O(K).  A
    truncation whose top state index passes system.MAX_STATE_INDEX raises
    ValueError.
    """
    StateLabel(coeffs.spec.m, coeffs.spec.mu, coeffs.K)  # validates the top state index
    return OutputState(coeffs.entries, coeffs.tail_mass)


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
    coefficient mass.  P is filled block by block; the complex table is
    never formed.
    """
    p = np.zeros((out.K + 1, out.K + 1))
    for i0, block in _row_blocks(out.entries):
        p[i0:i0 + block.shape[0], :block.shape[1]] = np.abs(block) ** 2
    return TwoModeDistribution(p, float(p.sum()))


def rank_one_residual(dist: TwoModeDistribution) -> float:
    """max|P - sigma u u^T| for the best rank-one approximation sigma u u^T
    of P; zero means the arms are uncorrelated.

    The leading singular triplet of the symmetric, nonnegative P is its
    Perron pair, found from products P q alone by a two-vector subspace
    iteration (Golub and Van Loan, Matrix Computations, sec. 8.2) from the
    row sums of P, never orthogonal to u >= 0, and their alternating-sign
    copy: per step Gram-Schmidt and a 2x2 Rayleigh-Ritz in closed form,
    until |P u - sigma u| <= 16 eps sigma.  NumericalError is raised after
    _MAX_PRODUCTS products and where |sigma2| >= (1 - sqrt(eps)) sigma: the
    best rank-one approximation is then not unique (odd cats and odd Fock
    states tie exactly).
    """
    p = dist.p
    z = np.stack([p.sum(axis=1), p @ np.where(np.arange(len(p)) % 2, -1.0, 1.0)])
    if not z[0].any():  # P = 0
        return 0.0
    q = np.empty_like(z)
    for _ in range(_MAX_PRODUCTS // 2 - 1):
        q[0] = z[0] / math.sqrt(z[0] @ z[0])
        q[1] = z[1] - (q[0] @ z[1]) * q[0]
        q[1] -= (q[0] @ q[1]) * q[0]  # twice is enough
        q[1] /= math.sqrt(q[1] @ q[1]) or 1.0  # 0 where P is rank-one or K = 0
        z[0], z[1] = p @ q[0], p @ q[1]
        a, b, d = q[0] @ z[0], q[0] @ z[1], q[1] @ z[1]  # Q^T P Q = [[a, b], [b, d]]
        radius, phi = math.hypot(0.5 * (a - d), b), 0.5 * math.atan2(2.0 * b, a - d)
        sigma, second = 0.5 * (a + d) + radius, 0.5 * (a + d) - radius
        c, s = math.cos(phi), math.sin(phi)
        for v in (q, z):  # the Ritz vectors: Q and P Q turned by phi
            v[:] = c * v[0] + s * v[1], c * v[1] - s * v[0]
        r = z[0] - sigma * q[0]
        if math.sqrt(r @ r) <= 16.0 * _EPS * sigma:
            break
    else:
        raise NumericalError(f"no leading singular triplet within {_MAX_PRODUCTS} products "
                             f"(sigma2/sigma1 ~ {abs(second) / sigma:.3g})")
    if abs(second) >= (1.0 - math.sqrt(_EPS)) * sigma:
        raise NumericalError(f"sigma2/sigma1 = {abs(second) / sigma:.17g}: the best rank-one "
                             "approximation is not unique")
    u, rows = q[0], _PURITY_BLOCK
    return max(float(np.max(np.abs(p[i:i + rows] - np.outer(sigma * u[i:i + rows], u))))
               for i in range(0, len(u), rows))


@dataclass(frozen=True)
class EntropyResult:
    """Linear entropy with the truncation error bound folded in."""

    value: float
    error_bound: float


def linear_entropy(out: OutputState) -> EntropyResult:
    """1 - purity of one output arm after tracing out the other.

    The purity of an arm is the mean of SWAP on two copies of it, and SWAP
    is the parity of the copies' difference mode.  With vacuum on both
    empty ports the purity is thus the probability that a balanced
    splitter on two copies of the input leaves the difference port empty,

        purity = sum_{N=0}^{2K} |c_N|^2,
        c_N = sum_{n+m=N} sqrt(C(N, n) / 2^N) A_n A_m,

    and no amplitude table is formed.  The pairs m >= n, those off the
    diagonal doubled, are weighted in blocks of _PURITY_BLOCK rows n from
    one table of ln j!, j <= 2K, and summed over the rows into c: O(K^2)
    time, O(_PURITY_BLOCK K) memory and no overflow.

    Twice the dropped coefficient mass bounds the truncation error
    (Cauchy-Schwarz); error_bound adds 1e-13 and the rounding term
    (3.5 ln((2K)!) + 4K + 10) eps M^2, M = sum_k |A_k|^2.  If each c_N is
    off by at most e S_N, S_N the c_N of the |A_k|, the purity is off by
    at most 2 e sum_N S_N^2 <= 2 e M^2.  e takes 1.65 eps ln N! + 0.52 eps N
    from the log weight (three math.lgamma values within 1.4 eps relative
    for j <= 2.4e4, ln n! + ln m! <= ln N!, four roundings), ~2 eps from
    exp and the products, and 0.36 K eps from the at most K/2 + 1 terms of
    c_N; the 2K + 1 squares add K eps.  A value within the bound below zero
    is clamped to zero.
    """
    a = out.entries
    K = out.K
    half_log_fact = 0.5 * np.fromiter(map(lgamma, range(1, 2 * K + 2)), float, 2 * K + 1)
    half_log_2N = 0.5 * math.log(2.0) * np.arange(2 * K + 1)
    # m = N - n passes 0..K by up to _PURITY_BLOCK - 1 at either end of a
    # block; the padding gives those pairs weight exp(-inf) = 0 and A_m = 0
    inside = slice(_PURITY_BLOCK, _PURITY_BLOCK + K + 1)
    padded_half_log_fact = np.full(K + 1 + 2 * _PURITY_BLOCK, np.inf)
    padded_half_log_fact[inside] = half_log_fact[:K + 1]
    padded_a = np.zeros(K + 1 + 2 * _PURITY_BLOCK, dtype=complex)
    padded_a[inside] = a
    c = np.zeros(2 * K + 1, dtype=complex)
    for i0 in range(0, K + 1, _PURITY_BLOCK):
        i1 = min(i0 + _PURITY_BLOCK, K + 1)
        N = slice(2 * i0, i1 + K)  # the sums n + m of rows n = i0 .. i1 - 1
        m = np.arange(N.start, N.stop) + _PURITY_BLOCK - np.arange(i0, i1)[:, None]
        # ln N! - ln n! - ln m! before the power of 2: the order error_bound counts
        logs = (half_log_fact[N] - half_log_fact[i0:i1, None] - padded_half_log_fact[m]
                - half_log_2N[N])
        terms = np.exp(logs) * (2.0 * a[i0:i1, None]) * padded_a[m]
        lead = terms[:, :2 * (i1 - i0)]
        lead *= _PAIR_FACTOR[:i1 - i0, :lead.shape[1]]
        c[N] += terms.sum(axis=0)
    purity = float(np.vdot(c, c).real)
    value = 1.0 - purity
    mass = float(np.vdot(a, a).real)
    rounding = (7.0 * half_log_fact[-1] + 4.0 * K + 10.0) * _EPS * mass**2
    bound = 2.0 * out.tail_mass + 1e-13 + rounding
    if -bound <= value < 0.0:
        value = 0.0
    return EntropyResult(float(value), float(bound))
