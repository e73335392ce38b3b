"""A coherent state on one arm of a balanced beamsplitter.

The input superposition rides on one port, vacuum on the other.  Each
basis excitation of weight k splits binomially over the two output arms,
giving the output amplitude table, the joint excitation-number
distribution, a factorization metric and the linear entropy of one arm.
Only the input vector is stored; each quantity forms the rows it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
# Rows of the table per formed block and per matrix product of
# linear_entropy.  Larger blocks mean fewer passes but more BLAS work
# space: at K = 622, 32-row purity blocks raised the peak resident size
# by ~1.2 MB, 16-row ones by ~0.7.
_PURITY_BLOCK = 16


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

    The reduced state of the first arm is rho = T T^H with T the amplitude
    table, so the purity is ||T T^H||_F^2.  T is formed in 16-row blocks
    over the columns each block's first row reaches, and kept as that
    packed anti-triangle, about half the dense table.  Each pair of blocks
    is multiplied once over the columns its later block reaches, the
    off-diagonal pairs counted twice by symmetry, and that block is
    conjugated once for all its earlier partners.  All sums run to the
    truncation K, and twice the dropped coefficient mass bounds the
    truncation error of the purity (Cauchy-Schwarz).
    error_bound adds to that a rounding term 4 (K+1) ln(K+2) eps times the
    purity sum: the table entries carry the rounding of log-space binomials
    as large as K ln K, and each entry of rho sums K+1 of their products.
    A value within that bound below zero is clamped to zero.
    """
    K = out.K
    rows = [block for _, block in _row_blocks(out.entries)]
    purity = 0.0
    for jb, row in enumerate(rows):
        w = row.shape[1]
        later = row.conj().T
        for ib in range(jb + 1):
            block = rows[ib][:, :w] @ later
            inner = float(np.vdot(block, block).real)
            purity += inner if ib == jb else 2.0 * inner
    value = 1.0 - purity
    rounding = 4.0 * (K + 1) * math.log(K + 2) * _EPS * purity
    bound = 2.0 * out.tail_mass + 1e-13 + rounding
    if -bound <= value < 0.0:
        value = 0.0
    return EntropyResult(float(value), float(bound))
