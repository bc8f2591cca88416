"""Quadratic-Hamiltonian lower bound and its truncated-Fock sharpness study.

The Hamiltonian acts on four bosonic modes labeled (tau, z) with
tau, z in {+, -}:

    H = t * sum b*_{tau,z} b_{tau,z}
        + sum_{z,z'} sqrt(g_z g_z') z z' (b*_{+,z} b_{+,z'} + b*_{-,z} b_{-,z'}
                                          + b*_{+,z} b*_{-,z'} + b_{+,z} b_{-,z'})

and is bounded below by -(t+g) + sqrt((t+g)^2 - g^2) with g = g_plus+g_minus.
The bound is sharp for true annihilation operators, which is what the
truncated ladder realizes as n_max grows.

Every term creates or destroys one tau=+ and one tau=- boson, or moves a
boson within one tau, so H commutes with the charge
Q = N_{tau=+} - N_{tau=-}.  The vacuum has Q = 0, and the truncated H is
built only on the Q = 0 occupation states (19 at n_max = 2 against 81 for
all four modes); the tests certify against the full (n_max+1)^4 space that
this is the ground energy.  H also commutes with the tau-swap
P: (n0, n1, n2, n3) -> (n2, n3, n0, n1), so the Q = 0 matrix splits into a
P-even and a P-odd block, each about half the size.  Both are built
directly from the ladder terms, never through the full Q = 0 matrix, and
solved with `numpy.linalg.eigvalsh`; the module imports no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, DomainError, PreconditionError, ResourceLimitError

__all__ = [
    "BogolubovModel",
    "TruncatedFockOperator",
    "closed_form_bound",
    "build_hamiltonian",
    "ground_energy",
    "sharpness_study",
    "DIMENSION_CAP",
    "GAP_RTOL",
]

# Mode order: 0=(+,+1), 1=(+,-1), 2=(-,+1), 3=(-,-1).  The cap counts
# Q = 0 states and admits n_max <= 20 (6181 states, parity blocks of 3311
# and 2870).  There, on 2 shared CPUs with OpenBLAS, the build takes
# 0.3-0.6 s, the two solves 3.4-4.6 s, and the process peaks at 322 MB RSS.
DIMENSION_CAP = 6_500

# Rounding allowance on a gap (ground energy minus bound), relative to the
# energy scale t + g_plus + g_minus: a dense solve is exact to a few eps
# times the matrix norm, which is that scale times at most a few n_max
# (measured: gaps down to -7e-32 of the scale, at t = 1e8 and n_max = 20).
GAP_RTOL = 1e-12


@dataclass(frozen=True)
class BogolubovModel:
    t: float
    g_plus: float
    g_minus: float

    def __post_init__(self):
        couplings = (self.t, self.g_plus, self.g_minus)
        if not all(math.isfinite(c) and c >= 0 for c in couplings):
            raise DomainError("couplings must be finite and nonnegative")
        s = float(self.t + self.g_plus + self.g_minus)
        if not math.isfinite(s * s):  # the closed-form bound squares it
            raise DomainError(f"(t + g_plus + g_minus)^2 overflows at {s:.3e}")

    @property
    def gap_tolerance(self) -> float:
        """How far below the bound a computed ground energy may fall."""
        return GAP_RTOL * (self.t + self.g_plus + self.g_minus)


@dataclass(frozen=True, eq=False)
class TruncatedFockOperator:
    """The truncated H on the Q = 0 states as its two tau-swap parity blocks;
    `dimension` counts the Q = 0 states, the sum of the block sizes."""

    n_max: int
    dimension: int
    even: np.ndarray
    odd: np.ndarray

    def __post_init__(self):
        for name, block in (("even", self.even), ("odd", self.odd)):
            diff = block - block.T
            asym = float(np.abs(diff, out=diff).max(initial=0.0))
            if asym > 1e-12:
                raise PreconditionError(
                    f"{name} block not symmetric (max asymmetry {asym:.3e})")


def closed_form_bound(model: BogolubovModel) -> float:
    """-(t+g+ +g-) + sqrt((t+g+ +g-)^2 - (g+ +g-)^2), always <= 0.

    Evaluated as -g x / (1 + sqrt((1-x)(1+x))) with x = g/s, s = t+g+ +g-:
    the same value without the cancellation of -s + sqrt(...), so the bound
    keeps its relative accuracy when g << s and scales with the couplings."""
    g = model.g_plus + model.g_minus
    if g == 0:
        return 0.0
    x = g / (model.t + g)
    return -g * x / (1.0 + math.sqrt((1.0 - x) * (1.0 + x)))


def _sector_basis(n_max: int) -> np.ndarray:
    """Occupations (n0, n1, n2, n3) of the Q = 0 states, one row each, in
    lexicographic order of the occupation grid."""
    occ = np.indices((n_max + 1,) * 4).reshape(4, -1).T
    return occ[occ[:, 0] + occ[:, 1] == occ[:, 2] + occ[:, 3]]


def _block_matrix(size: int, rows: np.ndarray, cols: np.ndarray,
                  vals: np.ndarray) -> np.ndarray:
    """Dense size x size matrix with the vals summed at (rows, cols)."""
    flat = np.bincount(rows * size + cols, weights=vals, minlength=size * size)
    return flat.reshape(size, size)


def build_hamiltonian(model: BogolubovModel, n_max: int) -> TruncatedFockOperator:
    """The two tau-swap parity blocks of the quadratic form on the Q = 0
    states of the occupation basis with per-mode cutoff n_max; ladder
    elements that would leave the cutoff are dropped.

    P is the tau-swap (n0, n1, n2, n3) -> (n2, n3, n0, n1).  The even block
    has a basis vector (|n> + |Pn>)/sqrt(2) for each state with n0 < n2 and
    |n> for each fixed point n = Pn; the odd block has (|n> - |Pn>)/sqrt(2)
    for each state with n0 < n2; both keep the order of the states."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    # sum over k of #{(a, b) in [0, n_max]^2 : a + b = k}^2, with m = n_max + 1
    m = n_max + 1
    dim = m * (2 * m * m + 1) // 3
    if dim > DIMENSION_CAP:
        raise ResourceLimitError(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    occ = _sector_basis(n_max)
    strides = np.array([m**3, m**2, m, 1])
    flat = occ @ strides  # increasing, so searchsorted maps a state to its row
    n0, n1, n2, n3 = occ.T
    diag = (model.t * (n0 + n1 + n2 + n3) + model.g_plus * (n0 + n2)
            + model.g_minus * (n1 + n3))
    cross = -np.sqrt(model.g_plus * model.g_minus)
    # (coupling, i, j, dj): b*_i b*_j for dj = +1, b*_i b_j for dj = -1,
    # each entered together with its Hermitian conjugate
    terms = (
        (model.g_plus, 0, 2, +1),   # z = z' = +1
        (model.g_minus, 1, 3, +1),  # z = z' = -1
        (cross, 0, 1, -1),          # hops within tau = +
        (cross, 2, 3, -1),          # hops within tau = -
        (cross, 0, 3, +1),          # opposite-charge pairs
        (cross, 1, 2, +1),
    )
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], [diag]
    for coupling, i, j, dj in terms:
        nj = occ[:, j] + dj
        src = np.flatnonzero((occ[:, i] < n_max) & (nj >= 0) & (nj <= n_max))
        dst = np.searchsorted(flat, flat[src] + strides[i] + dj * strides[j])
        # b*|n> = sqrt(n+1)|n+1> and b|n> = sqrt(n)|n-1>: sqrt of the larger n
        amp = np.sqrt(occ[src, i] + 1) * np.sqrt(np.maximum(occ[src, j], nj[src]))
        rows += [dst, src]
        cols += [src, dst]
        vals += [coupling * amp] * 2
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    # P fixes the states with n0 = n2 (then n1 = n3 at Q = 0), and every
    # other orbit {n, Pn} has one state with n0 < n2.  No ladder term moves
    # n0 - n2 by more than 1, so H links no n0 < n2 state to an n0 > n2
    # state, and <n|H|Pm> = 0 for n0 < n2 and m0 < m2.  The odd block is
    # then H on the n0 < n2 states, and the even block H on the n0 <= n2
    # states with each entry between a fixed point and a pair times sqrt(2).
    side = np.sign(n0 - n2)
    even_of, odd_of = np.cumsum(side <= 0) - 1, np.cumsum(side < 0) - 1
    keep = (side[rows] <= 0) & (side[cols] <= 0)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    mixed = (side[rows] == 0) != (side[cols] == 0)
    even = _block_matrix(int(even_of[-1]) + 1, even_of[rows], even_of[cols],
                         np.where(mixed, math.sqrt(2.0) * vals, vals))
    keep = (side[rows] < 0) & (side[cols] < 0)
    odd = _block_matrix(int(odd_of[-1]) + 1, odd_of[rows[keep]], odd_of[cols[keep]],
                        vals[keep])
    return TruncatedFockOperator(n_max=n_max, dimension=dim, even=even, odd=odd)


def ground_energy(op: TruncatedFockOperator) -> float:
    """Smallest eigenvalue of the truncated H: the lower of the two blocks'
    smallest eigenvalues, each by one exact dense LAPACK solve."""
    return float(min(np.linalg.eigvalsh(op.even)[0], np.linalg.eigvalsh(op.odd)[0]))


def sharpness_study(
    model: BogolubovModel, n_max_list: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Rows (n_max, ground_energy, gap_to_bound) along an increasing cutoff
    ladder; raises if any gap is negative or the gaps increase, beyond the
    model's gap_tolerance."""
    if len(n_max_list) == 0:
        raise PreconditionError("n_max_list must be nonempty")
    if any(b <= a for a, b in zip(n_max_list, n_max_list[1:])):
        raise PreconditionError("n_max_list must be strictly increasing")
    bound = closed_form_bound(model)
    tol = model.gap_tolerance
    rows = []
    for n_max in n_max_list:
        energy = ground_energy(build_hamiltonian(model, n_max))
        gap = energy - bound
        if gap < -tol:
            raise ConsistencyError(
                f"lower bound violated at n_max={n_max}: gap={gap:.3e}"
            )
        rows.append((int(n_max), energy, gap))
    for (_, _, g1), (_, _, g2) in zip(rows, rows[1:]):
        if g2 > g1 + tol:
            raise ConsistencyError("gap sequence not nonincreasing")
    return rows
