"""Quadratic-Hamiltonian lower bound and its truncated-Fock sharpness study.

The Hamiltonian acts on four bosonic modes labeled (tau, z) with
tau, z in {+, -}:

    H = t * sum b*_{tau,z} b_{tau,z}
        + sum_{z,z'} sqrt(g_z g_z') z z' (b*_{+,z} b_{+,z'} + b*_{-,z} b_{-,z'}
                                          + b*_{+,z} b*_{-,z'} + b_{+,z} b_{-,z'})

and is bounded below by -(t+g) + sqrt((t+g)^2 - g^2) with g = g_plus+g_minus.
The bound is sharp for true annihilation operators, which is what the
truncated ladder realizes as n_max grows.  Its negative (t+g) - sqrt(t^2 +
2tg) is the one-mode Bogolubov floor `mode_floor`, which `foldy` sums over
momenta for the rho^(5/4) local energy.

Every term creates or destroys one tau=+ and one tau=- boson, or moves a
boson within one tau, so H commutes with the charge
Q = N_{tau=+} - N_{tau=-}.  The vacuum has Q = 0, and the truncated H is
built only on the Q = 0 occupation states (19 at n_max = 2 against 81 for
all four modes); the tests certify against the full (n_max+1)^4 space that
this is the ground energy.  H also commutes with the tau-swap
P: (n0, n1, n2, n3) -> (n2, n3, n0, n1), so the Q = 0 matrix splits into a
P-even and a P-odd block, each about half the size.  A vanishing coupling
splits these further: at g_minus = 0 every term that moves a z = -1 boson
has a zero coefficient, so n1 and n3 are conserved and each parity block
is a sum of sectors of fixed (n1, n3) (169 sectors of at most 13 states at
n_max = 12, against parity blocks of 819 and 650); likewise (n0, n2) at
g_plus = 0.  The sector blocks are built directly from the ladder terms,
never through a parity block, from a stencil cached per n_max and sector
rule that leaves a build only to scale and scatter the couplings.  There
every odd sector repeats an even one (78 of the 169 at n_max = 12), so it is
built and solved once.  Each distinct block is solved with
`numpy.linalg.eigvalsh`, and the module imports no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConsistencyError, DomainError, PreconditionError, ResourceLimitError

__all__ = [
    "BogolubovModel",
    "TruncatedFockOperator",
    "mode_floor",
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
# At g_minus = 0 the blocks are 441 sectors of at most 21 states: the build
# takes 13 ms (5 ms with its stencil cached), the solves 7 ms, and
# `bogolubov-sharpness --nmax-list 20` peaks at 33.3 MB RSS.
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
        if not math.isfinite(s * s):  # the domain mode_floor documents
            raise DomainError(f"(t + g_plus + g_minus)^2 overflows at {s:.3e}")

    @property
    def gap_tolerance(self) -> float:
        """How far below the bound a computed ground energy may fall."""
        return GAP_RTOL * (self.t + self.g_plus + self.g_minus)


@dataclass(frozen=True, eq=False)
class TruncatedFockOperator:
    """The truncated H on the Q = 0 states as the diagonal blocks that its
    symmetries split it into (see `build_hamiltonian`); `dimension` counts
    the Q = 0 states, the sum of the block sizes."""

    n_max: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        for k, block in enumerate(self.blocks):
            diff = block - block.T
            asym = float(np.abs(diff, out=diff).max(initial=0.0))
            if asym > 1e-12:
                raise PreconditionError(
                    f"block {k} not symmetric (max asymmetry {asym:.3e})")

    @property
    def dimension(self) -> int:
        return sum(block.shape[0] for block in self.blocks)


def mode_floor(t: float, g: float) -> float:
    """(t+g) - sqrt(t^2 + 2tg) >= 0, the Bogolubov floor of one mode.

    Computed as g x / (1 + sqrt((t/s)(1+x))) with s = t+g, x = g/s (as
    t^2 + 2tg = s^2 (1-x)(1+x) and 1-x = t/s): no cancellation and no
    squared coupling, so it is accurate to a few eps at any ratio t/g and
    any scale.  Domain, unchecked since quadrature calls it per node:
    t, g >= 0 with (t+g)^2 finite, the range BogolubovModel admits."""
    if g == 0.0:
        return 0.0
    s = t + g
    x = g / s
    return g * x / (1.0 + math.sqrt(t / s * (1.0 + x)))


def closed_form_bound(model: BogolubovModel) -> float:
    """-(t+g) + sqrt((t+g)^2 - g^2) <= 0 at g = g_plus + g_minus: minus the
    mode floor, from 0.0 so that the uncoupled bound is +0.0, not -0.0."""
    return 0.0 - mode_floor(model.t, model.g_plus + model.g_minus)


def _sector_basis(n_max: int) -> np.ndarray:
    """Occupations (n0, n1, n2, n3) of the Q = 0 states, one row each, in
    lexicographic order of the occupation grid: n3 = n0 + n1 - n2 over the
    (n0, n1, n2) grid, where it lies in 0..n_max."""
    occ = np.indices((n_max + 1,) * 3).reshape(3, -1).T
    last = occ[:, 0] + occ[:, 1] - occ[:, 2]
    kept = (last >= 0) & (last <= n_max)
    return np.column_stack([occ[kept], last[kept]])


# The off-diagonal ladder terms as (coupling, i, j, dj): b*_i b*_j for
# dj = +1, b*_i b_j for dj = -1, each entered together with its Hermitian
# conjugate; coupling 0 is g_plus, 1 is g_minus, 2 is -sqrt(g_plus g_minus).
_TERMS = (
    (0, 0, 2, +1),  # z = z' = +1
    (1, 1, 3, +1),  # z = z' = -1
    (2, 0, 1, -1),  # hops within tau = +
    (2, 2, 3, -1),  # hops within tau = -
    (2, 0, 3, +1),  # opposite-charge pairs
    (2, 1, 2, +1),
)


def _conserved(model: BogolubovModel) -> tuple[int, ...]:
    """The modes whose occupations the model's H conserves by a vanishing
    coupling: g_minus = 0 zeroes the g_minus pair and, through
    -sqrt(g_plus g_minus), every hop and opposite pair, which are all the
    terms that move mode 1 or 3; g_plus = 0 likewise for modes 0 and 2."""
    if model.g_minus == 0:
        return (1, 3)
    if model.g_plus == 0:
        return (0, 2)
    return ()


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Stencil(NamedTuple):
    """The model-independent part of a build, read-only arrays.  Entries are
    the diagonal ones, then the off-diagonal ones; `pos` places every entry
    in one flat buffer holding the blocks row-major one after another, and
    block k is flat[start:start + size**2] for `blocks[k] = (start, size)`."""

    blocks: tuple[tuple[int, int], ...]
    counts: np.ndarray  # (3, diagonal entries): N, n0 + n2, n1 + n3 of its state
    coupling: np.ndarray  # per off-diagonal entry: its coupling, 0..2 as in _TERMS
    amp: np.ndarray  # per off-diagonal entry: its ladder amplitude
    mixed: np.ndarray  # per off-diagonal entry: links a fixed point of P to a pair
    pos: np.ndarray


@lru_cache(maxsize=None)  # DIMENSION_CAP admits 20 cutoffs, times 3 mode sets
def _stencil(n_max: int, conserved: tuple[int, ...]) -> _Stencil:
    """The blocks of the Q = 0 states at cutoff n_max: each tau-swap parity
    block split into sectors of equal occupations of the `conserved` modes,
    with the terms that move a conserved mode left out (their couplings
    vanish).  The entries keep the order of the full build, diagonal first,
    then term by term, so each block entry sums the same values in the same
    order as the parity block did."""
    m = n_max + 1
    occ = _sector_basis(n_max)
    strides = np.array([m**3, m**2, m, 1])
    flat = occ @ strides  # increasing, so searchsorted maps a state to its row
    rows, cols, coupling, amps = [], [], [], []
    for c, i, j, dj in _TERMS:
        if {i, j} & set(conserved):
            continue
        nj = occ[:, j] + dj
        src = np.flatnonzero((occ[:, i] < n_max) & (nj >= 0) & (nj <= n_max))
        dst = np.searchsorted(flat, flat[src] + strides[i] + dj * strides[j])
        # b*|n> = sqrt(n+1)|n+1> and b|n> = sqrt(n)|n-1>: sqrt of the larger n
        amp = np.sqrt(occ[src, i] + 1) * np.sqrt(np.maximum(occ[src, j], nj[src]))
        rows += [dst, src]
        cols += [src, dst]
        coupling.append(np.full(2 * len(src), c))
        amps += [amp, amp]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    coupling, amps = np.concatenate(coupling), np.concatenate(amps)

    # P fixes the states with n0 = n2 (then n1 = n3 at Q = 0), and every
    # other orbit {n, Pn} has one state with n0 < n2.  No ladder term moves
    # n0 - n2 by more than 1, so H links no n0 < n2 state to an n0 > n2
    # state, and <n|H|Pm> = 0 for n0 < n2 and m0 < m2.  The odd block is
    # then H on the n0 < n2 states, and the even block H on the n0 <= n2
    # states with each entry between a fixed point and a pair times sqrt(2).
    # H keeps the conserved occupations, so a block splits by them.  A
    # sector with a fixed point holds only fixed points (n0 = n2 and n1 = n3
    # fix both conserved pairs), so every odd sector holds the states of the
    # even sector with its label, with the same entries: it is that block.
    side = np.sign(occ[:, 0] - occ[:, 2])
    label = occ[:, list(conserved)] @ m ** np.arange(len(conserved))
    blocks, counts, diag_pos, off_pos, off_keep, mixed = [], [], [], [], [], []
    start, even_labels = 0, None
    for member in (side <= 0, side < 0):
        states = np.flatnonzero(member)
        labels, block = np.unique(label[states], return_inverse=True)
        if conserved and even_labels is not None:
            blocks += [blocks[k] for k in np.searchsorted(even_labels, labels).tolist()]
            break
        even_labels = labels
        sizes = np.bincount(block)
        starts = start + np.cumsum(sizes**2) - sizes**2
        blocks += zip(starts.tolist(), sizes.tolist())
        start = int(starts[-1] + sizes[-1] ** 2)
        # a state's row within its block: its rank among the block's states
        order = np.argsort(block, kind="stable")
        local = np.empty_like(block)
        local[order] = np.arange(len(block)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        diag_pos.append(starts[block] + local * (sizes[block] + 1))
        counts.append(occ[states])
        block_of, local_of = np.full(len(occ), -1), np.full(len(occ), -1)
        block_of[states], local_of[states] = block, local
        keep = np.flatnonzero(member[rows] & member[cols])
        r, c = rows[keep], cols[keep]
        off_pos.append(starts[block_of[r]] + local_of[r] * sizes[block_of[r]] + local_of[c])
        off_keep.append(keep)
        mixed.append((side[r] == 0) != (side[c] == 0))
    n0, n1, n2, n3 = np.concatenate(counts).T
    keep = np.concatenate(off_keep)
    return _Stencil(
        blocks=tuple(blocks),
        counts=_readonly(np.stack([n0 + n1 + n2 + n3, n0 + n2, n1 + n3])),
        coupling=_readonly(coupling[keep]),
        amp=_readonly(amps[keep]),
        mixed=_readonly(np.concatenate(mixed)),
        pos=_readonly(np.concatenate(diag_pos + off_pos)),
    )


def build_hamiltonian(model: BogolubovModel, n_max: int) -> TruncatedFockOperator:
    """The blocks of the quadratic form on the Q = 0 states of the
    occupation basis with per-mode cutoff n_max; ladder elements that would
    leave the cutoff are dropped.

    P is the tau-swap (n0, n1, n2, n3) -> (n2, n3, n0, n1).  The even
    parity block has a basis vector (|n> + |Pn>)/sqrt(2) for each state with
    n0 < n2 and |n> for each fixed point n = Pn; the odd block has
    (|n> - |Pn>)/sqrt(2) for each state with n0 < n2.  Each parity block is
    split into sectors of the occupations a vanishing coupling conserves,
    (n1, n3) when g_minus = 0, else (n0, n2) when g_plus = 0, else one
    sector; the blocks are the even sectors, then the odd ones, in order of
    their occupations, and each keeps the order of the states.  At a
    vanishing coupling an odd sector equals the even sector of the same
    occupations, and `blocks` holds that one array for both."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    # sum over k of #{(a, b) in [0, n_max]^2 : a + b = k}^2, with m = n_max + 1
    m = n_max + 1
    dim = m * (2 * m * m + 1) // 3
    if dim > DIMENSION_CAP:
        raise ResourceLimitError(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    st = _stencil(n_max, _conserved(model))
    total, plus, minus = st.counts
    diag = model.t * total + model.g_plus * plus + model.g_minus * minus
    couplings = np.array(
        [model.g_plus, model.g_minus, -np.sqrt(model.g_plus * model.g_minus)])
    off = couplings[st.coupling] * st.amp
    off[st.mixed] *= math.sqrt(2.0)
    flat = np.bincount(st.pos, weights=np.concatenate([diag, off]),
                       minlength=max(start + n * n for start, n in st.blocks))
    views = {}  # a block the stencil repeats is the same array
    return TruncatedFockOperator(n_max=n_max, blocks=tuple(
        views.setdefault(start, flat[start:start + n * n].reshape(n, n))
        for start, n in st.blocks))


def ground_energy(op: TruncatedFockOperator) -> float:
    """Smallest eigenvalue of the truncated H: the least of the blocks'
    smallest eigenvalues, each distinct block by one exact dense LAPACK
    solve; a block that `blocks` repeats (the odd sectors at a vanishing
    coupling) is solved once."""
    distinct = {id(block): block for block in op.blocks}
    return float(min(np.linalg.eigvalsh(block)[0] for block in distinct.values()))


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
