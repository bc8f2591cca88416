"""Pairwise Yukawa/Coulomb energies and classical correlation inequalities.

Checkers return an InequalityReport rather than raising on violation: a
false `holds` on one of these theorems signals an implementation bug
upstream, which the property suites are designed to surface.

Each quantity has one kernel over a stack of T configurations of n
particles: `_pair_distances` (positions (T, n, 3), with the position
checks), then the `_SUMS` of each checker (charges (T, n), those
distances, mu (T,), with the checker's preconditions).  A checker computes
the pair charges z_i z_j once for the stack and hands them to `_energies`
and `_nearest_opposite`; `_row_sums` sums every row kept whole in one
axis-1 reduction, and a masked row alone.  Each sum equals the 1D
reduction of one trial's row, bit for bit.  The public functions pass a
stack of one; the seeded fuzz passes the trials of a block with the same n.

A fuzz trial draws from the SplitMix64 stream (`numerics.splitmix64`)
seeded at its recorded trial seed, each word w read as u = (w >> 11) 2^-53
in [0, 1) (`numerics.uniforms`):
  word 0          n = 1 + floor(MAX_PARTICLES u)
  word 1          box side, uniform in BOX_RANGE
  word 2          charge kind: pm1 when u < 1/2, else mixed
  word 3          mu = MUS[floor(len(MUS) u)] (0 for baxter; 0.5 in place
                  of 0 for positivity)
  words 4..3n+3   positions, box u, particle by particle
  next n words    signs: -1 when u < 1/2
  next n words    magnitudes of the positive charges: 1 for pm1, else
                  1 + floor(3u)
`replay_trial(which, trial_seed)` rebuilds one trial with the same draw
code, so the public checker on it gives that trial's row, bit for bit.
The fuzz's distribution is fixed by MAX_PARTICLES, BOX_RANGE and MUS.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, PreconditionError
from .numerics import trial_blocks, trial_stack, uniforms

__all__ = [
    "ParticleConfiguration",
    "InequalityReport",
    "pair_energy",
    "nearest_opposite_distances",
    "onsager_check",
    "baxter_check",
    "yukawa_positivity_check",
    "replay_trial",
    "run_random_ensemble",
    "CHECKERS",
]

HOLDS_TOL = 1e-10
MIN_SEPARATION = 1e-12


@lru_cache(maxsize=256)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only upper-triangle index pair (i, j), i < j, of n particles."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _pair_distances(pos: np.ndarray) -> np.ndarray:
    """Pair distances (T, n(n-1)/2) of positions (T, n, 3), in `_pairs`
    order; rejects non-finite positions, distances that overflow and pairs
    closer than MIN_SEPARATION."""
    if not np.isfinite(pos).all():
        raise PreconditionError("positions must be finite")
    i, j = _pairs(pos.shape[1])
    # summed in place, one coordinate at a time; np.take keeps the pair axis
    # C-contiguous, as `_row_sums` needs
    r = np.zeros((pos.shape[0], i.size))
    with np.errstate(over="ignore"):
        for a in range(3):
            d = np.take(pos[..., a], i, axis=1)
            d -= np.take(pos[..., a], j, axis=1)
            d *= d
            r += d
    np.sqrt(r, out=r)
    if not np.isfinite(r).all():
        raise PreconditionError("pair distances overflow: positions too far apart")
    if r.size and r.min() <= MIN_SEPARATION:
        raise PreconditionError(f"minimum separation {r.min():.3e} below {MIN_SEPARATION:.0e}")
    return r


@dataclass(frozen=True, eq=False)
class ParticleConfiguration:
    """Point particles at positions (n, 3) carrying signed charges (n,);
    `distances` is the (n, n) pair-distance matrix, computed once.  All
    three are read-only copies, so the distances cannot go stale."""

    positions: np.ndarray
    charges: np.ndarray
    distances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float, ndmin=2)
        z = np.array(self.charges, dtype=float, ndmin=1)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise PreconditionError("positions must be an (n, 3) array")
        if z.shape != (pos.shape[0],):
            raise PreconditionError("charges length must match positions")
        if pos.shape[0] == 0:
            raise PreconditionError("configuration must be nonempty")
        if not np.isfinite(z).all():
            raise PreconditionError("charges must be finite")
        i, j = _pairs(len(z))
        dist = np.zeros((len(z), len(z)))
        dist[i, j] = dist[j, i] = _pair_distances(pos[None])[0]
        for name, value in (("positions", pos), ("charges", z), ("distances", dist)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class InequalityReport:
    """The two sides of an inequality lhs >= rhs; it holds when the slack
    lhs - rhs is at least -HOLDS_TOL."""

    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return bool(self.slack >= -HOLDS_TOL)


def _row_sums(values: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Per-trial sums of the rows of `values` (T, m), over the entries that
    `keep` marks (all when None).  A row kept whole is summed with the
    others in one axis-1 reduction, which on C-contiguous rows equals the
    1D reduction of that row alone bit for bit; a masked row is summed on
    its own, as its kept entries."""
    values = np.ascontiguousarray(values)
    sums = np.add.reduce(values, axis=1)
    if keep is not None:
        for t in np.flatnonzero(~keep.all(axis=1)).tolist():
            sums[t] = np.add.reduce(values[t][keep[t]])
    return sums


def _pair_charges(z: np.ndarray) -> np.ndarray:
    """z_i z_j (T, n(n-1)/2) of charges (T, n), in `_pairs` order."""
    i, j = _pairs(z.shape[1])
    return np.take(z, i, axis=1) * np.take(z, j, axis=1)


def _energies(zz: np.ndarray, r: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Per-trial sum_{i<j} z_i z_j exp(-mu r_ij)/r_ij, from the pair charges."""
    if not np.all(mu >= 0):
        raise DomainError("mu must be nonnegative")
    return _row_sums(zz * np.exp(-mu[:, None] * r) / r)


def _segments(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment starts of the pairs (i, j) of particles i = 0..n-2 in `_pairs`
    order, the permutation of `_pairs` order sorted by j, and the segment
    starts of particles j = 1..n-1 in that order.  Not cached: for every n
    of the fuzz the arrays would hold 0.2 MB for the life of the process,
    and computing them once per group costs the fuzz no measurable time."""
    i, j = _pairs(n)
    by_j = np.argsort(j, kind="stable")
    return np.searchsorted(i, np.arange(n - 1)), by_j, np.searchsorted(j[by_j], np.arange(1, n))


def _nearest_opposite(zz: np.ndarray, r: np.ndarray, n: int) -> np.ndarray:
    """D (T, n): distance from each particle to its nearest opposite charge,
    +inf when it has none, from the pair charges and distances of n
    particles.  Particle p's pairs are its segment in `_pairs` order (with
    the later particles) and in the order sorted by j (with the earlier
    ones); a minimum is exact, so one pass serves the stack."""
    d = np.full((r.shape[0], n), np.inf)
    if n > 1:
        rows, by_j, cols = _segments(n)
        opposite = np.where(zz < 0, r, np.inf)
        d[:, :-1] = np.minimum.reduceat(opposite, rows, axis=1)
        np.minimum(d[:, 1:], np.minimum.reduceat(opposite[:, by_j], cols, axis=1),
                   out=d[:, 1:])
    return d


def _onsager_sums(z: np.ndarray, r: np.ndarray, mu: np.ndarray):
    zz = _pair_charges(z)
    lhs = _energies(zz, r, mu)
    d = _nearest_opposite(zz, r, z.shape[1])
    finite = np.isfinite(d)
    d = np.where(finite, d, 1.0)  # inf would give inf * 0; the mask drops it
    # exp(-dm) is exactly 0 beyond dm ~ 745, so the cap changes no term and
    # keeps dm**2 finite for distances near the overflow limit and mu = inf
    dm = np.minimum(d * mu[:, None], 1e3)
    terms = z**2 * (dm**2 / 12 + dm / 2 + 1) * np.exp(-dm) / d
    return lhs, -_row_sums(terms, finite)


def _baxter_sums(z: np.ndarray, r: np.ndarray, mu: np.ndarray):
    if np.any(z[z < 0] != -1.0):
        raise PreconditionError("all negative charges must equal -1")
    zz = _pair_charges(z)
    lhs = _energies(zz, r, mu)
    d = _nearest_opposite(zz, r, z.shape[1])
    return lhs, -(1.0 + 2.0 * z.max(axis=1)) * _row_sums(1.0 / d, (z < 0) & np.isfinite(d))


def _positivity_sums(z: np.ndarray, r: np.ndarray, mu: np.ndarray):
    if not np.all(mu > 0):
        raise DomainError("mu must be positive")
    lhs = _row_sums(_pair_charges(z) * (-np.expm1(-mu[:, None] * r)) / r)
    return lhs, -0.5 * mu * _row_sums(z**2)


# (lhs, rhs) lists of each checker by name, for charges (T, n), distances, mu (T,)
_SUMS = {"onsager": _onsager_sums, "baxter": _baxter_sums, "positivity": _positivity_sums}
CHECKERS = tuple(_SUMS)


def _stack(config: ParticleConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """Charges (1, n) and pair distances (1, n(n-1)/2): a stack of one."""
    return config.charges[None], config.distances[_pairs(config.n)][None]


def _report(sums, config: ParticleConfiguration, mu: float) -> InequalityReport:
    (lhs,), (rhs,) = sums(*_stack(config), np.array([mu], dtype=float))
    return InequalityReport(lhs=float(lhs), rhs=float(rhs))


def pair_energy(config: ParticleConfiguration, mu: float) -> float:
    """Total interaction sum_{i<j} z_i z_j exp(-mu r_ij)/r_ij."""
    z, r = _stack(config)
    return float(_energies(_pair_charges(z), r, np.array([mu], dtype=float))[0])


def nearest_opposite_distances(config: ParticleConfiguration) -> np.ndarray:
    """D_i = distance from particle i to the nearest opposite charge,
    +inf when no oppositely charged particle exists."""
    z, r = _stack(config)
    return _nearest_opposite(_pair_charges(z), r, config.n)[0]


def onsager_check(config: ParticleConfiguration, mu: float) -> InequalityReport:
    """Pairwise energy against the one-body screened bound
    -sum_i z_i^2 ((D_i mu)^2/12 + D_i mu/2 + 1) exp(-mu D_i)/D_i."""
    return _report(_onsager_sums, config, mu)


def baxter_check(config: ParticleConfiguration) -> InequalityReport:
    """Coulomb energy against -(1+2 max_j z_j) sum over negative particles
    of 1/D_i; requires every negative charge to be exactly -1."""
    return _report(_baxter_sums, config, 0.0)


def yukawa_positivity_check(config: ParticleConfiguration, mu: float) -> InequalityReport:
    """sum z_i z_j (Y_0 - Y_mu)(r_ij) >= -sum z_i^2 mu/2, the positive-type
    property of the Coulomb-minus-Yukawa kernel."""
    return _report(_positivity_sums, config, mu)


# The fuzz's distribution: a trial draws n uniform in 1..MAX_PARTICLES, a box
# side uniform in BOX_RANGE and mu uniform over MUS.
MAX_PARTICLES = 50
BOX_RANGE = (1.0, 10.0)
MUS = (0.0, 0.5, 1.0, 5.0)

# Trials per block of the fuzz; bounds its arrays at any trial count.  Fixed
# rather than sized by bytes (numerics.trials_per_block): the pair arrays of a
# 50-particle trial are 10 KB each, which would leave about 50 trials per
# block and split the n-groups into ones and twos.
_BLOCK = 1024

_HEADER = 4  # words 0-3 of a trial: n, box, charge kind, mu


def _draw_header(which: str, seeds: np.ndarray):
    """n (T,), box (T,), pm1 (T,) and mu (T,) of the trials seeded at
    `seeds`, from their words 0-3; mu is remapped for `which`."""
    u = uniforms(seeds, 0, _HEADER)
    n = 1 + (MAX_PARTICLES * u[:, 0]).astype(np.intp)
    lo, hi = BOX_RANGE
    box = lo + (hi - lo) * u[:, 1]
    pm1 = u[:, 2] < 0.5
    mu = np.array(MUS, dtype=float)[(len(MUS) * u[:, 3]).astype(np.intp)]
    if which == "baxter":
        mu = np.zeros_like(mu)
    elif which == "positivity":
        mu = np.where(mu > 0, mu, 0.5)
    return n, box, pm1, mu


def _draw_body(seeds: np.ndarray, n: int, box: np.ndarray, pm1: np.ndarray):
    """Positions (T, n, 3) uniform in [0, box)^3 and charges (T, n) of
    trials with n particles, from their 5n words after the header: 3n
    position coordinates, n signs (u < 1/2 gives -1) and n positive
    magnitudes 1 + floor(3u), which a "pm1" trial replaces by 1."""
    u = uniforms(seeds, _HEADER, 5 * n)
    pos = box[:, None, None] * u[:, :3 * n].reshape(-1, n, 3)
    magnitude = np.where(pm1[:, None], 1.0, 1.0 + np.floor(3.0 * u[:, 4 * n:]))
    return pos, np.where(u[:, 3 * n:4 * n] < 0.5, -1.0, magnitude)


def _check_which(which: str) -> None:
    if which not in CHECKERS:
        raise PreconditionError(f"which must be one of {CHECKERS}")


def replay_trial(which: str, trial_seed: int) -> tuple[ParticleConfiguration, float]:
    """The configuration and mu of the `which` fuzz trial recorded with
    `trial_seed`, drawn by the code `run_random_ensemble` draws with: the
    public checker of `which` (mu as its argument; `baxter_check` takes
    none) reproduces that trial's row, bit for bit."""
    _check_which(which)
    seeds = trial_stack(trial_seed)
    n, box, pm1, mu = _draw_header(which, seeds)
    pos, z = _draw_body(seeds, int(n[0]), box, pm1)
    return ParticleConfiguration(positions=pos[0], charges=z[0]), float(mu[0])


def run_random_ensemble(which: str, trials: int, seed: int) -> dict[str, np.ndarray]:
    """Seeded fuzzing columns for one checker, one entry per trial:
    trial_seed (uint64), n (int), mu, lhs, rhs and slack (float64); each
    trial is reproducible from its recorded 64-bit seed.

    The trial seeds are those of `numerics.trial_blocks`, and a trial's
    draws are words of the SplitMix64 stream seeded at its seed: words 0-3
    give n, box, charge kind (pm1 or mixed) and mu (from MAX_PARTICLES,
    BOX_RANGE and MUS), the next 5n its positions and charges.  A block of
    `_BLOCK` consecutive trials draws its headers at once, then the bodies
    of each group with the same n at once; each group is one stack for the
    kernels the public checkers run on a stack of one, so trial k's entries
    equal `replay_trial(which, trial seed k)` through the public checker,
    bit for bit."""
    _check_which(which)
    seeds, blocks = trial_blocks(seed, trials, _BLOCK)
    n, mu = np.empty(trials, dtype=np.intp), np.empty(trials)
    lhs, rhs = np.empty(trials), np.empty(trials)
    for rows in blocks:
        words = seeds[rows]
        n[rows], box, pm1, mu[rows] = _draw_header(which, words)
        # this block's rows of the columns, as views its n-groups fill
        block_n, block_mu, block_lhs, block_rhs = n[rows], mu[rows], lhs[rows], rhs[rows]
        for m in sorted(set(block_n.tolist())):  # np.unique would load numpy.ma, about 1 MB
            k = np.flatnonzero(block_n == m)
            pos, z = _draw_body(words[k], m, box[k], pm1[k])
            block_lhs[k], block_rhs[k] = _SUMS[which](z, _pair_distances(pos), block_mu[k])
    return {"trial_seed": seeds, "n": n, "mu": mu, "lhs": lhs, "rhs": rhs, "slack": lhs - rhs}
