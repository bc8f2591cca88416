"""Pairwise Yukawa/Coulomb energies and classical correlation inequalities.

Checkers return an InequalityReport rather than raising on violation: a
false `holds` on one of these theorems signals an implementation bug
upstream, which the property suites are designed to surface.

Each quantity has one kernel over a stack of T configurations of n
particles: `_pair_distances` (positions (T, n, 3), with the position
checks), then `_energies`, `_nearest_opposite` and the `_SUMS` of each
checker (charges (T, n), those distances, mu (T,), with the checker's
preconditions).  Each sum reduces one trial's row alone.  The public
functions pass a stack of one; the seeded fuzz passes the trials of a
block with the same n, so each of its rows equals, bit for bit, the
replay of its trial seed through `random_configuration` and the checker.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, PreconditionError
from .numerics import seed_words

__all__ = [
    "ParticleConfiguration",
    "InequalityReport",
    "pair_energy",
    "nearest_opposite_distances",
    "onsager_check",
    "baxter_check",
    "yukawa_positivity_check",
    "random_configuration",
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
    with np.errstate(over="ignore"):
        sq = [(pos[:, i, a] - pos[:, j, a]) ** 2 for a in range(3)]
        r = np.sqrt(sq[0] + sq[1] + sq[2])
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


def _row_sums(rows) -> list[float]:
    """Per-trial sums, each a 1D reduction over one trial's row alone."""
    return [float(np.add.reduce(row)) for row in rows]


def _energies(z: np.ndarray, r: np.ndarray, mu: np.ndarray) -> list[float]:
    """Per-trial sum_{i<j} z_i z_j exp(-mu r_ij)/r_ij."""
    if not np.all(mu >= 0):
        raise DomainError("mu must be nonnegative")
    i, j = _pairs(z.shape[1])
    return _row_sums(z[:, i] * z[:, j] * np.exp(-mu[:, None] * r) / r)


def _nearest_opposite(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """D (T, n): distance from each particle to its nearest opposite charge,
    +inf when it has none.  A minimum is exact, so one pass serves the stack."""
    t, n = z.shape
    i, j = _pairs(n)
    opposite = np.full((t, n, n), np.inf)
    opposite[:, i, j] = opposite[:, j, i] = np.where(z[:, i] * z[:, j] < 0, r, np.inf)
    return opposite.min(axis=2)


def _onsager_sums(z: np.ndarray, r: np.ndarray, mu: np.ndarray):
    lhs = _energies(z, r, mu)
    d = _nearest_opposite(z, r)
    finite = np.isfinite(d)
    d = np.where(finite, d, 1.0)  # inf would give inf * 0; the mask drops it
    # exp(-dm) is exactly 0 beyond dm ~ 745, so the cap changes no term and
    # keeps dm**2 finite for distances near the overflow limit and mu = inf
    dm = np.minimum(d * mu[:, None], 1e3)
    terms = z**2 * (dm**2 / 12 + dm / 2 + 1) * np.exp(-dm) / d
    return lhs, [-s for s in _row_sums(row[k] for row, k in zip(terms, finite))]


def _baxter_sums(z: np.ndarray, r: np.ndarray, mu: np.ndarray):
    if np.any(z[z < 0] != -1.0):
        raise PreconditionError("all negative charges must equal -1")
    lhs = _energies(z, r, mu)
    d = _nearest_opposite(z, r)
    sums = _row_sums(row[k] for row, k in zip(1.0 / d, (z < 0) & np.isfinite(d)))
    return lhs, [-(1.0 + 2.0 * zmax) * s for zmax, s in zip(z.max(axis=1).tolist(), sums)]


def _positivity_sums(z: np.ndarray, r: np.ndarray, mu: np.ndarray):
    if not np.all(mu > 0):
        raise DomainError("mu must be positive")
    i, j = _pairs(z.shape[1])
    lhs = _row_sums(z[:, i] * z[:, j] * (-np.expm1(-mu[:, None] * r)) / r)
    return lhs, [-0.5 * m * s for m, s in zip(mu.tolist(), _row_sums(z**2))]


# (lhs, rhs) lists of each checker for charges (T, n), pair distances and mu (T,)
_SUMS = {"onsager": _onsager_sums, "baxter": _baxter_sums, "positivity": _positivity_sums}


def _stack(config: ParticleConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """Charges (1, n) and pair distances (1, n(n-1)/2): a stack of one."""
    return config.charges[None], config.distances[_pairs(config.n)][None]


def _report(sums, config: ParticleConfiguration, mu: float) -> InequalityReport:
    (lhs,), (rhs,) = sums(*_stack(config), np.array([mu], dtype=float))
    return InequalityReport(lhs=lhs, rhs=rhs)


def pair_energy(config: ParticleConfiguration, mu: float) -> float:
    """Total interaction sum_{i<j} z_i z_j exp(-mu r_ij)/r_ij."""
    return _energies(*_stack(config), np.array([mu], dtype=float))[0]


def nearest_opposite_distances(config: ParticleConfiguration) -> np.ndarray:
    """D_i = distance from particle i to the nearest opposite charge,
    +inf when no oppositely charged particle exists."""
    return _nearest_opposite(*_stack(config))[0]


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


def _draw(rng: np.random.Generator, n: int, box: float, charge_kind: str):
    """Positions (n, 3) uniform in [0, box]^3, then charges (n,), from rng."""
    pos = rng.uniform(0.0, box, size=(n, 3))
    if charge_kind == "pm1":
        z = rng.choice([-1.0, 1.0], size=n)
    elif charge_kind == "mixed":
        z = np.where(
            rng.random(n) < 0.5, -1.0, rng.integers(1, 4, size=n).astype(float)
        )
    else:
        raise PreconditionError(f"unknown charge_kind {charge_kind!r}")
    return pos, z


def random_configuration(
    rng: np.random.Generator,
    n: int,
    box: float,
    charge_kind: str = "pm1",
) -> ParticleConfiguration:
    """Uniform positions in [0, box]^3; charges are random signs ("pm1")
    or negatives of -1 mixed with positive charges up to +3 ("mixed"),
    so every checker's precondition is satisfied.  Positions are drawn
    once: ParticleConfiguration rejects a pair closer than MIN_SEPARATION,
    which uniform draws in a box of side >= 1 essentially never produce."""
    pos, z = _draw(rng, n, box, charge_kind)
    return ParticleConfiguration(positions=pos, charges=z)


CHECKERS = ("onsager", "baxter", "positivity")

# Trials per block of the fuzz; bounds its arrays at any trial count.  Fixed
# rather than sized by bytes (numerics.trials_per_block): the (n, n)
# nearest-opposite pass of a 50-particle trial is 20 KB, which would leave
# about 26 trials per block and split the n-groups into ones and twos.
_BLOCK = 1024


def run_random_ensemble(
    which: str,
    trials: int,
    seed: int,
    max_particles: int = 50,
    box_range: tuple[float, float] = (1.0, 10.0),
    mus: tuple[float, ...] = (0.0, 0.5, 1.0, 5.0),
) -> list[tuple[int, int, float, float, float, float]]:
    """Seeded fuzzing rows (trial_seed, n, mu, lhs, rhs, slack) for one
    checker; each trial is reproducible from its recorded 64-bit seed.

    Each trial draws n, box, charge kind and mu, then its configuration as
    `random_configuration` does, from its own `default_rng(trial_seed)`.
    The trials of a block of `_BLOCK` consecutive trials are grouped by n,
    and each group is one stack for the kernels the public checkers run on
    a stack of one, so row k equals replaying trial seed k through
    `random_configuration` and the public checker, bit for bit."""
    if which not in CHECKERS:
        raise PreconditionError(f"which must be one of {CHECKERS}")
    if trials < 1:
        raise PreconditionError("trials must be positive")
    if max_particles < 1:
        raise PreconditionError("max_particles must be positive")
    if not 0 < box_range[0] <= box_range[1] < math.inf:
        raise DomainError("box_range must satisfy 0 < low <= high < inf")
    if not (mus and all(0 <= m < math.inf for m in mus)):
        raise DomainError("mus must be a nonempty tuple of finite mu >= 0")
    seeds = seed_words(seed, trials)
    rows = []
    for start in range(0, trials, _BLOCK):
        block = seeds[start:start + _BLOCK]
        groups = {}  # n -> [(index in block, mu, positions, charges)]
        for k, ts in enumerate(block):
            rng = np.random.default_rng(ts)
            n = int(rng.integers(1, max_particles + 1))
            box = float(rng.uniform(*box_range))
            kind = "pm1" if rng.random() < 0.5 else "mixed"
            mu = float(rng.choice(mus))
            if which == "baxter":
                mu = 0.0
            elif which == "positivity":
                mu = mu if mu > 0 else 0.5
            groups.setdefault(n, []).append((k, mu, *_draw(rng, n, box, kind)))
        out = [None] * len(block)
        for n, members in groups.items():
            ks, mu, pos, z = zip(*members)
            r = _pair_distances(np.stack(pos))
            lhs, rhs = _SUMS[which](np.stack(z), r, np.array(mu))
            for k, m, a, b in zip(ks, mu, lhs, rhs):
                out[k] = (block[k], n, m, a, b, a - b)
        rows += out
    return rows
