"""Pairwise Yukawa/Coulomb energies and classical correlation inequalities.

Checkers return an InequalityReport rather than raising on violation: a
false `holds` on one of these theorems signals an implementation bug
upstream, which the property suites are designed to surface.

The seeded fuzz (`run_random_ensemble`) draws each trial from its own
generator, in the order `random_configuration` draws, but computes in
batches: consecutive trials are taken in blocks of `_BLOCK`, and within a
block the trials with the same particle number share one array pass for
validation, distances, charge products and kernels.  Every sum is still a
1D reduction over one trial's elements in the order the public checkers
sum them, so each row is bit-identical to replaying its trial seed through
`random_configuration` and the public checker.
"""
from __future__ import annotations

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


def _check_separation(rmin: float) -> None:
    if rmin <= MIN_SEPARATION:
        raise PreconditionError(
            f"minimum separation {rmin:.3e} below {MIN_SEPARATION:.0e}"
        )


def _check_baxter_charges(z: np.ndarray) -> None:
    if np.any(z[z < 0] != -1.0):
        raise PreconditionError("all negative charges must equal -1")


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
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(z))):
            raise PreconditionError("positions and charges must be finite")
        with np.errstate(over="ignore"):
            dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=-1))
        if not np.all(np.isfinite(dist)):
            raise PreconditionError("pair distances overflow: positions too far apart")
        if pos.shape[0] > 1:
            _check_separation(dist[_pairs(pos.shape[0])].min())
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


def _pair_data(config: ParticleConfiguration):
    """Upper-triangle pair distances and charge products."""
    i, j = _pairs(config.n)
    return config.distances[i, j], config.charges[i] * config.charges[j]


def pair_energy(config: ParticleConfiguration, mu: float) -> float:
    """Total interaction sum_{i<j} z_i z_j exp(-mu r_ij)/r_ij."""
    if not mu >= 0:
        raise DomainError("mu must be nonnegative")
    if config.n < 2:
        return 0.0
    r, zz = _pair_data(config)
    return float(np.sum(zz * np.exp(-mu * r) / r))


def nearest_opposite_distances(config: ParticleConfiguration) -> np.ndarray:
    """D_i = distance from particle i to the nearest opposite charge,
    +inf when no oppositely charged particle exists."""
    opposite = np.outer(config.charges, config.charges) < 0
    return np.where(opposite, config.distances, np.inf).min(axis=1)


def onsager_check(config: ParticleConfiguration, mu: float) -> InequalityReport:
    """Pairwise energy against the one-body screened bound
    -sum_i z_i^2 ((D_i mu)^2/12 + D_i mu/2 + 1) exp(-mu D_i)/D_i."""
    lhs = pair_energy(config, mu)
    d = nearest_opposite_distances(config)
    z2 = config.charges**2
    finite = np.isfinite(d)
    dm = d[finite] * mu
    terms = z2[finite] * (dm**2 / 12 + dm / 2 + 1) * np.exp(-dm) / d[finite]
    return InequalityReport(lhs=lhs, rhs=-float(terms.sum()))


def baxter_check(config: ParticleConfiguration) -> InequalityReport:
    """Coulomb energy against -(1+2 max_j z_j) sum over negative particles
    of 1/D_i; requires every negative charge to be exactly -1."""
    z = config.charges
    _check_baxter_charges(z)
    lhs = pair_energy(config, 0.0)
    d = nearest_opposite_distances(config)
    sel = (z < 0) & np.isfinite(d)
    rhs = -(1.0 + 2.0 * float(z.max())) * float((1.0 / d[sel]).sum())
    return InequalityReport(lhs=lhs, rhs=rhs)


def yukawa_positivity_check(
    config: ParticleConfiguration, mu: float
) -> InequalityReport:
    """sum z_i z_j (Y_0 - Y_mu)(r_ij) >= -sum z_i^2 mu/2, the positive-type
    property of the Coulomb-minus-Yukawa kernel."""
    if not mu > 0:
        raise DomainError("mu must be positive")
    if config.n < 2:
        lhs = 0.0
    else:
        r, zz = _pair_data(config)
        lhs = float(np.sum(zz * (-np.expm1(-mu * r)) / r))
    rhs = -0.5 * mu * float((config.charges**2).sum())
    return InequalityReport(lhs=lhs, rhs=rhs)


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

# Trials per block of the fuzz; bounds its arrays at any trial count.
_BLOCK = 1024


def _group_sums(which: str, n: int, pos: np.ndarray, z: np.ndarray, mu: np.ndarray):
    """Per-trial (lhs, rhs) lists of one checker for T trials of n particles:
    positions (T, n, 3), charges (T, n), screening mu (T,).  Validates as
    ParticleConfiguration and the checker do; elementwise work spans the
    group, and each sum is a 1D reduction over the elements the public
    checker sums, in its order, so the values are bit-identical to it."""
    if not (np.isfinite(pos).all() and np.isfinite(z).all()):
        raise PreconditionError("positions and charges must be finite")
    i, j = _pairs(n)
    # (x^2 + y^2) + z^2 per pair is the order in which numpy sums the short
    # last axis in ParticleConfiguration, so r equals its distances exactly
    sq = [(pos[:, i, a] - pos[:, j, a]) ** 2 for a in range(3)]
    r = np.sqrt(sq[0] + sq[1] + sq[2])
    if n > 1:
        _check_separation(r.min())
    zz = z[:, i] * z[:, j]
    if which == "positivity":
        pair = zz * (-np.expm1(-mu[:, None] * r)) / r
        rhs = [-0.5 * m * float(np.add.reduce(z2)) for m, z2 in zip(mu.tolist(), z**2)]
        return [float(np.add.reduce(row)) for row in pair], rhs
    if which == "baxter":
        _check_baxter_charges(z)
    elif np.any(mu < 0):  # onsager: pair_energy rejects it
        raise DomainError("mu must be nonnegative")
    pair = zz * np.exp(-mu[:, None] * r) / r
    # nearest opposite charge D_i; a minimum is exact, so one pass serves the group
    opposite = np.full((len(z), n, n), np.inf)
    opposite[:, i, j] = opposite[:, j, i] = np.where(zz < 0, r, np.inf)
    d = opposite.min(axis=2)
    finite = np.isfinite(d)
    if which == "onsager":
        d = np.where(finite, d, 1.0)  # inf would give inf * 0; the mask drops it
        dm = d * mu[:, None]
        terms = z**2 * (dm**2 / 12 + dm / 2 + 1) * np.exp(-dm) / d
        rhs = [-float(np.add.reduce(row[keep])) for row, keep in zip(terms, finite)]
    else:
        rhs = [-(1.0 + 2.0 * zmax) * float(np.add.reduce(row[keep]))
               for zmax, row, keep in zip(z.max(axis=1).tolist(), 1.0 / d, (z < 0) & finite)]
    return [float(np.add.reduce(row)) for row in pair], rhs


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
    The arithmetic runs per block of `_BLOCK` consecutive trials, grouped
    by n (`_group_sums`), with every sum taken per trial, so row k equals
    replaying trial seed k through `random_configuration` and the public
    checker, bit for bit."""
    if which not in CHECKERS:
        raise PreconditionError(f"which must be one of {CHECKERS}")
    if trials < 1:
        raise PreconditionError("trials must be positive")
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
            lhs, rhs = _group_sums(which, n, np.stack(pos), np.stack(z), np.array(mu))
            for k, m, a, b in zip(ks, mu, lhs, rhs):
                out[k] = (block[k], n, m, a, b, a - b)
        rows += out
    return rows
