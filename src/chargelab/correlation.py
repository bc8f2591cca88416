"""Pairwise Yukawa/Coulomb energies and classical correlation inequalities.

Checkers return an InequalityReport rather than raising on violation: a
false `holds` on one of these theorems signals an implementation bug
upstream, which the property suites are designed to surface.

The localization check integrates the sliding-cube interaction over the
window center y with a tensor-product rule; the per-axis factorization
used there is exact for product bumps on product grids.

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
from .numerics import integrate_1d, seed_words

__all__ = [
    "ParticleConfiguration",
    "InequalityReport",
    "BumpChi",
    "ProductGrid",
    "yukawa",
    "pair_energy",
    "nearest_opposite_distances",
    "onsager_check",
    "baxter_check",
    "yukawa_positivity_check",
    "cly_localization_check",
    "grid_covering",
    "localization_omega_sweep",
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
    lhs: float
    rhs: float
    tolerance: float = HOLDS_TOL
    slack: float = field(init=False)
    holds: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "slack", self.lhs - self.rhs)
        object.__setattr__(self, "holds", bool(self.slack >= -self.tolerance))


def yukawa(r: float, mu: float) -> float:
    """exp(-mu*r)/r; mu = 0 is the Coulomb case."""
    if not r > 0:
        raise DomainError("r must be positive")
    if not mu >= 0:
        raise DomainError("mu must be nonnegative")
    return np.exp(-mu * r) / r


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


@dataclass(frozen=True)
class BumpChi:
    """Product bump chi(x) = prod_d (1 - 4 x_d^2)^power, supported in the
    unit cube |x_d| <= 1/2, with 0 <= chi <= 1 and chi(0) = 1."""

    power: int = 2

    def __post_init__(self):
        if self.power < 1:
            raise DomainError("power must be a positive integer")

    def axis_profile(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        core = np.clip(1.0 - 4.0 * u**2, 0.0, None)
        return core**self.power

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.prod(self.axis_profile(pts), axis=-1)

    def chi_sq_integral(self) -> float:
        return _chi_sq_integral(self.power)


@lru_cache(maxsize=16)
def _chi_sq_integral(power: int) -> float:
    axis = integrate_1d(lambda u: (1.0 - 4.0 * u**2) ** (2 * power), -0.5, 0.5)
    return float(axis.value**3)


@dataclass(frozen=True, eq=False)
class ProductGrid:
    """Midpoint tensor-product rule for the window-center integral, with
    per-axis ranges [lo_d, hi_d] and n_per_axis cells on each axis."""

    lo: np.ndarray
    hi: np.ndarray
    n_per_axis: int

    def __post_init__(self):
        lo = np.broadcast_to(np.asarray(self.lo, dtype=float), (3,)).copy()
        hi = np.broadcast_to(np.asarray(self.hi, dtype=float), (3,)).copy()
        if np.any(hi <= lo):
            raise PreconditionError("grid upper bounds must exceed lower bounds")
        if self.n_per_axis < 2:
            raise PreconditionError("n_per_axis must be at least 2")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def axis_rule(self, d: int):
        h = (self.hi[d] - self.lo[d]) / self.n_per_axis
        nodes = self.lo[d] + h * (np.arange(self.n_per_axis) + 0.5)
        return nodes, h

    def refined(self) -> "ProductGrid":
        return ProductGrid(self.lo, self.hi, 2 * self.n_per_axis)


def grid_covering(config: ParticleConfiguration, n_per_axis: int = 24) -> ProductGrid:
    """Product grid covering every window center whose unit cube can touch
    a particle (half-cube margin per axis)."""
    lo = config.positions.min(axis=0) - 0.5
    hi = config.positions.max(axis=0) + 0.5
    return ProductGrid(lo, hi, n_per_axis)


def _localized_rhs(
    config: ParticleConfiguration, mu_eff: float, chi: BumpChi, grid: ProductGrid
) -> float:
    """Quadrature of sum_{i<j} z_i z_j chi_y(x_i) Y_mu_eff(r_ij) chi_y(x_j)
    over y. The y-sum factorizes per axis: overlap[i,j] = prod_d
    (C_d W_d C_d^T)[i,j] with C_d[i,k] = chi_axis(x_id - y_k)."""
    n = config.n
    if n < 2:
        return 0.0
    overlap = np.ones((n, n))
    for d in range(3):
        nodes, weight = grid.axis_rule(d)
        c = chi.axis_profile(config.positions[:, d, None] - nodes[None, :])
        overlap *= weight * (c @ c.T)
    r, zz = _pair_data(config)
    return float(np.sum(zz * np.exp(-mu_eff * r) / r * overlap[_pairs(n)]))


def cly_localization_check(
    config: ParticleConfiguration,
    mu: float,
    omega: float,
    chi: BumpChi,
    y_grid: ProductGrid,
) -> InequalityReport:
    """Sliding-cube localization: (int chi^2) * pair_energy(mu) + N*omega
    against the y-integrated unit-cube interaction at screening mu+omega.
    The report tolerance is the measured quadrature error of the rhs."""
    if not mu >= 0:
        raise DomainError("mu must be nonnegative")
    if not omega > 0:
        raise DomainError("omega must be positive")
    lhs = chi.chi_sq_integral() * pair_energy(config, mu) + config.n * omega
    rhs = _localized_rhs(config, mu + omega, chi, y_grid)
    rhs_fine = _localized_rhs(config, mu + omega, chi, y_grid.refined())
    tol = max(HOLDS_TOL, 2.0 * abs(rhs_fine - rhs))
    return InequalityReport(lhs=lhs, rhs=rhs_fine, tolerance=tol)


def localization_omega_sweep(
    config: ParticleConfiguration,
    mu: float,
    chi: BumpChi,
    y_grid: ProductGrid,
    omegas,
) -> tuple[float, list[tuple[float, InequalityReport]]]:
    """Runs the localization check along increasing omega values; returns
    (omega_star, reports) where omega_star is the smallest omega from
    which every later check holds (inf when none do)."""
    omegas = sorted(float(w) for w in omegas)
    if not omegas:
        raise PreconditionError("omegas must be nonempty")
    reports = [
        (w, cly_localization_check(config, mu, w, chi, y_grid)) for w in omegas
    ]
    omega_star = np.inf
    for w, rep in reversed(reports):
        if not rep.holds:
            break
        omega_star = w
    return float(omega_star), reports


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
