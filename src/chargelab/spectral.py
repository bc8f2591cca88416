"""Radial Schrodinger spectra and the nearest-nucleus stability bound.

Negative spectra of -1/2 Laplacian + V are computed by radial reduction:
u = r R(r) turns each angular-momentum channel into a Dirichlet
tridiagonal eigenproblem on a uniform grid, with the (2 ell + 1)
degeneracy summed adaptively.  The eigenvalues are settled by inertia
counts on a dyadic grid (`numerics.tridiagonal_eigenvalues`) with numpy
alone.  Wells that share a grid share the off-diagonal, so their spectra
are solved together (`negative_sums`, `ground_state_energies`): every
negative eigenvalue of every binding channel of every well is one lane of
one stack, whose rows are the channels' diagonals.  The channels are
counted, CHANNEL_CHUNK to an inertia call, before any eigenvalue is
solved, so ELL_CAP and LANE_CAP bound each well's work up front.  Each
eigenvalue is solved once per spectrum: `spectrum_and_ground_state` takes
the ground state's coarse eigenvalue from the spectrum's channel-0 lane
instead of solving it again, and the doubled grid's eigenvalue starts from
a window around it.
Measured ratios E0 / int|V|_-^(5/2) and neg_sum / int|V|_-^(5/2) bracket
the Sobolev and Lieb-Thirring constants empirically; no universal constant
is hardcoded.
The stability calculator assembles the one-body consequence of the
correlation estimate: every electron feels only its nearest nucleus,
screened beyond radius R, at coupling strength 1 + 2 max z.  Lieb-Thirring
then costs one screened ball per nucleus, so the bound takes the nuclear
charges alone: their positions never enter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    PreconditionError,
    ResourceLimitError,
)
from .numerics import (
    RadialGrid,
    integrate_1d,
    tridiagonal_counts,
    tridiagonal_eigenvalues,
    uniform_radial_grid,
)

__all__ = [
    "SEMICLASSICAL_LT_RATIO",
    "POTENTIAL_KINDS",
    "PotentialSpec",
    "gaussian_well",
    "square_well",
    "nucleus_potential",
    "SpectrumResult",
    "StabilityBound",
    "default_eigen_grid",
    "ground_state_energy",
    "ground_state_energies",
    "negative_sum",
    "negative_sums",
    "spectrum_and_ground_state",
    "stability_bound",
]

# (2 pi)^-3 int (p^2/2 - 1)_- d^3p = -2^(5/2) / (30 pi^2): the deep-well
# limit of neg_sum / int|V|_-^(5/2)
SEMICLASSICAL_LT_RATIO = -(2.0**2.5) / (30.0 * math.pi**2)

POTENTIAL_KINDS = ("gaussian-well", "square-well", "screened-nucleus")

ELL_CONVERGED = 1e-6  # stop adding channels below this relative contribution
ELL_CAP = 300
CHANNEL_CHUNK = 16  # channels counted together
# Most negative eigenvalues one spectrum solves, counted before the first is
# solved.  At the cap a spectrum takes about 1 s on the default 2000-node
# grid (lt-study --depths 4080: 1023 eigenvalues, 0.90 s on 2 shared CPUs,
# 0.27 s of it in the Sturm recounts of 1063 lanes); --depths 10000 holds
# 2515, which took 4.0 s.
LANE_CAP = 1024
REFINE_TOL = 1e-4  # two-grid disagreement beyond this aborts
V_QUAD_TOL = 1e-10  # quadrature tolerance of v_integral_quadrature


def _five_halves_fits(x: float) -> bool:
    """x > 0 and x^(5/2) is a positive finite float (no overflow to inf,
    no underflow to 0), as every int |V|_-^(5/2) below needs."""
    if not x > 0:
        return False
    try:
        return 0.0 < float(x) ** 2.5 < math.inf
    except OverflowError:
        return False


def _screened_ball(radius: float) -> float:
    """int (1/r - 1/R)_+^(5/2) d^3x over one ball of radius R, closed form."""
    return 1.25 * math.pi**2 * math.sqrt(radius)


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """One attractive potential from a named family, with |V|_-^(5/2)
    integrable by construction.

    gaussian-well:  V(r) = -depth exp(-(r/width)^2)
    square-well:    V(r) = -depth for r < width, else 0
    screened-nucleus:
                    V(r) = -strength (1/r - 1/cutoff_radius)_+

    All three are radial, centred at the origin.
    """

    kind: str
    depth: float = 0.0
    width: float = 0.0
    strength: float = 0.0
    cutoff_radius: float = 0.0

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise DomainError(f"kind must be one of {POTENTIAL_KINDS}")
        if self.kind in ("gaussian-well", "square-well"):
            if not _five_halves_fits(self.depth):
                raise DomainError("depth must be > 0 with depth^(5/2) finite and > 0")
            if not (self.width > 0 and math.isfinite(self.width)):
                raise DomainError("width must be finite and > 0")
        else:
            if not _five_halves_fits(self.strength):
                raise DomainError("strength must be > 0 with strength^(5/2) finite and > 0")
            if not (self.cutoff_radius > 0 and math.isfinite(self.cutoff_radius)):
                raise DomainError("cutoff_radius must be finite and > 0")

    @property
    def length_scale(self) -> float:
        if self.kind == "screened-nucleus":
            return self.cutoff_radius
        return self.width

    def radial(self, r: np.ndarray) -> np.ndarray:
        """V on radii r > 0."""
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian-well":
            return -self.depth * np.exp(-((r / self.width) ** 2))
        if self.kind == "square-well":
            return np.where(r < self.width, -self.depth, 0.0)
        return -self.strength * np.clip(1.0 / r - 1.0 / self.cutoff_radius, 0.0, None)

    def v_integral(self) -> float:
        """int |V|_-^(5/2) d^3x, in closed form per family."""
        if self.kind == "gaussian-well":
            return self.depth**2.5 * (2.0 * math.pi / 5.0) ** 1.5 * self.width**3
        if self.kind == "square-well":
            return self.depth**2.5 * (4.0 * math.pi / 3.0) * self.width**3
        return self.strength**2.5 * _screened_ball(self.cutoff_radius)

    def v_integral_quadrature(self) -> float:
        """Independent quadrature route for the same integral, to V_QUAD_TOL.

        For the nucleus, r = R s^2 turns 4 pi r^2 (1/r - 1/R)^(5/2) dr into
        8 pi sqrt(R) (1 - s^2)^(5/2) ds on (0, 1): bounded, and free of R,
        so no radius overflows the integrand.
        """
        if self.kind == "gaussian-well":
            quad = integrate_1d(
                lambda r: 4.0
                * math.pi
                * r
                * r
                * (self.depth * math.exp(-((r / self.width) ** 2))) ** 2.5,
                0.0,
                math.inf,
                tol=V_QUAD_TOL,
                scale=self.width,
            )
            return quad.value
        if self.kind == "square-well":
            quad = integrate_1d(
                lambda r: 4.0 * math.pi * r * r * self.depth**2.5,
                0.0,
                self.width,
                tol=V_QUAD_TOL,
            )
            return quad.value
        quad = integrate_1d(lambda s: (1.0 - s * s) ** 2.5, 0.0, 1.0, tol=V_QUAD_TOL)
        per_ball = 8.0 * math.pi * math.sqrt(self.cutoff_radius) * quad.value
        return self.strength**2.5 * per_ball


def gaussian_well(depth: float, width: float = 1.0) -> PotentialSpec:
    return PotentialSpec(kind="gaussian-well", depth=depth, width=width)


def square_well(depth: float, width: float = 1.0) -> PotentialSpec:
    return PotentialSpec(kind="square-well", depth=depth, width=width)


def nucleus_potential(strength: float, cutoff_radius: float) -> PotentialSpec:
    return PotentialSpec(
        kind="screened-nucleus", strength=strength, cutoff_radius=cutoff_radius
    )


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Negative eigenvalues (with degeneracy repeats), the potential integral
    entering the Lieb-Thirring comparison, and the last angular momentum
    channel solved; neg_sum is the sum of the eigenvalues."""

    eigenvalues: np.ndarray
    v_integral: float
    ell_max: int

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", eig)
        if np.any(eig >= 0):
            raise ConsistencyError("eigenvalue list must be strictly negative")
        if self.v_integral < 0:
            raise ConsistencyError("v_integral must be >= 0")

    @property
    def neg_sum(self) -> float:
        return float(np.sum(self.eigenvalues))

    @property
    def lt_ratio(self) -> float:
        """neg_sum / int|V|_-^(5/2); the semiclassical limit is
        SEMICLASSICAL_LT_RATIO."""
        if self.v_integral == 0.0:
            raise DomainError("ratio undefined for a vanishing potential")
        return self.neg_sum / self.v_integral


def default_eigen_grid(spec: PotentialSpec) -> RadialGrid:
    """Uniform grid sized from the potential's length scale: the box holds
    the near-threshold tail, the spacing resolves the deepest local
    momentum."""
    return uniform_radial_grid(2000, 8.0 * spec.length_scale)


def _stencil(spec: PotentialSpec, grid: RadialGrid):
    """(r, diagonal, off-diagonal) of the s-wave Dirichlet stencil of
    -1/2 d^2/dr^2 + V on the grid's interior nodes r: a wall at the last
    node, and u(0) = 0 built in.

    V is sampled at r, except that the square well is cell-averaged over
    [r - h/2, r + h/2]: sampling the jump pointwise costs an O(h) eigenvalue
    error that defeats the h^2 refinement gate, while the exact average
    restores second order.
    """
    nodes = grid.nodes
    h = nodes[1] - nodes[0]
    if np.max(np.abs(np.diff(nodes) - h)) > 1e-9 * h:
        raise PreconditionError("eigen operations need a uniform radial grid")
    r = nodes[:-1]
    if spec.kind == "square-well":
        v = -spec.depth * np.clip((spec.width - (r - 0.5 * h)) / h, 0.0, 1.0)
    else:
        v = spec.radial(r)
    return r, 1.0 / h**2 + v, np.full(r.size - 1, -0.5 / h**2)


def _shared_grid(specs, grid: RadialGrid | None) -> RadialGrid:
    """`grid`, or the default grid of `specs`, which must be one grid."""
    if grid is not None:
        return grid
    grids = {(g.n_nodes, g.r_max): g for g in map(default_eigen_grid, specs)}
    if len(grids) != 1:
        raise PreconditionError("the wells of one stack need one grid: pass it")
    return grids.popitem()[1]


def _channel_diagonals(ells: np.ndarray, r: np.ndarray, base: np.ndarray, out=None):
    """The diagonals of channels `ells`: channel ell adds ell (ell + 1) / (2 r^2)
    to the s-wave diagonal `base`."""
    out = np.divide((0.5 * ells * (ells + 1))[:, None], r**2, out=out)
    out += base
    return out


def _channel_counts(r: np.ndarray, base: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The counts of the channels ell = 0, 1, ..., up to and including the
    first empty one, the count of a channel being the number of its
    eigenvalues below 0: one inertia count each, CHANNEL_CHUNK channels to
    a call.

    Nothing is solved here, so the solver's work is bounded first:
    AccuracyError when channel ELL_CAP still binds, ResourceLimitError when
    the channels hold more than LANE_CAP negative eigenvalues.
    """
    counts = []
    for first in range(0, ELL_CAP + 1, CHANNEL_CHUNK):
        ells = np.arange(first, min(first + CHANNEL_CHUNK, ELL_CAP + 1))
        counts += tridiagonal_counts(_channel_diagonals(ells, r, base), off,
                                     np.zeros(ells.size)).tolist()
        if 0 in counts:
            break
    else:
        raise AccuracyError(f"channel sum not converged by ell = {ELL_CAP}: "
                            f"channel {ELL_CAP} still binds")
    counts = np.array(counts[:counts.index(0) + 1])
    if counts.sum() > LANE_CAP:
        raise ResourceLimitError(f"{counts.sum()} negative eigenvalues exceed cap {LANE_CAP}")
    return counts


def _spectra(specs, grid: RadialGrid):
    """`negative_sum` of each well of `specs` on `grid`, and the lowest
    eigenvalue of its channel 0 (None when channel 0 is empty).

    Every well's channels are counted before anything is solved; then the
    negative eigenvalues of all of them are the lanes of one
    `tridiagonal_eigenvalues` stack, one row per binding channel.
    """
    stencils = [_stencil(spec, grid) for spec in specs]
    off = stencils[0][2]  # the grid's alone
    channels = [_channel_counts(r, base, off) for r, base, _ in stencils]
    # every channel but the last, empty one binds
    counts = np.concatenate([counts[:-1] for counts in channels])
    stack, at = np.empty((counts.size, off.size + 1)), 0
    for counted, (r, base, _) in zip(channels, stencils):
        _channel_diagonals(np.arange(counted.size - 1), r, base,
                           out=stack[at:at + counted.size - 1])
        at += counted.size - 1
    ends = np.cumsum(counts)
    rows = np.repeat(np.arange(counts.size), counts)
    index = np.arange(rows.size) - np.repeat(ends - counts, counts)
    values = np.split(tridiagonal_eigenvalues(stack, off, rows, index, np.zeros(rows.size)),
                      ends[:-1])
    spectra = []
    for spec, counted in zip(specs, channels):
        found, total = [], 0.0
        for ell, vals in enumerate(values[:counted.size - 1] + [np.empty(0)]):
            if vals.size == 0:
                break
            contribution = (2 * ell + 1) * float(vals.sum())
            found.append(np.repeat(vals, 2 * ell + 1))
            total += contribution
            if abs(contribution) < ELL_CONVERGED * abs(total):
                break
        # Python's sort: numpy's would map 128 KB of sort kernels that no
        # other check runs into resident memory
        eigenvalues = np.array(sorted(np.concatenate(found).tolist())) if found else np.empty(0)
        result = SpectrumResult(eigenvalues=eigenvalues, v_integral=spec.v_integral(),
                                ell_max=ell)
        # found[0] is channel 0 whenever any channel binds
        spectra.append((result, float(found[0][0]) if found else None))
        values = values[counted.size - 1:]
    return spectra


def _s_wave_stack(specs, grid: RadialGrid):
    """The s-wave diagonals of `specs` on `grid`, one row each, and the
    grid's off-diagonal."""
    stencils = [_stencil(spec, grid) for spec in specs]
    return np.array([base for _, base, _ in stencils]), stencils[0][2]


def _lowest_eigenvalues(specs, grid: RadialGrid) -> list[float]:
    """The lowest eigenvalue of each well's s-wave stencil, the lanes of one
    stack: solved below 0 when the stencil binds, else below its smallest
    diagonal entry (the Rayleigh quotient of a unit vector)."""
    diag, off = _s_wave_stack(specs, grid)
    wells = np.arange(len(specs))
    upper = np.where(tridiagonal_counts(diag, off, np.zeros(wells.size)) > 0, 0.0,
                     diag.min(axis=1))
    return tridiagonal_eigenvalues(diag, off, wells, np.zeros(wells.size, int), upper).tolist()


def _refined_ground_states(specs, grid: RadialGrid, coarse) -> list[float]:
    """The h^2 Richardson combination of each well's lowest eigenvalue
    coarse[k] on `grid` and the one on the doubled grid, clamped at 0; see
    `ground_state_energy`."""
    diag, off = _s_wave_stack(specs, uniform_radial_grid(2 * grid.n_nodes, grid.r_max))
    coarse = np.asarray(coarse, dtype=float)
    # the gate below expects the fine eigenvalue within `window` of coarse,
    # so the window's ends are the lane's first two split points; the lane
    # starts below the smallest diagonal entry, which bounds the lowest
    # eigenvalue whether or not the stencil binds
    window = REFINE_TOL * np.maximum(1.0, np.abs(coarse))
    wells = np.arange(len(specs))
    fine = tridiagonal_eigenvalues(diag, off, wells, np.zeros(wells.size, int), diag.min(axis=1),
                                   np.stack([coarse - window, coarse + window], axis=1))
    energies = []
    for low, high in zip(coarse.tolist(), fine.tolist()):
        if abs(high - low) > REFINE_TOL * max(1.0, abs(high)):
            raise AccuracyError(
                f"grid refinement moved E0 from {low!r} to {high!r}; "
                "discretization too coarse"
            )
        energies.append(min(0.0, high + (high - low) / 3.0))
    return energies


def ground_state_energies(specs, grid: RadialGrid | None = None) -> list[float]:
    """`ground_state_energy` of each well of `specs`, all on one grid (the
    wells' default grid when None), each of the two grids' eigenvalues the
    lanes of one stack."""
    grid = _shared_grid(specs, grid)
    return _refined_ground_states(specs, grid, _lowest_eigenvalues(specs, grid))


def ground_state_energy(spec: PotentialSpec, grid: RadialGrid | None = None) -> float:
    """Lowest eigenvalue of -1/2 Laplacian + V, clamped at the continuum
    edge 0.

    Solved in the s-wave radial reduction on `grid` and once more on the
    doubled grid; the h^2 Richardson combination is returned.  Raises
    AccuracyError when the two grids disagree beyond REFINE_TOL
    (relative to max(1, |E|)).
    """
    return ground_state_energies([spec], grid)[0]


def negative_sums(specs, grid: RadialGrid | None = None) -> list[SpectrumResult]:
    """`negative_sum` of each well of `specs`, all on one grid (the wells'
    default grid when None), their eigenvalues the lanes of one stack.
    Every well is counted, and its caps checked, before any is solved."""
    return [result for result, _ in _spectra(specs, _shared_grid(specs, grid))]


def negative_sum(spec: PotentialSpec, grid: RadialGrid | None = None) -> SpectrumResult:
    """All negative eigenvalues of -1/2 Laplacian + V with their
    (2 ell + 1) angular degeneracies, summed over channels until a channel
    is empty or contributes < ELL_CONVERGED relatively.  Raises
    AccuracyError when channel ELL_CAP still binds and ResourceLimitError
    beyond LANE_CAP negative eigenvalues, both before any is solved."""
    return negative_sums([spec], grid)[0]


def spectrum_and_ground_state(spec: PotentialSpec, grid: RadialGrid | None = None):
    """(`negative_sum(spec, grid)`, `ground_state_energy(spec, grid)`), with
    the ground state's coarse eigenvalue taken from the spectrum: channel
    0's lowest lane is settled by counts on the same grid of the same
    stencil row as `_lowest_eigenvalues`, so with monotone counts it has
    the same bits.  When nothing binds, the coarse eigenvalue is solved on
    its own, below the smallest diagonal entry."""
    grid = _shared_grid([spec], grid)
    [(result, lowest)] = _spectra([spec], grid)
    coarse = _lowest_eigenvalues([spec], grid)[0] if lowest is None else lowest
    return result, _refined_ground_states([spec], grid, [coarse])[0]


@dataclass(frozen=True)
class StabilityBound:
    """Pieces of the nearest-nucleus lower bound at coupling strength
    1 + 2 max z: total = -C_LT q int|V|_-^(5/2) - N_e strength / radius."""

    strength: float
    radius: float
    v_integral: float
    n_electrons: int
    total: float

    @property
    def per_electron(self) -> float:
        return self.total / self.n_electrons


def stability_bound(
    charges,
    q: int,
    c_lt: float,
    n_electrons: int,
    radius: float | None = None,
    strength: float | None = None,
) -> StabilityBound:
    """Lower bound on the energy of n_electrons fermions (q spin states)
    around fixed nuclei of the given charges, from the Lieb-Thirring
    inequality applied to the screened nearest-nucleus potential.

    Each nucleus contributes one screening ball, so only the number of
    nuclei and the largest charge enter; positions are immaterial.  The
    screening radius defaults to 1 / (1 + 2 max z).  With charges=None the
    potential vanishes and only the -N_e strength / radius term remains
    (an explicit strength is then required).  A q or n_electrons beyond
    the float range, or a total that overflows to -inf, as at a vanishing
    radius, raises DomainError.
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    if not c_lt > 0:
        raise DomainError("c_lt must be > 0")
    if n_electrons < 1:
        raise DomainError("n_electrons must be >= 1")
    for name, count in (("q", q), ("n_electrons", n_electrons)):
        try:
            float(count)
        except OverflowError:
            raise DomainError(f"{name} has no finite float") from None
    if charges is None:
        if strength is None or not strength > 0:
            raise DomainError("the vacuum case needs an explicit strength > 0")
        coupling = float(strength)
    else:
        z = np.array(charges, dtype=float, ndmin=1)
        if z.size == 0:
            raise PreconditionError("charges must be nonempty (or use --vacuum-strength)")
        if not np.all((z > 0) & np.isfinite(z)):
            raise DomainError("nuclear charges must be finite and > 0")
        coupling = 1.0 + 2.0 * float(np.max(z))
    r_cut = 1.0 / coupling if radius is None else float(radius)
    if not r_cut > 0:
        raise DomainError("radius must be > 0")
    v_int = 0.0
    if charges is not None:
        spec = nucleus_potential(coupling, r_cut)  # rejects an overflowing strength^(5/2)
        v_int = coupling**2.5 * z.size * _screened_ball(r_cut)
        by_quad = z.size * spec.v_integral_quadrature()
        if abs(by_quad - v_int) > 1e-8 * v_int:
            raise ConsistencyError(
                f"potential integral routes disagree: closed={v_int!r} "
                f"quad={by_quad!r}"
            )
    total = -c_lt * q * v_int - n_electrons * coupling / r_cut
    if not math.isfinite(total):
        raise DomainError(f"the bound overflows to {total!r} at radius {r_cut!r}")
    return StabilityBound(strength=coupling, radius=r_cut, v_integral=v_int,
                          n_electrons=n_electrons, total=total)
