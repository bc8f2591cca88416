"""Radial Schrodinger spectra and the nearest-nucleus stability bound.

Negative spectra of -1/2 Laplacian + V are computed by radial reduction:
u = r R(r) turns each angular-momentum channel into a Dirichlet
tridiagonal eigenproblem on a uniform grid, solved densely per channel
with the (2 ell + 1) degeneracy summed adaptively.  Measured ratios
E0 / int|V|_-^(5/2) and neg_sum / int|V|_-^(5/2) bracket the Sobolev and
Lieb-Thirring constants empirically; no universal constant is hardcoded.
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
)
from .numerics import RadialGrid, integrate_1d, uniform_radial_grid

__all__ = [
    "SEMICLASSICAL_LT_RATIO",
    "POTENTIAL_KINDS",
    "PotentialSpec",
    "gaussian_well",
    "square_well",
    "nucleus_potential",
    "GridDescriptor",
    "SpectrumResult",
    "StabilityBound",
    "default_eigen_grid",
    "ground_state_energy",
    "negative_sum",
    "stability_bound",
]

# (2 pi)^-3 int (p^2/2 - 1)_- d^3p = -2^(5/2) / (30 pi^2): the deep-well
# limit of neg_sum / int|V|_-^(5/2)
SEMICLASSICAL_LT_RATIO = -(2.0**2.5) / (30.0 * math.pi**2)

POTENTIAL_KINDS = ("gaussian-well", "square-well", "screened-nucleus")

ELL_CONVERGED = 1e-6  # stop adding channels below this relative contribution
ELL_CAP = 300
REFINE_TOL = 1e-4  # two-grid disagreement beyond this aborts


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

    def v_integral_quadrature(self, tol: float = 1e-10) -> float:
        """Independent quadrature route for the same integral.

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
                tol=tol,
                scale=self.width,
            )
            return quad.value
        if self.kind == "square-well":
            quad = integrate_1d(
                lambda r: 4.0 * math.pi * r * r * self.depth**2.5,
                0.0,
                self.width,
                tol=tol,
            )
            return quad.value
        quad = integrate_1d(lambda s: (1.0 - s * s) ** 2.5, 0.0, 1.0, tol=tol)
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


@dataclass(frozen=True)
class GridDescriptor:
    n_nodes: int
    r_max: float
    ell_max: int


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Negative eigenvalues (with degeneracy repeats), their sum, and the
    potential integral entering the Lieb-Thirring comparison."""

    eigenvalues: np.ndarray
    neg_sum: float
    v_integral: float
    grid_spec: GridDescriptor

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", eig)
        if np.any(eig >= 0):
            raise ConsistencyError("eigenvalue list must be strictly negative")
        if self.neg_sum != float(np.sum(eig)):
            raise ConsistencyError("neg_sum must equal the sum of the list")
        if self.v_integral < 0:
            raise ConsistencyError("v_integral must be >= 0")

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


def _interior(grid: RadialGrid):
    nodes = grid.nodes
    h = nodes[1] - nodes[0]
    if np.max(np.abs(np.diff(nodes) - h)) > 1e-9 * h:
        raise PreconditionError("eigen operations need a uniform radial grid")
    # Dirichlet wall at the last node; u(0) = 0 is built into the stencil
    return nodes[:-1], float(h)


def _discrete_potential(spec: PotentialSpec, r: np.ndarray, h: float) -> np.ndarray:
    """Node values of V for the stencil.

    The square well is cell-averaged over [r - h/2, r + h/2]: sampling the
    jump pointwise costs an O(h) eigenvalue error that defeats the h^2
    refinement gate, while the exact average restores second order.
    Smooth families are sampled pointwise.
    """
    if spec.kind == "square-well":
        frac = np.clip((spec.width - (r - 0.5 * h)) / h, 0.0, 1.0)
        return -spec.depth * frac
    return spec.radial(r)


def _channel_negatives(
    v_nodes: np.ndarray, r: np.ndarray, h: float, ell: int
) -> np.ndarray:
    from scipy.linalg import eigvalsh_tridiagonal

    diag = 1.0 / h**2 + v_nodes + 0.5 * ell * (ell + 1) / r**2
    lo = float(diag.min()) - 1.0 / h**2 - 1.0  # Gershgorin floor
    if lo >= 0.0:
        return np.empty(0)
    off = np.full(r.size - 1, -0.5 / h**2)
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=(lo, 0.0))


def _lowest_eigenvalue(spec: PotentialSpec, grid: RadialGrid) -> float:
    from scipy.linalg import eigvalsh_tridiagonal

    r, h = _interior(grid)
    diag = 1.0 / h**2 + _discrete_potential(spec, r, h)
    off = np.full(r.size - 1, -0.5 / h**2)
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])


def ground_state_energy(spec: PotentialSpec, grid: RadialGrid | None = None) -> float:
    """Lowest eigenvalue of -1/2 Laplacian + V, clamped at the continuum
    edge 0.

    Solved in the s-wave radial reduction on `grid` and once more on the
    doubled grid; the h^2 Richardson combination is returned.  Raises
    AccuracyError when the two grids disagree beyond REFINE_TOL
    (relative to max(1, |E|)).
    """
    if grid is None:
        grid = default_eigen_grid(spec)
    coarse = _lowest_eigenvalue(spec, grid)
    fine_grid = uniform_radial_grid(2 * grid.n_nodes, grid.r_max)
    fine = _lowest_eigenvalue(spec, fine_grid)
    if abs(fine - coarse) > REFINE_TOL * max(1.0, abs(fine)):
        raise AccuracyError(
            f"grid refinement moved E0 from {coarse!r} to {fine!r}; "
            "discretization too coarse"
        )
    return min(0.0, fine + (fine - coarse) / 3.0)


def negative_sum(spec: PotentialSpec, grid: RadialGrid | None = None) -> SpectrumResult:
    """All negative eigenvalues of -1/2 Laplacian + V with their
    (2 ell + 1) angular degeneracies, summed over channels until a channel
    is empty or contributes < ELL_CONVERGED relatively."""
    if grid is None:
        grid = default_eigen_grid(spec)
    r, h = _interior(grid)
    v_nodes = _discrete_potential(spec, r, h)
    channels = []
    total = 0.0
    ell = 0
    while True:
        vals = _channel_negatives(v_nodes, r, h, ell)
        if vals.size == 0:
            break
        contribution = (2 * ell + 1) * float(vals.sum())
        channels.append(np.repeat(vals, 2 * ell + 1))
        total += contribution
        if abs(contribution) < ELL_CONVERGED * abs(total):
            break
        ell += 1
        if ell > ELL_CAP:
            raise AccuracyError(
                f"channel sum not converged by ell = {ELL_CAP}; last "
                f"contribution {contribution!r} against total {total!r}"
            )
    if channels:
        eigenvalues = np.sort(np.concatenate(channels))
    else:
        eigenvalues = np.empty(0)
    return SpectrumResult(
        eigenvalues=eigenvalues,
        neg_sum=float(np.sum(eigenvalues)),
        v_integral=spec.v_integral(),
        grid_spec=GridDescriptor(n_nodes=grid.n_nodes, r_max=grid.r_max, ell_max=ell),
    )


@dataclass(frozen=True)
class StabilityBound:
    """Pieces of the nearest-nucleus lower bound at coupling strength
    1 + 2 max z: total = -C_LT q int|V|_-^(5/2) - N_e strength / radius."""

    strength: float
    radius: float
    v_integral: float
    n_electrons: int
    total: float
    per_electron: float


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
    (an explicit strength is then required).
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    if not c_lt > 0:
        raise DomainError("c_lt must be > 0")
    if n_electrons < 1:
        raise DomainError("n_electrons must be >= 1")
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
    return StabilityBound(
        strength=coupling,
        radius=r_cut,
        v_integral=v_int,
        n_electrons=n_electrons,
        total=total,
        per_electron=total / n_electrons,
    )
