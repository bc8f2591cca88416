"""Radial minimization of the functional (1/2)int |grad phi|^2 - J int phi^(5/2)
over normalized nonnegative profiles; its minimum e_star is the constant of
the N^(7/5) law.

The discrete kinetic form uses the staggered cell-midpoint gradient:
T(phi) = (1/2) sum_cells 4 pi r_mid^2 ((phi_{i+1}-phi_i)/h_i)^2 h_i.
Collocated central differences are ruled out here: they annihilate the
alternating (Nyquist) mode, and the convex phi^(5/2) term then drives the
descent into a checkerboard artifact well below the true minimum.  The
staggered form penalizes that mode maximally, keeps second-order accuracy,
and transforms exactly under the grid-in-tandem rescale.  functional_energy
and the descent in `minimize` share one discrete energy to the last bit.
Descent steps are semi-implicit: the stiff kinetic part is inverted via the
tridiagonal SPD system (W + tau K), K = D^T W_mid D, which removes the
h^-2 step-size ceiling of explicit gradient flow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, PreconditionError
from .foldy import foldy_j, j_closed_form
from .numerics import RadialGrid, uniform_radial_grid

__all__ = [
    "RadialProfile",
    "MinimizationResult",
    "gaussian_profile",
    "functional_energy",
    "rescale",
    "default_init",
    "minimize",
    "GAUSSIAN_OPTIMAL_SCALE",
    "DEFAULT_R_MAX",
]

NORM_SLACK = 1e-6  # functional_energy rejects profiles farther than this
# default box: the minimizer decays like exp(-0.37 r), so r_max = 25 keeps
# the tail below 1e-9 while the finer spacing sharpens the kinetic stencil
DEFAULT_R_MAX = 25.0


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Nonnegative node values of a radial profile, units length^(-3/2)."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.nodes.shape:
            raise PreconditionError("values must match the grid nodes")
        if not np.all(np.isfinite(vals)):
            raise PreconditionError("values must be finite")
        if np.any(vals < 0):
            raise PreconditionError("values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def norm_sq(self) -> float:
        return float(self.grid.weights @ self.values**2)

    def normalized(self) -> "RadialProfile":
        n2 = self.norm_sq
        if n2 <= 0:
            raise DomainError("cannot normalize the zero profile")
        return RadialProfile(grid=self.grid, values=self.values / np.sqrt(n2))


@dataclass(frozen=True, eq=False)
class MinimizationResult:
    profile: RadialProfile
    energy: float
    kinetic: float
    potential: float
    iterations: int
    converged: bool

    def __post_init__(self):
        if self.kinetic < 0 or self.potential < 0:
            raise ConsistencyError("kinetic and potential terms must be >= 0")
        if abs(self.energy - (self.kinetic - self.potential)) > 1e-12:
            raise ConsistencyError("energy must equal kinetic - potential")

    @property
    def virial_residual(self) -> float:
        return abs(8.0 * self.kinetic - 3.0 * self.potential)


class _Discretization:
    """Staggered gradient data for one grid.

    Cell i spans [r_i, r_{i+1}]; the gradient lives at midpoints with
    weight w_mid = 4 pi r_mid^2 h.  The cell [0, r_1] is dropped: with
    phi'(0) = 0 its kinetic content is O(h^5).  The kinetic quadratic
    form K is tridiagonal with null space spanned by constants only.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        r = grid.nodes
        self.h = np.diff(r)
        r_mid = 0.5 * (r[:-1] + r[1:])
        self.w_mid = 4.0 * np.pi * r_mid**2 * self.h
        # tridiagonal K = D^T W_mid D, D = bidiagonal difference/h
        c = self.w_mid / self.h**2
        self.k_diag = np.concatenate(([c[0]], c[:-1] + c[1:], [c[-1]]))
        self.k_off = -c

    def kinetic(self, values: np.ndarray) -> float:
        slope = np.diff(values) / self.h
        return 0.5 * float(slope**2 @ self.w_mid)

    def apply_k(self, values: np.ndarray) -> np.ndarray:
        out = self.k_diag * values
        out[:-1] += self.k_off * values[1:]
        out[1:] += self.k_off * values[:-1]
        return out


def _energy_terms(disc: _Discretization, values: np.ndarray):
    kinetic = disc.kinetic(values)
    potential = foldy_j().value * float(values**2.5 @ disc.grid.weights)
    return kinetic - potential, kinetic, potential


def gaussian_profile(grid: RadialGrid, width: float = 1.0) -> RadialProfile:
    """Normalized Gaussian pi^(-3/4) w^(-3/2) exp(-r^2/(2 w^2)) on the grid."""
    if not width > 0:
        raise DomainError("width must be positive")
    vals = np.pi**-0.75 * width**-1.5 * np.exp(-(grid.nodes**2) / (2 * width**2))
    return RadialProfile(grid=grid, values=vals).normalized()


def functional_energy(profile: RadialProfile) -> tuple[float, float, float]:
    """(energy, kinetic, potential) of a normalized profile."""
    if abs(profile.norm_sq - 1.0) > NORM_SLACK:
        raise PreconditionError(
            f"profile norm^2 = {profile.norm_sq:.8f} is not 1 within {NORM_SLACK:g}"
        )
    return _energy_terms(_Discretization(profile.grid), profile.values)


def rescale(profile: RadialProfile, lam: float) -> RadialProfile:
    """Dilation phi_lam(r) = lam^(3/2) phi(lam r), with the grid carried
    along (nodes/lam, weights/lam^3) so the norm is preserved exactly and
    the energy transforms as lam^2 T - lam^(3/4) V to machine precision."""
    if not lam > 0:
        raise DomainError("lambda must be positive")
    if lam == 1.0:
        return profile
    g = profile.grid
    new_grid = RadialGrid(
        nodes=g.nodes / lam,
        weights=g.weights / lam**3,
        r_max=g.r_max / lam,
    )
    return RadialProfile(grid=new_grid, values=lam**1.5 * profile.values)


def _implicit_band(disc: _Discretization, tau: float) -> np.ndarray:
    """Upper banded form of the tridiagonal SPD system W + tau K."""
    n = disc.grid.n_nodes
    ab = np.zeros((2, n))
    ab[1] = disc.grid.weights + tau * disc.k_diag
    ab[0, 1:] = tau * disc.k_off
    return ab


def default_init(n_nodes: int = 800, r_max: float = DEFAULT_R_MAX) -> RadialProfile:
    """Gaussian pre-rescaled by its analytic optimal dilation; the default
    start removes the slow dilation mode from the descent."""
    return rescale(
        gaussian_profile(uniform_radial_grid(n_nodes, r_max)), GAUSSIAN_OPTIMAL_SCALE
    )


def minimize(
    init: RadialProfile | None = None,
    step: float = 0.5,
    tol: float = 1e-13,
    max_iter: int = 2000,
) -> MinimizationResult:
    """Projected semi-implicit descent from `init` (default: the Gaussian
    pre-rescaled by its analytic optimal dilation, which removes the slow
    dilation mode).  Steps never increase the energy (backtracking); stops
    when the per-step decrease falls below tol."""
    from scipy.linalg import solveh_banded

    if not (step > 0 and tol > 0):
        raise DomainError("step and tol must be positive")
    if max_iter < 1:
        raise PreconditionError("max_iter must be >= 1")
    if init is None:
        init = default_init()
    phi = init.normalized().values
    disc = _Discretization(init.grid)
    w = disc.grid.weights
    j = foldy_j().value
    energy, kinetic, potential = _energy_terms(disc, phi)
    tau = step
    factor_tau = None
    factor = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        nonlinear = 2.5 * j * phi**1.5
        # Rayleigh multiplier; stepping along grad E - lam W phi keeps the
        # flow tangent to the norm sphere, so renormalization stays a
        # second-order correction and large tau survives backtracking
        lam_hat = float(phi @ (disc.apply_k(phi) - w * nonlinear))
        improved = False
        while tau > 1e-18:
            if factor_tau != tau:
                factor = _implicit_band(disc, tau)
                factor_tau = tau
            rhs = w * (phi + tau * (nonlinear + lam_hat * phi))
            cand = solveh_banded(factor, rhs)
            np.clip(cand, 0.0, None, out=cand)
            cand /= np.sqrt(cand**2 @ w)
            cand_terms = _energy_terms(disc, cand)
            if cand_terms[0] <= energy:
                improved = True
                break
            tau *= 0.5
        if not improved:
            break
        decrease = energy - cand_terms[0]
        phi = cand
        energy, kinetic, potential = cand_terms
        tau = min(tau * 1.3, 1e4)
        if decrease < tol:
            converged = True
            break
    result = RadialProfile(grid=init.grid, values=phi)
    if kinetic > 0 and potential > 0:
        # exact dilation post-step: the in-tandem rescale transforms the
        # discrete terms exactly, so lam_opt zeroes 8T - 3V outright and
        # can only lower the energy
        lam_opt = (3.0 * potential / (8.0 * kinetic)) ** 0.8
        result = rescale(result, lam_opt)
        kinetic *= lam_opt**2
        potential *= lam_opt**0.75
        energy = kinetic - potential
    if converged and energy > 0:
        raise ConsistencyError("converged to a nonnegative energy")
    return MinimizationResult(
        profile=result,
        energy=energy,
        kinetic=kinetic,
        potential=potential,
        iterations=iterations,
        converged=converged,
    )


# optimal dilation of the unit Gaussian: lambda* = (3 V / (8 T))^(4/5) with
# T = 3/4 and V = J pi^(-3/8) (4/5)^(3/2)
GAUSSIAN_OPTIMAL_SCALE = (3.0 * j_closed_form() * np.pi**-0.375 * 0.8**1.5 / 6.0) ** 0.8
