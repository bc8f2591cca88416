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
h^-2 step-size ceiling of explicit gradient flow.  The system is solved by
`numerics.tridiagonal_ldl`, LAPACK's ?pttrf/?pttrs recurrences in plain
Python, so the descent needs numpy alone.
The descent from `default_init` runs once per process and grid:
`default_minimum` caches its result, with read-only arrays, for every
check that needs the minimizer.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DomainError, PreconditionError
from .foldy import foldy_j, j_closed_form
from .numerics import RadialGrid, tridiagonal_ldl, tridiagonal_ldl_solve, uniform_radial_grid

__all__ = [
    "RadialProfile",
    "MinimizationResult",
    "gaussian_profile",
    "functional_energy",
    "rescale",
    "default_init",
    "minimize",
    "default_minimum",
    "GAUSSIAN_OPTIMAL_SCALE",
]

NORM_SLACK = 1e-6  # functional_energy rejects profiles farther than this
GAUSSIAN_WIDTH = 1.0  # of gaussian_profile, from which default_init starts
# minimize's first step tau, the per-step decrease that stops it, its step cap
DESCENT_STEP, DESCENT_TOL, DESCENT_MAX_ITER = 0.5, 1e-13, 2000


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
    """The minimizing profile with its kinetic and potential terms; the
    energy is their difference, kinetic - potential."""

    profile: RadialProfile
    kinetic: float
    potential: float
    iterations: int
    converged: bool

    def __post_init__(self):
        if self.kinetic < 0 or self.potential < 0:
            raise ConsistencyError("kinetic and potential terms must be >= 0")

    @property
    def energy(self) -> float:
        return self.kinetic - self.potential

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
    potential = foldy_j() * float(values**2.5 @ disc.grid.weights)
    return kinetic - potential, kinetic, potential


def gaussian_profile(grid: RadialGrid) -> RadialProfile:
    """Normalized Gaussian pi^(-3/4) w^(-3/2) exp(-r^2/(2 w^2)) on the grid,
    of width w = GAUSSIAN_WIDTH."""
    width = GAUSSIAN_WIDTH
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


def _implicit_factor(disc: _Discretization, tau: float):
    """LDL^T factor of the tridiagonal SPD system W + tau K."""
    return tridiagonal_ldl(disc.grid.weights + tau * disc.k_diag, tau * disc.k_off)


def default_init(n_nodes: int, r_max: float) -> RadialProfile:
    """Gaussian pre-rescaled by its analytic optimal dilation; the default
    start removes the slow dilation mode from the descent."""
    return rescale(
        gaussian_profile(uniform_radial_grid(n_nodes, r_max)), GAUSSIAN_OPTIMAL_SCALE
    )


def minimize(init: RadialProfile) -> MinimizationResult:
    """Projected semi-implicit descent from `init`.  Steps never increase
    the energy (backtracking); stops when the per-step decrease falls below
    DESCENT_TOL, or after DESCENT_MAX_ITER steps."""
    phi = init.normalized().values
    disc = _Discretization(init.grid)
    w = disc.grid.weights
    j = foldy_j()
    energy, kinetic, potential = _energy_terms(disc, phi)
    tau = DESCENT_STEP
    factor_tau = None
    factor = None
    converged = False
    iterations = 0
    for iterations in range(1, DESCENT_MAX_ITER + 1):
        nonlinear = 2.5 * j * phi**1.5
        # Rayleigh multiplier; stepping along grad E - lam W phi keeps the
        # flow tangent to the norm sphere, so renormalization stays a
        # second-order correction and large tau survives backtracking
        lam_hat = float(phi @ (disc.apply_k(phi) - w * nonlinear))
        improved = False
        while tau > 1e-18:
            if factor_tau != tau:
                factor = _implicit_factor(disc, tau)
                factor_tau = tau
            rhs = w * (phi + tau * (nonlinear + lam_hat * phi))
            cand = tridiagonal_ldl_solve(factor, rhs)
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
        if decrease < DESCENT_TOL:
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
    if converged and kinetic - potential > 0:
        raise ConsistencyError("converged to a nonnegative energy")
    return MinimizationResult(
        profile=result,
        kinetic=kinetic,
        potential=potential,
        iterations=iterations,
        converged=converged,
    )


@lru_cache(maxsize=4)
def default_minimum(nodes: int, r_max: float) -> MinimizationResult:
    """`minimize(default_init(nodes, r_max))`, computed once per process for
    each (nodes, r_max), both passed by position (the cache keys on how they
    are passed): `dyson-minimize` takes its fine solve from here, and the
    trial-state checks the command line's default grid
    (`cli.DEFAULT_NODES`, `cli.DEFAULT_R_MAX`), which is the same solve in
    `verify`.  The arrays are read-only, so no
    caller can change what the next one reads; a test that injects a defect
    upstream of the descent calls `default_minimum.cache_clear()`."""
    result = minimize(default_init(nodes, r_max))
    profile = result.profile
    for values in (profile.values, profile.grid.nodes, profile.grid.weights):
        values.setflags(write=False)
    return result


# optimal dilation of gaussian_profile at GAUSSIAN_WIDTH = 1:
# lambda* = (3 V / (8 T))^(4/5) with T = 3/4 and V = J pi^(-3/8) (4/5)^(3/2)
GAUSSIAN_OPTIMAL_SCALE = (3.0 * j_closed_form() * np.pi**-0.375 * 0.8**1.5 / 6.0) ** 0.8
