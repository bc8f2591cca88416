"""Shared numerical kernels: 1D adaptive quadrature, the Gamma function,
uniform radial grids for 3D radial integrals, and seed derivation.

All downstream 1D integrals funnel through `integrate_1d`; radial integrals
are the dot product of a grid's weights with node values.  Semi-infinite
ranges use one declared substitution, x = a + scale*t/(1-t), so results
are reproducible bit-for-bit for identical inputs.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetExceededError, DomainError, PreconditionError

__all__ = [
    "QuadratureResult",
    "RadialGrid",
    "integrate_1d",
    "gamma",
    "uniform_radial_grid",
    "seed_words",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value, certified error estimate, and evaluation count of one integral."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.error_estimate >= 0:
            raise PreconditionError("error_estimate must be >= 0")
        if self.evaluations < 1:
            raise PreconditionError("evaluations must be >= 1")


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    scale: float = 1.0,
    limit: int = 200,
) -> QuadratureResult:
    """Adaptive integral of f over (a, b); b may be math.inf.

    The tolerance is mixed: the result is accepted when the QUADPACK error
    estimate is below max(tol, tol*|value|).  For b = inf the declared
    substitution x = a + scale*t/(1-t) maps (0,1) -> (a,inf); `scale` moves
    the transformed nodes toward the integrand's natural scale and must be
    chosen deterministically by the caller.
    """
    if not tol > 0:
        raise DomainError("tol must be > 0")
    if not b > a:
        raise DomainError("need b > a")
    count = [0]

    if math.isinf(b):
        if not scale > 0:
            raise DomainError("scale must be > 0")

        def g(t: float) -> float:
            count[0] += 1
            u = 1.0 - t
            return f(a + scale * t / u) * scale / (u * u)

        lo, hi = 0.0, 1.0
    else:

        def g(x: float) -> float:
            count[0] += 1
            return f(x)

        lo, hi = a, b

    from scipy import integrate as _si

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        out = _si.quad(g, lo, hi, epsabs=tol, epsrel=tol, limit=limit, full_output=1)
    value, abserr = out[0], out[1]
    # QUADPACK trouble is signaled by a message element after the infodict.
    if len(out) > 3 and abserr > max(tol, tol * abs(value)):
        raise BudgetExceededError(
            f"quadrature budget exhausted ({out[3].splitlines()[0]}, "
            f"abserr={abserr:.3e})",
            partial_value=value,
            error_estimate=abserr,
        )
    return QuadratureResult(value=value, error_estimate=abserr, evaluations=count[0])


def gamma(x: float) -> float:
    """Gamma function on the positive half line."""
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Quadrature grid for 4*pi*int r^2 f(r) dr on (0, r_max).

    nodes are strictly increasing and positive; weights already include the
    4*pi*r^2 measure factor, so a radial integral is weights @ values.
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise PreconditionError("nodes and weights must be 1D of equal length")
        if not np.all(nodes > 0):
            raise PreconditionError("nodes must be positive")
        if not np.all(np.diff(nodes) > 0):
            raise PreconditionError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise PreconditionError("weights must be positive")

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


def uniform_radial_grid(n_nodes: int = 800, r_max: float = 40.0) -> RadialGrid:
    """Equally spaced grid h, 2h, ..., r_max with trapezoid weights 4*pi*r^2*h
    (half weight at r_max; the r=0 endpoint carries zero weight).

    For smooth even profiles decayed at r_max the rule is spectrally
    accurate (all odd derivatives of r^2*f vanish at both endpoints), which
    suits gradient-based functionals far better than panel rules whose
    clustered nodes inflate finite-difference error.
    """
    if n_nodes < 8:
        raise PreconditionError("need at least 8 nodes")
    if not r_max > 0:
        raise DomainError("r_max must be positive")
    h = r_max / n_nodes
    r = h * np.arange(1, n_nodes + 1)
    w = 4.0 * math.pi * r * r * h
    w[-1] *= 0.5
    return RadialGrid(nodes=r, weights=w, r_max=r_max)


def seed_words(seed: int, count: int) -> list[int]:
    """The first `count` uint64 words of SeedSequence(seed).

    Every seeded run derives its per-trial or per-check seeds here, so word
    i depends only on the seed and i.
    """
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64).tolist()

