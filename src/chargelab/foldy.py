"""The constant J by two independent routes, and the local cutoff energy.

J appears both as the coefficient of the rho^(5/4) local pair energy and in
the closed form of the asymptotic variational constant.  It is computed once,
cached with provenance, and every downstream module reads it from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DomainError
from .numerics import QuadratureResult, gamma, integrate_1d

__all__ = [
    "CutoffSpec",
    "LocalEnergyResult",
    "JConstant",
    "j_integrand",
    "j_from_integral",
    "j_closed_form",
    "foldy_j",
    "kinetic_symbol",
    "potential_hat",
    "local_energy",
    "local_energy_simplified",
    "simplified_energy_quadrature",
]


@dataclass(frozen=True)
class CutoffSpec:
    """Cutoff parameters: Yukawa window (mu_long, mu_short), kinetic split
    scale s, and box side ell."""

    mu_long: float
    mu_short: float
    s: float
    ell: float

    def __post_init__(self):
        if not (self.mu_short > self.mu_long >= 0):
            raise DomainError("need mu_short > mu_long >= 0")
        if not (self.s > 0 and self.ell > 0):
            raise DomainError("need s > 0 and ell > 0")


@dataclass(frozen=True)
class LocalEnergyResult:
    value: float
    integrand_peak_p: float
    quadrature: QuadratureResult

    def __post_init__(self):
        if self.value > 0:
            raise ConsistencyError("local energy must be <= 0")


@dataclass(frozen=True)
class JConstant:
    """Cached J with provenance: route, quadrature tolerance, digits kept,
    and the measured cross-route disagreement."""

    value: float
    route: str
    tolerance: float
    digits: int
    cross_check_diff: float


def j_integrand(x: float) -> float:
    # Conjugate form of 1 + x^4 - x^2*sqrt(x^4+2); exact identity since
    # (1+x^4)^2 - x^4(x^4+2) = 1.  The raw form loses all digits for x >~ 100.
    x2 = x * x
    return 1.0 / (1.0 + x2 * x2 + x2 * math.sqrt(x2 * x2 + 2.0))


def j_from_integral(tol: float = 1e-10) -> float:
    """J = (2/pi)^(3/4) * int_0^inf (1 + x^4 - x^2 sqrt(x^4+2)) dx."""
    head = integrate_1d(j_integrand, 0.0, 1.0, tol=tol / 2)
    tail = integrate_1d(j_integrand, 1.0, math.inf, tol=tol / 2)
    return (2.0 / math.pi) ** 0.75 * (head.value + tail.value)


def j_closed_form() -> float:
    """J = (4/pi)^(3/4) Gamma(1/2) Gamma(3/4) / (5 Gamma(5/4))."""
    return (4.0 / math.pi) ** 0.75 * gamma(0.5) * gamma(0.75) / (5.0 * gamma(1.25))


@lru_cache(maxsize=1)
def foldy_j(tol: float = 1e-10) -> JConstant:
    """The cached J constant; computed once, then frozen for all callers."""
    closed = j_closed_form()
    integral = j_from_integral(tol)
    diff = abs(closed - integral)
    if diff > 1e-8:
        raise ConsistencyError(
            f"J routes disagree: gamma={closed!r} integral={integral!r} diff={diff:.3e}"
        )
    return JConstant(
        value=closed,
        route="gamma closed form, cross-checked against adaptive quadrature",
        tolerance=tol,
        digits=15,
        cross_check_diff=diff,
    )


def kinetic_symbol(p: float, spec: CutoffSpec) -> float:
    """t(p) = (1/2) ell^3 p^4 / (p^2 + ell/s^2)."""
    if not p >= 0:
        raise DomainError("p must be >= 0")
    p2 = p * p
    return 0.5 * spec.ell**3 * p2 * p2 / (p2 + spec.ell / spec.s**2)


def potential_hat(p: float, spec: CutoffSpec) -> float:
    """Fourier transform of Y_mu_long - Y_mu_short:
    4*pi*(1/(p^2+mu_long^2) - 1/(p^2+mu_short^2))."""
    if not p >= 0:
        raise DomainError("p must be >= 0")
    p2 = p * p
    return 4.0 * math.pi * (
        1.0 / (p2 + spec.mu_long**2) - 1.0 / (p2 + spec.mu_short**2)
    )


def _pair_floor(t: float, b: float) -> float:
    # (t+b) - sqrt(t^2 + 2tb), evaluated as b^2 / ((t+b) + sqrt(t^2+2tb)).
    # Equivalent algebraically; immune to the large-t cancellation.
    if b == 0.0:
        return 0.0
    return b * b / ((t + b) + math.sqrt(t * (t + 2.0 * b)))


def _local_integrals(g, scale: float, tol: float) -> QuadratureResult:
    # Head (0,1) under the declared substitution p = q^2 (handles the
    # integrable small-p structure), tail (1,inf) under the t/(1-t) map
    # with the caller's natural p-scale.
    head = integrate_1d(lambda q: 2.0 * q * g(q * q), 0.0, 1.0, tol=tol / 2)
    tail = integrate_1d(g, 1.0, math.inf, tol=tol / 2, scale=scale)
    return QuadratureResult(
        value=head.value + tail.value,
        error_estimate=head.error_estimate + tail.error_estimate,
        evaluations=head.evaluations + tail.evaluations,
    )


def local_energy(nu: float, spec: CutoffSpec, tol: float = 1e-10) -> LocalEnergyResult:
    """-(1/(2(2pi)^3)) * 4pi * int_0^inf p^2 [ (t + nu*Vhat) -
    sqrt(t^2 + 2 t nu Vhat) ] dp for the cutoff symbols."""
    if not nu >= 0:
        raise DomainError("nu must be >= 0")
    if nu == 0.0:
        return LocalEnergyResult(
            value=0.0,
            integrand_peak_p=0.0,
            quadrature=QuadratureResult(value=0.0, error_estimate=0.0, evaluations=1),
        )

    def g(p: float) -> float:
        return p * p * _pair_floor(kinetic_symbol(p, spec), nu * potential_hat(p, spec))

    scale = max(1.0, (8.0 * math.pi * nu / spec.ell**3) ** 0.25)
    quad = _local_integrals(g, scale, tol)
    p_scan = scale * np.logspace(-3, 3, 301)
    peak = float(p_scan[int(np.argmax([g(p) for p in p_scan]))])
    return LocalEnergyResult(
        value=-quad.value / (4.0 * math.pi**2),
        integrand_peak_p=peak,
        quadrature=quad,
    )


def simplified_energy_quadrature(nu: float, ell: float, tol: float = 1e-9) -> float:
    """Quadrature route for the cutoff-free symbols t = ell^3 p^2/2,
    Vhat = 4 pi / p^2."""
    if not (nu >= 0 and ell > 0):
        raise DomainError("need nu >= 0 and ell > 0")
    if nu == 0.0:
        return 0.0
    a_coef = 0.5 * ell**3

    def g(p: float) -> float:
        p2 = p * p
        return p2 * _pair_floor(a_coef * p2, 4.0 * math.pi * nu / p2)

    scale = (8.0 * math.pi * nu / ell**3) ** 0.25
    quad = _local_integrals(g, max(1.0, scale), tol)
    return -quad.value / (4.0 * math.pi**2)


def local_energy_simplified(nu: float, ell: float, tol: float = 1e-9) -> float:
    """Closed form -J nu^(5/4) ell^(-3/4), cross-checked against quadrature.

    Raises ConsistencyError if the two routes disagree beyond 1e-5 relative.
    """
    closed = -foldy_j().value * nu**1.25 * ell**-0.75
    by_quad = simplified_energy_quadrature(nu, ell, tol)
    if closed == 0.0:
        if abs(by_quad) > 1e-12:
            raise ConsistencyError(f"expected 0, quadrature gave {by_quad!r}")
        return 0.0
    rel = abs(by_quad - closed) / abs(closed)
    if rel > 1e-5:
        raise ConsistencyError(
            f"simplified local energy routes disagree: closed={closed!r} "
            f"quad={by_quad!r} rel={rel:.3e}"
        )
    return closed
