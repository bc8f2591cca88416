"""The constant J by two independent routes, and the quadrature route for the
simplified local energy -J nu^(5/4) ell^(-3/4).

J appears both as the coefficient of the rho^(5/4) local pair energy and in
the closed form of the asymptotic variational constant.  `foldy_j` computes
it once, by the closed form checked against quadrature, and caches the
float; every downstream module reads it from there.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import ConsistencyError, DomainError
from .numerics import integrate_1d

__all__ = [
    "j_integrand",
    "j_from_integral",
    "j_closed_form",
    "foldy_j",
    "simplified_energy_quadrature",
]


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
    return ((4.0 / math.pi) ** 0.75 * math.gamma(0.5) * math.gamma(0.75)
            / (5.0 * math.gamma(1.25)))


@lru_cache(maxsize=1)
def foldy_j() -> float:
    """J by the gamma closed form, once checked against the quadrature route
    to 1e-8, then cached for all callers."""
    closed = j_closed_form()
    integral = j_from_integral()
    diff = abs(closed - integral)
    if diff > 1e-8:
        raise ConsistencyError(
            f"J routes disagree: gamma={closed!r} integral={integral!r} diff={diff:.3e}"
        )
    return closed


def _pair_floor(t: float, b: float) -> float:
    # (t+b) - sqrt(t^2 + 2tb), evaluated as b^2 / ((t+b) + sqrt(t^2+2tb)).
    # Equivalent algebraically; immune to the large-t cancellation.
    if b == 0.0:
        return 0.0
    return b * b / ((t + b) + math.sqrt(t * (t + 2.0 * b)))


def _local_integrals(g, scale: float, tol: float) -> float:
    # Head (0,1) under the declared substitution p = q^2 (handles the
    # integrable small-p structure), tail (1,inf) under the t/(1-t) map
    # with the caller's natural p-scale.
    head = integrate_1d(lambda q: 2.0 * q * g(q * q), 0.0, 1.0, tol=tol / 2)
    tail = integrate_1d(g, 1.0, math.inf, tol=tol / 2, scale=scale)
    return head.value + tail.value


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
    return -_local_integrals(g, max(1.0, scale), tol) / (4.0 * math.pi**2)
