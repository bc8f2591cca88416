"""The constant J by two independent routes, and the quadrature route for the
simplified local energy -J nu^(5/4) ell^(-3/4).

J appears both as the coefficient of the rho^(5/4) local pair energy and in
the closed form of the asymptotic variational constant.  `foldy_j` computes
it once, by the closed form checked against quadrature, and caches the
float; every downstream module reads it from there.

The local energy sums `bogolubov.mode_floor`, the one-mode Bogolubov floor,
over momenta.  `j_integrand` is that floor after a change of variable,
written out on its own so that J's integral route shares no code with the
quadrature that the identity check holds against -J.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .bogolubov import mode_floor
from .errors import ConsistencyError, DomainError
from .numerics import integrate_1d

__all__ = [
    "j_integrand",
    "j_from_integral",
    "j_closed_form",
    "foldy_j",
    "simplified_energy_quadrature",
]

J_TOL = 1e-10  # quadrature tolerance of j_from_integral
QUAD_TOL = 1e-9  # quadrature tolerance of simplified_energy_quadrature


def j_integrand(x: float) -> float:
    # Conjugate form of 1 + x^4 - x^2*sqrt(x^4+2); exact identity since
    # (1+x^4)^2 - x^4(x^4+2) = 1.  The raw form loses all digits for x >~ 100.
    x2 = x * x
    return 1.0 / (1.0 + x2 * x2 + x2 * math.sqrt(x2 * x2 + 2.0))


def j_from_integral() -> float:
    """J = (2/pi)^(3/4) * int_0^inf (1 + x^4 - x^2 sqrt(x^4+2)) dx, to J_TOL."""
    head = integrate_1d(j_integrand, 0.0, 1.0, tol=J_TOL / 2)
    tail = integrate_1d(j_integrand, 1.0, math.inf, tol=J_TOL / 2)
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


def simplified_energy_quadrature(nu: float, ell: float) -> float:
    """Quadrature route for the cutoff-free symbols t = ell^3 p^2/2,
    Vhat = 4 pi / p^2: -(4 pi^2)^-1 int_0^inf p^2 mode_floor(t, nu Vhat) dp,
    to QUAD_TOL."""
    if not (nu >= 0 and ell > 0):
        raise DomainError("need nu >= 0 and ell > 0")
    if nu == 0.0:
        return 0.0
    a_coef = 0.5 * ell**3

    def integrand(p: float) -> float:
        p2 = p * p
        return p2 * mode_floor(a_coef * p2, 4.0 * math.pi * nu / p2)

    # Head (0,1) under the declared substitution p = q^2 (handles the
    # integrable small-p structure), tail (1,inf) under the t/(1-t) map
    # with the natural p-scale.
    scale = max(1.0, (8.0 * math.pi * nu / ell**3) ** 0.25)
    head = integrate_1d(lambda q: 2.0 * q * integrand(q * q), 0.0, 1.0, tol=QUAD_TOL / 2)
    tail = integrate_1d(integrand, 1.0, math.inf, tol=QUAD_TOL / 2, scale=scale)
    return -(head.value + tail.value) / (4.0 * math.pi**2)
