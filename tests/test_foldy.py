"""J routes and the simplified local energy quadrature against frozen oracles."""
import pytest

from chargelab import foldy
from chargelab.errors import ConsistencyError
from chargelab.foldy import (
    foldy_j,
    j_closed_form,
    j_from_integral,
    j_integrand,
    simplified_energy_quadrature,
)

# 30-digit mpmath evaluations, frozen before the build.
J_FROZEN = 0.574447353215854


def test_j_closed_form_digits():
    assert abs(j_closed_form() - J_FROZEN) < 1e-14


def test_j_route_agreement():
    assert abs(j_from_integral() - j_closed_form()) <= 1e-8


def test_j_integrand_shape():
    assert j_integrand(0.0) == 1.0
    # tail behaves as 1/(2 x^4): frozen values of integrand * 2 x^4
    assert abs(j_integrand(10.0) * 2.0 * 10.0**4 - 0.9999000125) < 1e-9
    assert abs(j_integrand(100.0) * 2.0 * 100.0**4 - 0.99999999) < 1e-8


def test_foldy_j_cached_with_provenance(monkeypatch):
    j = foldy_j()
    assert j is foldy_j()
    assert abs(j - J_FROZEN) < 1e-14
    # the cached value is the closed form checked against the quadrature
    # route: a quadrature route off by 1e-6 fails the recomputation
    true_integral = foldy.j_from_integral()
    monkeypatch.setattr(foldy, "j_from_integral", lambda: true_integral + 1e-6)
    foldy_j.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="J routes disagree"):
            foldy_j()
    finally:
        foldy_j.cache_clear()


def test_simplified_identity_and_scaling(monkeypatch):
    j = foldy_j()
    with monkeypatch.context() as patch:
        patch.setattr(foldy, "QUAD_TOL", 1e-10)
        quad = simplified_energy_quadrature(1.0, 1.0)
    assert abs(quad + j) < 1e-8 * j
    # E(lam^4 nu, ell) = lam^5 E(nu, ell), the nu^(5/4) law
    for lam in (2.0, 3.0):
        for nu, ell in ((1.0, 1.0), (3.0, 0.7)):
            left = simplified_energy_quadrature(lam**4 * nu, ell)
            right = lam**5 * simplified_energy_quadrature(nu, ell)
            assert abs(left - right) < 1e-9 * abs(right)
    assert simplified_energy_quadrature(0.0, 2.0) == 0.0
