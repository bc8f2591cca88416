"""J routes and the simplified local energy quadrature against frozen oracles."""
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
    assert abs(j_from_integral(1e-10) - j_closed_form()) <= 1e-8


def test_j_integrand_shape():
    assert j_integrand(0.0) == 1.0
    # tail behaves as 1/(2 x^4): frozen values of integrand * 2 x^4
    assert abs(j_integrand(10.0) * 2.0 * 10.0**4 - 0.9999000125) < 1e-9
    assert abs(j_integrand(100.0) * 2.0 * 100.0**4 - 0.99999999) < 1e-8


def test_foldy_j_cached_with_provenance():
    jc = foldy_j()
    assert jc is foldy_j()
    assert abs(jc.value - J_FROZEN) < 1e-14
    assert jc.cross_check_diff <= 1e-8
    assert jc.digits >= 12
    assert "quadrature" in jc.route


def test_simplified_identity_and_scaling():
    j = foldy_j().value
    quad = simplified_energy_quadrature(1.0, 1.0, tol=1e-10)
    assert abs(quad + j) < 1e-8 * j
    # E(lam^4 nu, ell) = lam^5 E(nu, ell), the nu^(5/4) law
    for lam in (2.0, 3.0):
        for nu, ell in ((1.0, 1.0), (3.0, 0.7)):
            left = simplified_energy_quadrature(lam**4 * nu, ell)
            right = lam**5 * simplified_energy_quadrature(nu, ell)
            assert abs(left - right) < 1e-9 * abs(right)
    assert simplified_energy_quadrature(0.0, 2.0) == 0.0
