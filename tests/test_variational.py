"""Tests for the radial functional, rescaling, and the projected descent."""
import numpy as np
import pytest

from chargelab import variational
from chargelab.errors import DomainError, PreconditionError
from chargelab.numerics import uniform_radial_grid
from chargelab.variational import (
    GAUSSIAN_OPTIMAL_SCALE,
    MinimizationResult,
    RadialProfile,
    default_init,
    default_minimum,
    functional_energy,
    gaussian_profile,
    minimize,
    rescale,
)

# closed-form values for the unit Gaussian pi^(-3/4) exp(-r^2/2)
GAUSS_T = 0.75
GAUSS_V = 0.26758022277874526  # J * pi^(-3/8) * (4/5)^(3/2)
GAUSS_E_OPT = -0.050025154374457501  # energy at the optimal dilation
LAMBDA_STAR = 0.200050302423  # (3 V / (8 T))^(4/5)

# continuum minimum from an independent Euler-Lagrange shooting solution
E_STAR_CONTINUUM = -0.050341175674


@pytest.fixture(scope="module")
def grid800():
    return uniform_radial_grid(800, 25.0)


@pytest.fixture(scope="module")
def converged(grid800):
    return minimize(rescale(gaussian_profile(grid800), GAUSSIAN_OPTIMAL_SCALE))


class TestRadialProfile:
    def test_validation(self, grid800):
        with pytest.raises(PreconditionError):
            RadialProfile(grid=grid800, values=np.ones(7))
        bad = np.ones(grid800.n_nodes)
        bad[3] = -0.1
        with pytest.raises(PreconditionError):
            RadialProfile(grid=grid800, values=bad)

    def test_normalization(self, grid800):
        p = RadialProfile(grid=grid800, values=np.exp(-grid800.nodes))
        q = p.normalized()
        assert q.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_is_normalized(self, grid800):
        assert gaussian_profile(grid800).norm_sq == pytest.approx(1.0, abs=1e-12)


class TestFunctionalEnergy:
    def test_gaussian_closed_form(self, grid800):
        energy, kinetic, potential = functional_energy(gaussian_profile(grid800))
        # kinetic carries the h^2 stencil error; potential is superconvergent
        assert kinetic == pytest.approx(GAUSS_T, rel=2e-4)
        assert potential == pytest.approx(GAUSS_V, rel=1e-12)
        assert energy == pytest.approx(kinetic - potential, abs=1e-15)

    def test_wide_profile_energy_is_small(self, grid800):
        # spreading sends both terms to zero (E = lam^2 T - lam^(3/4) V)
        wide = rescale(gaussian_profile(grid800), 1e-3)
        energy, _, _ = functional_energy(wide)
        assert -2e-3 < energy < 0

    def test_rejects_unnormalized(self, grid800):
        p = RadialProfile(
            grid=grid800, values=2.0 * gaussian_profile(grid800).values
        )
        with pytest.raises(PreconditionError):
            functional_energy(p)


class TestRescale:
    def test_identity(self, grid800):
        p = gaussian_profile(grid800)
        assert rescale(p, 1.0) is p

    def test_exact_transform(self, grid800):
        p = gaussian_profile(grid800)
        energy, kinetic, potential = functional_energy(p)
        for lam in (0.5, 2.0):
            q = rescale(p, lam)
            assert q.norm_sq == pytest.approx(p.norm_sq, rel=1e-14)
            e2, t2, v2 = functional_energy(q)
            assert t2 == pytest.approx(lam**2 * kinetic, rel=1e-13)
            assert v2 == pytest.approx(lam**0.75 * potential, rel=1e-13)

    def test_gaussian_optimal_scale(self, grid800):
        assert GAUSSIAN_OPTIMAL_SCALE == pytest.approx(LAMBDA_STAR, rel=1e-9)
        p = gaussian_profile(grid800)
        e_opt = functional_energy(rescale(p, GAUSSIAN_OPTIMAL_SCALE))[0]
        assert e_opt == pytest.approx(GAUSS_E_OPT, rel=1e-4)
        # stationarity: nearby dilations are worse
        for lam in (0.9 * GAUSSIAN_OPTIMAL_SCALE, 1.1 * GAUSSIAN_OPTIMAL_SCALE):
            assert functional_energy(rescale(p, lam))[0] >= e_opt

    def test_invalid_lambda(self, grid800):
        with pytest.raises(DomainError):
            rescale(gaussian_profile(grid800), 0.0)


class TestMinimize:
    def test_beats_gaussian_bound(self, converged):
        assert converged.converged
        assert converged.energy <= -0.0500
        assert converged.energy < GAUSS_E_OPT

    def test_matches_continuum_oracle(self, converged):
        # independent shooting solution of the Euler-Lagrange equation;
        # the 800-node grid carries ~1e-5 relative discretization error
        assert converged.energy == pytest.approx(E_STAR_CONTINUUM, rel=5e-5)

    def test_virial_identity(self, converged):
        assert converged.virial_residual <= 1e-5 * converged.potential
        assert converged.energy == pytest.approx(
            -5.0 / 3.0 * converged.kinetic, rel=1e-4
        )

    def test_energy_decomposition(self, converged):
        assert converged.energy == pytest.approx(
            converged.kinetic - converged.potential, abs=1e-12
        )
        assert converged.kinetic >= 0 and converged.potential >= 0

    def test_grid_refinement_agreement(self, converged):
        res400 = minimize(default_init(400, 25.0))
        assert res400.converged
        rel = abs(res400.energy - converged.energy) / abs(converged.energy)
        assert rel <= 1e-4

    def test_rescale_cannot_improve(self, converged):
        base = converged.energy
        for lam in (0.9, 0.99, 1.01, 1.1):
            e = functional_energy(rescale(converged.profile, lam))[0]
            assert e >= base - 1e-9

    def test_variational_dominance(self, converged, grid800):
        rng = np.random.default_rng(42)
        for _ in range(100):
            raw = rng.random(grid800.n_nodes) * np.exp(
                -grid800.nodes / rng.uniform(1, 10)
            )
            p = RadialProfile(grid=grid800, values=raw).normalized()
            assert functional_energy(p)[0] >= converged.energy - 1e-9

    def test_max_iter_flag(self, grid800, monkeypatch):
        monkeypatch.setattr(variational, "DESCENT_MAX_ITER", 3)
        res = minimize(rescale(gaussian_profile(grid800), GAUSSIAN_OPTIMAL_SCALE))
        assert not res.converged
        assert res.iterations == 3


class TestDefaultMinimum:
    def test_solves_once_per_grid_with_the_bits_of_a_fresh_descent(self, converged):
        cached = default_minimum(800, 25.0)
        assert default_minimum(800, 25.0) is cached
        assert repr(cached.profile.values.tolist()) == repr(converged.profile.values.tolist())
        assert (cached.energy, cached.iterations) == (converged.energy, converged.iterations)

    def test_arrays_are_read_only(self):
        profile = default_minimum(800, 25.0).profile
        for values in (profile.values, profile.grid.nodes, profile.grid.weights):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0


class TestMinimizationResult:
    def test_consistency_guard(self, grid800):
        from chargelab.errors import ConsistencyError

        for kinetic, potential in ((-0.5, 0.2), (0.5, -0.2)):
            with pytest.raises(ConsistencyError):
                MinimizationResult(
                    profile=gaussian_profile(grid800),
                    kinetic=kinetic,
                    potential=potential,
                    iterations=1,
                    converged=True,
                )
        result = MinimizationResult(profile=gaussian_profile(grid800), kinetic=0.5,
                                    potential=0.2, iterations=1, converged=True)
        assert result.energy == 0.5 - 0.2
