"""Tests for the occupation function, its integrals, and the frame check."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from chargelab import trialstate
from chargelab.correlation import HOLDS_TOL
from chargelab.errors import ConsistencyError, DomainError, PreconditionError
from chargelab.foldy import foldy_j
from chargelab.trialstate import (
    XI_FUNCTIONS,
    _momentum_constant,
    CoherentFrame,
    CondensateSpec,
    berezin_lieb_check,
    berezin_lieb_ensemble,
    condensate_from_minimizer,
    occupation_f,
    pointwise_pair_energy,
    random_tight_frame,
    trace_gamma,
    upper_bound_energy,
)
from chargelab.variational import (
    GAUSSIAN_OPTIMAL_SCALE,
    gaussian_profile,
    minimize,
    rescale,
)
from chargelab.numerics import seed_words, trials_per_block, uniform_radial_grid

# direct evaluation of ((1+8pi)/sqrt(1+16pi) - 1)/2, checked in extended
# precision before the build
F_AT_RHO1_P1 = 1.32491418907452476


@pytest.fixture(scope="module")
def grid800():
    return uniform_radial_grid(800, 25.0)


@pytest.fixture(scope="module")
def minimizer(grid800):
    res = minimize(rescale(gaussian_profile(grid800), GAUSSIAN_OPTIMAL_SCALE))
    assert res.converged
    return res


class TestOccupationF:
    def test_reference_point(self):
        assert occupation_f(1.0, 1.0) == pytest.approx(F_AT_RHO1_P1, rel=1e-14)

    def test_zero_density_vanishes(self):
        for p in (1e-3, 1.0, 50.0):
            assert occupation_f(0.0, p) == 0.0

    def test_large_p_decay(self):
        # f -> 16 pi^2 rho^2 / p^8; the subleading correction is O(p^-4)
        lead = 16.0 * math.pi**2
        assert occupation_f(1.0, 10.0) * 10.0**8 / lead == pytest.approx(
            0.9949970281995246, rel=1e-12
        )
        assert occupation_f(1.0, 30.0) * 30.0**8 / lead == pytest.approx(
            0.9999379474588894, rel=1e-12
        )

    def test_small_p_growth(self):
        # f ~ sqrt(pi rho) / p^2
        for rho in (0.3, 1.0, 7.0):
            got = occupation_f(rho, 1e-4) * 1e-8
            assert got == pytest.approx(math.sqrt(math.pi * rho), rel=1e-6)

    def test_strictly_decreasing_in_p(self):
        p = np.logspace(-2, 2, 81)
        f = occupation_f(1.7, p)
        assert np.all(np.diff(f) < 0)
        assert np.all(f >= 0)

    def test_vectorized_matches_scalar(self):
        p = np.array([0.5, 1.0, 2.0])
        f = occupation_f(2.0, p)
        for pk, fk in zip(p, f):
            assert occupation_f(2.0, float(pk)) == fk

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            occupation_f(-1.0, 1.0)
        with pytest.raises(DomainError):
            occupation_f(1.0, 0.0)
        with pytest.raises(DomainError):
            occupation_f(1.0, np.array([1.0, -2.0]))


class TestPointwisePairEnergy:
    def test_zero_density(self):
        assert pointwise_pair_energy(0.0) == 0.0

    def test_matches_closed_form_over_densities(self):
        j = foldy_j()
        for rho in (1e-2, 1.0, 1e2, 1e4):
            value = pointwise_pair_energy(rho, 1e-9)
            assert value == pytest.approx(-j * rho**1.25, rel=1e-6)

    def test_density_scaling(self):
        ratio = pointwise_pair_energy(16.0) / pointwise_pair_energy(1.0)
        assert ratio == pytest.approx(32.0, rel=1e-9)

    def test_integrand_identity_with_occupation(self):
        # the quadrature uses the collapsed Bogolubov-floor form; confirm
        # it agrees with the literal f-based bracket where both are stable
        rho = 1.3
        for p in (0.5, 1.0, 2.0, 4.0):
            t = 0.5 * p * p
            b = 4.0 * math.pi * rho / (p * p)
            f = occupation_f(rho, p)
            bracket = (t + b) * f - b * math.sqrt(f * (f + 1.0))
            floor = -0.5 * (t + b - math.sqrt(t * t + 2.0 * t * b))
            assert bracket == pytest.approx(floor, rel=1e-12)

    def test_consistency_guard_fires(self, monkeypatch):
        import chargelab.trialstate as ts

        monkeypatch.setattr(
            ts, "simplified_energy_quadrature", lambda nu, ell, tol: -0.5
        )
        with pytest.raises(ConsistencyError):
            ts.pointwise_pair_energy(1.0, 1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            pointwise_pair_energy(-1.0)
        with pytest.raises(DomainError):
            pointwise_pair_energy(1.0, tol=0.0)


class TestCondensateSpec:
    def test_density_formula(self, grid800):
        phi = gaussian_profile(grid800)
        spec = CondensateSpec(lambda0_sq=3.0, phi0=phi)
        assert np.allclose(spec.density(), 6.0 * phi.values**2)

    def test_rejects_negative_amplitude(self, grid800):
        with pytest.raises(DomainError):
            CondensateSpec(lambda0_sq=-1.0, phi0=gaussian_profile(grid800))

    def test_from_minimizer_scaling(self, minimizer):
        spec = condensate_from_minimizer(1000, minimizer.profile)
        assert spec.lambda0_sq == 500.0
        assert spec.phi0.norm_sq == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(PreconditionError):
            condensate_from_minimizer(0, minimizer.profile)


class TestTraceGamma:
    def test_zero_amplitude(self, grid800):
        spec = CondensateSpec(lambda0_sq=0.0, phi0=gaussian_profile(grid800))
        assert trace_gamma(spec) == 0.0

    def test_density_scaling(self, grid800):
        # rho -> 16 rho rescales every p-integral by 16^(3/4) = 8
        phi = gaussian_profile(grid800)
        one = trace_gamma(CondensateSpec(lambda0_sq=1.0, phi0=phi))
        sixteen = trace_gamma(CondensateSpec(lambda0_sq=16.0, phi0=phi))
        assert sixteen / one == pytest.approx(8.0, rel=1e-10)

    def test_against_single_quadrature_oracle(self, grid800):
        # the p-integral at density rho equals rho^(3/4) times its value
        # at rho = 1, so an independent scipy quadrature of the latter
        # plus the radial rho^(3/4) sum must reproduce the iterated form
        phi = gaussian_profile(grid800)
        spec = CondensateSpec(lambda0_sq=2.0, phi0=phi)
        inner_one, err = quad(
            lambda p: p * p * occupation_f(1.0, p), 0.0, np.inf, limit=200
        )
        assert err < 1e-7
        radial = float(spec.phi0.grid.weights @ spec.density() ** 0.75)
        oracle = inner_one * radial / (2.0 * math.pi**2)
        assert trace_gamma(spec) == pytest.approx(oracle, rel=1e-6)

    def test_particle_number_exponent(self, minimizer):
        ns = np.array([1e3, 1e4, 1e5, 1e6])
        values = np.array(
            [
                trace_gamma(condensate_from_minimizer(int(n), minimizer.profile))
                for n in ns
            ]
        )
        slope = np.polyfit(np.log(ns), np.log(values), 1)[0]
        assert slope == pytest.approx(0.6, abs=0.01)
        # exact N^(3/5) covariance of the construction, not just the fit
        ratios = values / ns**0.6
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-10

    def test_momentum_constant_against_quadrature(self):
        # q^2 f(q) in the conjugate form 1 / (2 D (N + D)) times q^2, with
        # N = q^4 + 1 and D = q^2 sqrt(q^4 + 2), integrated by scipy
        def integrand(q):
            q2 = q * q
            low = q2 * math.sqrt(q2 * q2 + 2.0)
            return 0.5 * q2 / (low * (q2 * q2 + 1.0 + low))

        head, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        tail, _ = quad(integrand, 1.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert _momentum_constant() == pytest.approx(head + tail, rel=1e-12, abs=0)
        assert _momentum_constant() is _momentum_constant()

    def test_momentum_constant_guard_fires(self, monkeypatch):
        import chargelab.trialstate as ts

        gamma = math.gamma
        monkeypatch.setattr(ts.math, "gamma", lambda x: 1.001 * gamma(x))
        ts._momentum_constant.cache_clear()
        try:
            with pytest.raises(ConsistencyError):
                ts._momentum_constant()
        finally:
            ts._momentum_constant.cache_clear()


class TestUpperBoundEnergy:
    def test_identity_at_one(self, minimizer):
        assert upper_bound_energy(1, minimizer.profile) == pytest.approx(
            minimizer.energy, rel=1e-12
        )

    def test_power_of_two(self, minimizer):
        # 32^(7/5) = 128
        assert upper_bound_energy(32, minimizer.profile) == pytest.approx(
            128.0 * minimizer.energy, rel=1e-12
        )

    def test_large_n_tracks_e_star(self, minimizer):
        value = upper_bound_energy(10**5, minimizer.profile)
        assert value == pytest.approx(1e7 * minimizer.energy, rel=1e-8)

    def test_holds_for_any_normalized_profile(self, grid800):
        # the scaling identity is structural, not specific to the minimizer
        phi = rescale(gaussian_profile(grid800), 0.37)
        e = upper_bound_energy(17, phi)
        assert math.isfinite(e)

    def test_rejects_bad_input(self, grid800, minimizer):
        with pytest.raises(PreconditionError):
            upper_bound_energy(0, minimizer.profile)
        unnormalized = rescale(gaussian_profile(grid800), 1.1)
        unnormalized = type(unnormalized)(
            grid=unnormalized.grid, values=2.0 * unnormalized.values
        )
        with pytest.raises(PreconditionError):
            upper_bound_energy(4, unnormalized)


class TestCoherentFrame:
    def test_random_frames_are_tight(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            frame = random_tight_frame(rng, 8, 24)
            assert frame.frame_residual() <= 1e-10
            # trace of the frame identity: weights sum to the dimension
            assert frame.weights.sum() == pytest.approx(8.0, rel=1e-12)

    def test_minimal_frame_is_orthonormal_basis(self):
        # m = d forces the rows into an orthonormal set with unit weights
        rng = np.random.default_rng(5)
        frame = random_tight_frame(rng, 4, 4)
        gram = frame.vectors @ frame.vectors.T
        assert np.allclose(gram, np.eye(4), atol=1e-10)
        assert np.allclose(frame.weights, 1.0, atol=1e-10)

    def test_rejects_invalid_frames(self):
        rng = np.random.default_rng(3)
        frame = random_tight_frame(rng, 6, 12)
        with pytest.raises(DomainError):
            CoherentFrame(6, frame.vectors, 2.0 * frame.weights)
        with pytest.raises(DomainError):
            CoherentFrame(6, 1.1 * frame.vectors, frame.weights)
        with pytest.raises(DomainError):
            CoherentFrame(1, np.ones((2, 1)), np.ones(2))
        with pytest.raises(DomainError):
            CoherentFrame(6, frame.vectors[:4], frame.weights[:4])
        with pytest.raises(DomainError):
            random_tight_frame(rng, 8, 5)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(202)
    frame = random_tight_frame(rng, 8, 24)
    raw = rng.standard_normal((8, 8))
    y_psd = raw @ raw.T
    f_vals = rng.uniform(0.0, 5.0, 24)
    return frame, f_vals, y_psd


class TestBerezinLieb:
    def test_identity_xi_is_equality(self, setup):
        frame, f_vals, y_psd = setup
        rep = berezin_lieb_check(frame, f_vals, y_psd, "identity")
        assert abs(rep.slack) <= 1e-12 * max(1.0, abs(rep.lhs))
        assert rep.holds

    def test_constant_f_is_equality(self, setup):
        frame, _, y_psd = setup
        for name in XI_FUNCTIONS:
            rep = berezin_lieb_check(frame, np.full(24, 2.5), y_psd, name)
            assert abs(rep.slack) <= 1e-12 * max(1.0, abs(rep.lhs))

    def test_concave_xi_gives_positive_slack(self, setup):
        frame, f_vals, y_psd = setup
        for name in ("sqrt", "sqrt-pairing", "log1p"):
            rep = berezin_lieb_check(frame, f_vals, y_psd, name)
            assert rep.holds
            assert rep.slack > 1e-6

    def test_random_ensembles_have_no_violations(self):
        for name in XI_FUNCTIONS:
            rows = berezin_lieb_ensemble(name, 200, 20260825)
            assert len(rows) == 200
            assert all(slack >= -HOLDS_TOL for _, _, _, slack in rows)

    def test_ensemble_reproducibility(self):
        first = berezin_lieb_ensemble("sqrt", 50, 99)
        second = berezin_lieb_ensemble("sqrt", 50, 99)
        assert first == second

    def test_rejects_bad_input(self, setup):
        frame, f_vals, y_psd = setup
        with pytest.raises(PreconditionError):
            berezin_lieb_check(frame, f_vals, y_psd, "cube")
        with pytest.raises(PreconditionError):
            berezin_lieb_check(frame, f_vals[:5], y_psd, "sqrt")
        with pytest.raises(PreconditionError):
            berezin_lieb_check(frame, -f_vals, y_psd, "sqrt")
        with pytest.raises(PreconditionError):
            berezin_lieb_check(frame, f_vals, y_psd - 50.0 * np.eye(8), "sqrt")
        rng = np.random.default_rng(0)
        with pytest.raises(PreconditionError):
            berezin_lieb_check(frame, f_vals, rng.standard_normal((8, 8)), "sqrt")


def _replay(xi, seed, dimension, count):
    """One ensemble trial through the public route, from its trial seed."""
    rng = np.random.default_rng(seed)
    frame = trialstate.random_tight_frame(rng, dimension, count)
    raw = rng.standard_normal((dimension, dimension))
    y_psd = raw @ raw.T
    f_draw = rng.uniform(0.0, 5.0, size=count)
    report = berezin_lieb_check(frame, f_draw, y_psd, xi)
    return seed, report.lhs, report.rhs, report.slack


def _first_draws(seeds, dimension, count):
    """Per trial seed: the smallest vector norm of its first frame draw and
    that draw's eigenvalue ratio lambda_min / lambda_max."""
    norms, ratios = [], []
    for seed in seeds:
        draws = np.random.default_rng(seed).standard_normal((count, dimension))
        lengths = np.linalg.norm(draws, axis=1)
        units = draws / lengths[:, None]
        eigenvalues = np.linalg.eigvalsh(units.T @ units)
        norms.append(lengths.min())
        ratios.append(eigenvalues[0] / eigenvalues[-1])
    return np.array(norms), np.array(ratios)


class TestBatchedEnsembles:
    """Every ensemble row equals replaying its trial seed through
    random_tight_frame and berezin_lieb_check, bit for bit."""

    @staticmethod
    def replayed(xi, trials, seed, dimension=8, count=24):
        rows = berezin_lieb_ensemble(xi, trials, seed, dimension, count)
        assert [r[0] for r in rows] == seed_words(seed, trials)
        expected = [_replay(xi, r[0], dimension, count) for r in rows]
        assert rows == expected
        assert repr(rows) == repr(expected)  # signed zeros as well

    @pytest.mark.parametrize("xi", sorted(XI_FUNCTIONS))
    def test_rows_equal_public_route(self, xi):
        self.replayed(xi, 150, 8675309)

    @pytest.mark.parametrize("xi", sorted(XI_FUNCTIONS))
    def test_single_trial(self, xi):
        self.replayed(xi, 1, 5)

    def test_across_block_boundaries(self):
        assert trials_per_block(1024, 8) == 8
        self.replayed("sqrt", 40, 271828, count=1024)

    @pytest.mark.parametrize("dimension", [2, 3, 4])
    def test_minimal_frames(self, dimension):
        self.replayed("sqrt-pairing", 30, 161803, dimension=dimension, count=dimension)

    @pytest.mark.parametrize("dimension", [3, 4, 6, 8])
    def test_square_frames_are_redrawn_to_tolerance(self, dimension):
        # square frames can pass CONDITION_FLOOR and still miss FRAME_TOL;
        # such a draw is redrawn, so every master seed runs and replays
        for seed in range(20):
            self.replayed("sqrt", 30, seed, dimension=dimension, count=dimension)

    def test_a_frame_beyond_tolerance_fails_both_routes(self, monkeypatch):
        # with FRAME_TOL below REDRAW_RESIDUAL, a kept square frame of
        # dimension 8 can miss it; the block raises the error of its worst
        # trial's replay
        monkeypatch.setattr(trialstate, "FRAME_TOL", 1e-12)
        with pytest.raises(DomainError, match="tight-frame residual") as batch:
            berezin_lieb_ensemble("sqrt-pairing", 30, 161803, dimension=8, count=8)
        errors = []
        for seed in seed_words(161803, 30):
            try:
                _replay("sqrt-pairing", seed, 8, 8)
            except DomainError as exc:
                errors.append(str(exc))
        assert str(batch.value) in errors

    @pytest.mark.parametrize("floor", ["NORM_FLOOR", "CONDITION_FLOOR"])
    def test_redrawn_frames_are_replayed(self, monkeypatch, floor):
        # raise the floor to just above one trial's first draw, so that
        # trial alone redraws its frame and takes the per-trial route
        seeds = seed_words(1905, 60)
        first = _first_draws(seeds, 4, 6)[floor == "CONDITION_FLOOR"]
        low, second = np.sort(first)[:2]
        monkeypatch.setattr(trialstate, floor, 0.5 * (low + second))
        calls = []
        public = trialstate.random_tight_frame

        def counted(rng, dimension, count):
            calls.append(dimension)
            return public(rng, dimension, count)

        monkeypatch.setattr(trialstate, "random_tight_frame", counted)
        self.replayed("sqrt", 60, 1905, dimension=4, count=6)
        # one call from the ensemble's replay, then one per replayed row
        assert len(calls) == 1 + 60

    def test_block_path_checks_the_frames(self, monkeypatch):
        def per_trial(rng, dimension, count):
            raise AssertionError("no frame is redrawn, so no trial takes this route")

        monkeypatch.setattr(trialstate, "random_tight_frame", per_trial)
        berezin_lieb_ensemble("sqrt", 20, 3)
        monkeypatch.setattr(trialstate, "FRAME_TOL", 0.0)
        with pytest.raises(DomainError, match="tight-frame residual"):
            berezin_lieb_ensemble("sqrt", 20, 3)
        monkeypatch.setattr(trialstate, "random_tight_frame", random_tight_frame)
        with pytest.raises(DomainError, match="tight-frame residual"):
            random_tight_frame(np.random.default_rng(3), 8, 24)

    def test_arguments_are_checked_before_drawing(self):
        with pytest.raises(DomainError, match="dimension"):
            berezin_lieb_ensemble("sqrt", 1, 0, dimension=1, count=4)
        with pytest.raises(DomainError, match="count"):
            berezin_lieb_ensemble("sqrt", 1, 0, dimension=4, count=3)
