"""Tests for the occupation function, its integrals, and the frame check."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from chargelab import cli, numerics, trialstate
from chargelab.correlation import HOLDS_TOL
from chargelab.errors import ConsistencyError, DomainError, PreconditionError, SolverError
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
from chargelab.cli import Columns
from chargelab.numerics import normals, seed_words, trials_per_block, uniform_radial_grid

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
        # the integral is taken in q = p / (8 pi rho)^(1/4), so nothing under-
        # or overflows at extreme densities
        for rho in (1e-200, 1e-100, 1e-2, 1.0, 1e2, 1e4, 1e100, 1e240):
            value = pointwise_pair_energy(rho)
            assert value == pytest.approx(-j * rho**1.25, rel=1e-6)

    def test_density_scaling(self):
        ratio = pointwise_pair_energy(16.0) / pointwise_pair_energy(1.0)
        assert ratio == pytest.approx(32.0, rel=1e-9)

    def test_integrand_identity_with_occupation(self):
        # the quadrature integrates the bracket as t f - b sqrt(f) / (sqrt(f) +
        # sqrt(f+1)); confirm it equals the literal bracket where both are
        # stable, and the Bogolubov floor that f attains
        rho = 1.3
        for p in (0.5, 1.0, 2.0, 4.0):
            t = 0.5 * p * p
            b = 4.0 * math.pi * rho / (p * p)
            f = occupation_f(rho, p)
            bracket = (t + b) * f - b * math.sqrt(f * (f + 1.0))
            stable = t * f - b * math.sqrt(f) / (math.sqrt(f) + math.sqrt(f + 1.0))
            floor = -0.5 * (t + b - math.sqrt(t * t + 2.0 * t * b))
            assert stable == pytest.approx(bracket, rel=1e-12)
            assert bracket == pytest.approx(floor, rel=1e-12)

    def test_consistency_guard_fires(self, monkeypatch):
        # the value is integrated from f itself, so a wrong occupation (which
        # no longer minimizes the bracket) must miss the closed form
        occupation = trialstate.occupation_f
        monkeypatch.setattr(trialstate, "occupation_f",
                            lambda rho, p: 1.5 * occupation(rho, p))
        for rho in (1e-2, 1.0, 1e4):
            with pytest.raises(ConsistencyError, match="pair energy"):
                trialstate.pointwise_pair_energy(rho)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            pointwise_pair_energy(-1.0)

    @pytest.mark.parametrize("rho", [1e300, math.inf, math.nan])
    def test_rejects_densities_without_a_finite_energy(self, rho):
        # -J rho^(5/4) overflows at 1e300; rho**1.25 raised OverflowError there
        with pytest.raises(DomainError, match="rho"):
            pointwise_pair_energy(rho)


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


def _frame_shape(monkeypatch, dimension, count):
    """Sets the shape of the drawn frames for one test."""
    monkeypatch.setattr(trialstate, "FRAME_DIMENSION", dimension)
    monkeypatch.setattr(trialstate, "FRAME_COUNT", count)


class TestCoherentFrame:
    def test_random_frames_are_tight(self):
        for seed in seed_words(11, 25):
            frame = random_tight_frame(seed)
            assert (frame.dimension, frame.count) == (8, 24)
            assert frame.frame_residual() <= 1e-10
            # trace of the frame identity: weights sum to the dimension
            assert frame.weights.sum() == pytest.approx(8.0, rel=1e-12)

    def test_minimal_frame_is_orthonormal_basis(self, monkeypatch):
        # m = d forces the rows into an orthonormal set with unit weights
        _frame_shape(monkeypatch, 4, 4)
        frame = random_tight_frame(5)
        gram = frame.vectors @ frame.vectors.T
        assert np.allclose(gram, np.eye(4), atol=1e-10)
        assert np.allclose(frame.weights, 1.0, atol=1e-10)

    def test_rejects_invalid_frames(self):
        frame = random_tight_frame(3)
        with pytest.raises(DomainError):
            CoherentFrame(8, frame.vectors, 2.0 * frame.weights)
        with pytest.raises(DomainError):
            CoherentFrame(8, 1.1 * frame.vectors, frame.weights)
        with pytest.raises(DomainError):
            CoherentFrame(1, np.ones((2, 1)), np.ones(2))
        with pytest.raises(DomainError):
            CoherentFrame(8, frame.vectors[:4], frame.weights[:4])


@pytest.fixture(scope="module")
def setup():
    frame = random_tight_frame(202)
    rng = np.random.default_rng(202)
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
            columns = berezin_lieb_ensemble(name, 200, 20260825)
            assert all(len(column) == 200 for column in columns.values())
            assert np.all(columns["slack"] >= -HOLDS_TOL)

    def test_ensemble_reproducibility(self):
        first = berezin_lieb_ensemble("sqrt", 50, 99)
        second = berezin_lieb_ensemble("sqrt", 50, 99)
        assert ensemble_rows(first) == ensemble_rows(second)

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


def ensemble_rows(columns):
    """An ensemble's columns as rows, as its CSV table writes them."""
    return list(cli.Columns(*columns.values()))


def _replay(xi, seed):
    """One ensemble trial through the public route, from its trial seed."""
    frame, f_draw, y_psd = trialstate.replay_trial(seed)
    report = berezin_lieb_check(frame, f_draw, y_psd, xi)
    return seed, report.lhs, report.rhs, report.slack


def _frame_draws(seeds):
    """Per trial seed of an 8 x 24 frame: the smallest vector norm of its
    frame draw, which takes 8 * 24 normals from word 2 ceil(8^2 / 2) + 24
    of its stream, and that draw's eigenvalue ratio lambda_min / lambda_max."""
    stack = normals(np.array(seeds, dtype=np.uint64), 64 + 24, 24 * 8)
    norms, ratios = [], []
    for draws in stack.reshape(-1, 24, 8):
        lengths = np.linalg.norm(draws, axis=1)
        units = draws / lengths[:, None]
        eigenvalues = np.linalg.eigvalsh(units.T @ units)
        norms.append(lengths.min())
        ratios.append(eigenvalues[0] / eigenvalues[-1])
    return np.array(norms), np.array(ratios)


class TestBatchedEnsembles:
    """Every ensemble row equals replaying its trial seed through
    replay_trial and berezin_lieb_check, bit for bit."""

    @staticmethod
    def replayed(xi, trials, seed):
        columns = berezin_lieb_ensemble(xi, trials, seed)
        assert tuple(columns) == ("trial_seed", "lhs", "rhs", "slack")
        assert columns["trial_seed"].dtype == np.uint64
        rows = ensemble_rows(columns)
        assert [r[0] for r in rows] == seed_words(seed, trials)
        expected = [_replay(xi, r[0]) for r in rows]
        assert rows == expected
        assert repr(rows) == repr(expected)  # signed zeros as well

    @pytest.mark.parametrize("xi", sorted(XI_FUNCTIONS))
    def test_rows_equal_public_route(self, xi):
        self.replayed(xi, 150, 8675309)

    @pytest.mark.parametrize("xi", sorted(XI_FUNCTIONS))
    def test_single_trial(self, xi):
        self.replayed(xi, 1, 5)

    def test_across_block_boundaries(self, monkeypatch):
        assert trials_per_block(1024, 8) == 8
        _frame_shape(monkeypatch, 8, 1024)
        self.replayed("sqrt", 40, 271828)

    def test_a_block_holds_its_byte_budget(self):
        # the block is sized by every number it holds at its peak, so its
        # traced peak is the budget within fixed costs (measured 1.03 times
        # it), and it keeps at least 96 trials, which ran as fast as 341 in
        # process where 48 ran 19% slower; sized by its frames alone, a
        # block of 341 peaked at 2.8 MB
        block = trials_per_block(trialstate._BLOCK_NUMBERS)
        seeds = np.array(seed_words(1905, block), dtype=np.uint64)
        trialstate._berezin_lieb_block(seeds, np.sqrt)  # the caches a first call fills
        tracemalloc.start()
        try:
            trialstate._berezin_lieb_block(seeds, np.sqrt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block >= 96 and peak <= 1.1 * numerics.BLOCK_BYTES

    @pytest.mark.parametrize("dimension", [2, 3, 4])
    def test_minimal_frames(self, dimension, monkeypatch):
        _frame_shape(monkeypatch, dimension, dimension)
        self.replayed("sqrt-pairing", 30, 161803)

    def test_a_frame_beyond_tolerance_fails_both_routes(self, monkeypatch):
        # with FRAME_TOL between two trials' residuals, the block raises the
        # error of its first trial beyond it, which that trial's replay raises
        seeds = seed_words(161803, 30)
        residuals = [random_tight_frame(seed).frame_residual() for seed in seeds]
        monkeypatch.setattr(trialstate, "FRAME_TOL", float(np.median(residuals)))
        with pytest.raises(SolverError, match="tight-frame residual") as batch:
            berezin_lieb_ensemble("sqrt-pairing", 30, 161803)
        failing = seeds[int(np.argmax(np.array(residuals) > trialstate.FRAME_TOL))]
        assert f"trial seed {failing} " in str(batch.value)
        with pytest.raises(SolverError) as replay:
            _replay("sqrt-pairing", failing)
        assert str(replay.value) == str(batch.value)

    @pytest.mark.parametrize("floor", ["NORM_FLOOR", "CONDITION_FLOOR"])
    def test_a_draw_below_a_floor_fails_naming_its_seed(self, monkeypatch, floor, tmp_path,
                                                         capsys):
        # raise the floor to just above one trial's draw, so that trial alone
        # fails, in the batch, in its replay and in the CLI; the CLI's first
        # ensemble (xi = identity) draws from word 0 of seed_words(1905, 4)
        master = seed_words(1905, 4)[0]
        seeds = seed_words(master, 60)
        draws = _frame_draws(seeds)[floor == "CONDITION_FLOOR"]
        low, second = np.sort(draws)[:2]
        failing = seeds[int(np.argmin(draws))]
        monkeypatch.setattr(trialstate, floor, 0.5 * (low + second))
        message = f"the frame draw of trial seed {failing} has"
        with pytest.raises(SolverError, match=message):
            berezin_lieb_ensemble("identity", 60, master)
        with pytest.raises(SolverError, match=message):
            random_tight_frame(failing)
        for seed in seeds:
            if seed != failing:
                random_tight_frame(seed)
        argv = ["trialstate", "--check", "berezin-lieb", "--trials", "60", "--seed", "1905"]
        assert cli.main([*argv, "--outdir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_a_trial_without_a_frame_fails_both_routes(self, monkeypatch):
        monkeypatch.setattr(trialstate, "NORM_FLOOR", math.inf)
        with pytest.raises(SolverError, match="frame"):
            berezin_lieb_ensemble("sqrt", 3, 1)
        with pytest.raises(SolverError, match="frame"):
            random_tight_frame(1)

    def test_block_path_checks_the_frames(self, monkeypatch):
        def per_trial(trial_seed):
            raise AssertionError("the ensemble draws its frames as a block")

        monkeypatch.setattr(trialstate, "random_tight_frame", per_trial)
        berezin_lieb_ensemble("sqrt", 20, 3)
        # vectors that are not unit reach CoherentFrame's entry checks in
        # both routes; `_tight_frames` has checked each residual
        tight_frames = trialstate._tight_frames

        def stretched_frames(seeds):
            vectors, weights = tight_frames(seeds)
            return 1.1 * vectors, weights

        monkeypatch.setattr(trialstate, "_tight_frames", stretched_frames)
        with pytest.raises(DomainError, match="unit length"):
            berezin_lieb_ensemble("sqrt", 20, 3)
        monkeypatch.setattr(trialstate, "random_tight_frame", random_tight_frame)
        with pytest.raises(DomainError, match="unit length"):
            random_tight_frame(3)

    def test_a_loose_frame_fails_at_the_public_boundary(self, monkeypatch):
        # weights off by a part in 1e6 pass the entry checks; the residual
        # check of CoherentFrame, and so of every berezin_lieb_check, fails
        frame = random_tight_frame(3)
        weights = frame.weights.copy()
        weights[0] *= 1.0 + 1e-6
        with pytest.raises(DomainError, match="tight-frame residual"):
            CoherentFrame(frame.dimension, frame.vectors, weights)
        tight_frames = trialstate._tight_frames
        monkeypatch.setattr(trialstate, "_tight_frames",
                            lambda seeds: (tight_frames(seeds)[0], 2.0 * tight_frames(seeds)[1]))
        with pytest.raises(DomainError, match="tight-frame residual"):
            random_tight_frame(3)
