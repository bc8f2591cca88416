"""Tests for pairwise energies and the correlation-inequality checkers."""
import math
import warnings

import numpy as np
import pytest

from chargelab import correlation
from chargelab.correlation import (
    _BLOCK,
    CHECKERS,
    InequalityReport,
    ParticleConfiguration,
    baxter_check,
    nearest_opposite_distances,
    onsager_check,
    pair_energy,
    random_configuration,
    run_random_ensemble,
    yukawa_positivity_check,
)
from chargelab.errors import DomainError, PreconditionError
from chargelab.numerics import seed_words


def dipole(distance=1.0):
    return ParticleConfiguration(
        positions=[[0, 0, 0], [distance, 0, 0]], charges=[1.0, -1.0]
    )


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


class TestConfiguration:
    def test_shape_validation(self):
        with pytest.raises(PreconditionError):
            ParticleConfiguration(positions=np.zeros((0, 3)), charges=[])
        with pytest.raises(PreconditionError):
            ParticleConfiguration(positions=[[0, 0], [1, 1]], charges=[1, -1])
        with pytest.raises(PreconditionError):
            ParticleConfiguration(positions=[[0, 0, 0]], charges=[1, 2])

    def test_rejects_coincident_points(self):
        with pytest.raises(PreconditionError):
            ParticleConfiguration(
                positions=[[0, 0, 0], [0, 0, 1e-13]], charges=[1, -1]
            )

    def test_rejects_overflowing_distances(self):
        # finite positions whose squared separation overflows, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for positions in ([[0, 0, 0], [2e154, 0, 0]], [[-1e308, 0, 0], [1e308, 0, 0]]):
                with pytest.raises(PreconditionError, match="overflow"):
                    ParticleConfiguration(positions=positions, charges=[1, -1])
            far = ParticleConfiguration(positions=[[0, 0, 0], [1e150, 0, 0]], charges=[1, -1])
            assert far.distances[0, 1] == 1e150

    def test_report_fields(self):
        rep = InequalityReport(lhs=1.0, rhs=0.25)
        assert rep.slack == 0.75 and rep.holds
        rep = InequalityReport(lhs=0.0, rhs=1e-3)
        assert not rep.holds
        assert InequalityReport(lhs=0.0, rhs=5e-11).holds  # within tolerance


class TestPairEnergy:
    def test_examples(self):
        single = ParticleConfiguration(positions=[[0, 0, 0]], charges=[1.0])
        assert pair_energy(single, 0.0) == 0.0
        assert pair_energy(dipole(1.0), 0.0) == -1.0
        same = ParticleConfiguration(
            positions=[[0, 0, 0], [2, 0, 0]], charges=[1.0, 1.0]
        )
        assert pair_energy(same, 0.0) == 0.5

    def test_scaling_covariance(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0, 3, (12, 3))
        z = rng.choice([-1.0, 1.0], 12)
        base = ParticleConfiguration(positions=pos, charges=z)
        for lam in (2.0, 10.0):
            scaled = ParticleConfiguration(positions=lam * pos, charges=z)
            assert pair_energy(scaled, 0.0) == pytest.approx(
                pair_energy(base, 0.0) / lam, rel=1e-13
            )
            assert baxter_check(scaled).rhs == pytest.approx(
                baxter_check(base).rhs / lam, rel=1e-13
            )

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(21)
        pos = rng.uniform(0, 2, (10, 3))
        z = rng.choice([-1.0, 1.0], 10)
        base = ParticleConfiguration(positions=pos, charges=z)
        moved = ParticleConfiguration(
            positions=pos @ random_rotation(rng).T + np.array([3.0, -1.0, 0.5]),
            charges=z,
        )
        for mu in (0.0, 1.0):
            assert pair_energy(moved, mu) == pytest.approx(
                pair_energy(base, mu), abs=1e-12
            )
        for check in (lambda c: onsager_check(c, 1.0), baxter_check,
                      lambda c: yukawa_positivity_check(c, 1.0)):
            a, b = check(base), check(moved)
            assert a.lhs == pytest.approx(b.lhs, abs=1e-12)
            assert a.rhs == pytest.approx(b.rhs, abs=1e-12)


class TestNearestOpposite:
    def test_dipole(self):
        assert nearest_opposite_distances(dipole(1.0)).tolist() == [1.0, 1.0]

    def test_single_species(self):
        cfg = ParticleConfiguration(
            positions=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], charges=[1.0, 1.0, 1.0]
        )
        assert np.all(np.isinf(nearest_opposite_distances(cfg)))

    def test_three_particle(self):
        # the third particle's only opposite charge is the +1 at the origin,
        # so its D is 3 (the same-sign neighbor at distance 2 does not count)
        cfg = ParticleConfiguration(
            positions=[[0, 0, 0], [1, 0, 0], [3, 0, 0]], charges=[1.0, -1.0, -1.0]
        )
        assert nearest_opposite_distances(cfg).tolist() == [1.0, 1.0, 3.0]

    def test_deletion_never_shrinks(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pos = rng.uniform(0, 2, (6, 3))
            z = rng.choice([-1.0, 1.0], 6)
            cfg = ParticleConfiguration(positions=pos, charges=z)
            before = nearest_opposite_distances(cfg)
            for k in range(6):
                keep = [i for i in range(6) if i != k]
                sub = ParticleConfiguration(positions=pos[keep], charges=z[keep])
                after = nearest_opposite_distances(sub)
                assert np.all(after >= before[keep] - 1e-15)


class TestOnsager:
    def test_dipole(self):
        rep = onsager_check(dipole(1.0), 0.0)
        assert rep.lhs == -1.0 and rep.rhs == -2.0 and rep.holds

    def test_all_positive(self):
        cfg = ParticleConfiguration(
            positions=[[0, 0, 0], [1, 0, 0], [0, 2, 0]], charges=[1.0, 1.0, 1.0]
        )
        rep = onsager_check(cfg, 0.5)
        assert rep.lhs > 0 and rep.rhs == 0.0 and rep.holds

    def test_random_ensemble(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            cfg = random_configuration(rng, 20, 1.0, "pm1")
            assert onsager_check(cfg, 1.0).holds

    def test_far_apart_pair_is_finite(self):
        # exp(-mu D) is 0 long before (mu D)^2 overflows, so the bound is -0
        far = dipole(1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu in (5.0, math.inf):
                rep = onsager_check(far, mu)
                assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds


class TestBaxter:
    def test_dipole(self):
        rep = baxter_check(dipole(1.0))
        assert rep.lhs == -1.0 and rep.rhs == -3.0 and rep.holds

    def test_no_negative_charges(self):
        cfg = ParticleConfiguration(
            positions=[[0, 0, 0], [1, 0, 0]], charges=[2.0, 1.0]
        )
        rep = baxter_check(cfg)
        assert rep.rhs == 0.0 and rep.lhs >= 0 and rep.holds

    def test_nucleus_with_two_electrons(self):
        cfg = ParticleConfiguration(
            positions=[[0, 0, 0], [1, 0, 0], [2, 0, 0]], charges=[2.0, -1.0, -1.0]
        )
        rep = baxter_check(cfg)
        assert rep.rhs == pytest.approx(-7.5, abs=1e-14)
        assert rep.lhs == pytest.approx(-2.0, abs=1e-14)
        assert rep.holds

    def test_precondition(self):
        cfg = ParticleConfiguration(
            positions=[[0, 0, 0], [1, 0, 0]], charges=[1.0, -2.0]
        )
        with pytest.raises(PreconditionError):
            baxter_check(cfg)


class TestPositivity:
    def test_dipole(self):
        rep = yukawa_positivity_check(dipole(1.0), 1.0)
        assert rep.lhs == pytest.approx(-(1 - np.exp(-1.0)), rel=1e-14)
        assert rep.rhs == -1.0 and rep.holds

    def test_single_particle(self):
        cfg = ParticleConfiguration(positions=[[0, 0, 0]], charges=[3.0])
        rep = yukawa_positivity_check(cfg, 2.0)
        assert rep.lhs == 0.0 and rep.rhs == -9.0 and rep.holds

    def test_random_charges(self):
        rng = np.random.default_rng(133)
        pos = rng.uniform(0, 4, (50, 3))
        z = rng.uniform(-2, 2, 50)
        cfg = ParticleConfiguration(positions=pos, charges=z)
        assert yukawa_positivity_check(cfg, 3.0).holds

    def test_requires_positive_mu(self):
        with pytest.raises(DomainError):
            yukawa_positivity_check(dipole(), 0.0)


# (seed, n, box, charge kind): both kinds, n from 1 to 50, boxes from 1 to 10
GEOMETRY_DRAWS = [(s, s, 1.0 + 1.5 * (s % 7), ("pm1", "mixed")[s % 2]) for s in range(1, 51)]


def _close(value, reference, scale):
    """Agreement to 1e-12 relative to the larger of the reference and the
    sum of the magnitudes of its terms."""
    return abs(value - reference) <= 1e-12 * max(scale, abs(reference))


class TestStoredGeometry:
    """The stored distances and every reader of them against a plain double
    loop over pairs with math.dist."""

    def test_against_pair_loop(self):
        for seed, n, box, kind in GEOMETRY_DRAWS:
            cfg = random_configuration(np.random.default_rng(seed), n, box, kind)
            pts = [tuple(float(x) for x in p) for p in cfg.positions]
            z = [float(q) for q in cfg.charges]
            pairs = [(i, j, math.dist(pts[i], pts[j]))
                     for i in range(n) for j in range(i + 1, n)]
            for i, j, r in pairs:
                assert cfg.distances[i, j] == cfg.distances[j, i]
                assert _close(cfg.distances[i, j], r, 0.0)
            assert not cfg.distances.diagonal().any()

            def energy(mu):
                terms = [z[i] * z[j] * math.exp(-mu * r) / r for i, j, r in pairs]
                return math.fsum(terms), math.fsum(map(abs, terms))

            nearest = [min((math.dist(pts[i], pts[j]) for j in range(n) if z[i] * z[j] < 0),
                           default=math.inf) for i in range(n)]
            for mu in (0.0, 0.5, 5.0):
                reference, scale = energy(mu)
                assert _close(pair_energy(cfg, mu), reference, scale)
                rep = onsager_check(cfg, mu)
                terms = [z[i] ** 2 * ((d * mu) ** 2 / 12 + d * mu / 2 + 1) * math.exp(-mu * d) / d
                         for i, d in enumerate(nearest) if d < math.inf]
                assert _close(rep.lhs, reference, scale)
                assert _close(rep.rhs, -math.fsum(terms), 0.0)
            rep = baxter_check(cfg)
            reference, scale = energy(0.0)
            rhs = -(1 + 2 * max(z)) * math.fsum(
                1 / d for d, q in zip(nearest, z) if q < 0 and d < math.inf)
            assert _close(rep.lhs, reference, scale) and _close(rep.rhs, rhs, 0.0)
            for mu in (0.5, 5.0):
                rep = yukawa_positivity_check(cfg, mu)
                terms = [-z[i] * z[j] * math.expm1(-mu * r) / r for i, j, r in pairs]
                assert _close(rep.lhs, math.fsum(terms), math.fsum(map(abs, terms)))
                assert _close(rep.rhs, -0.5 * mu * math.fsum(q * q for q in z), 0.0)

    def test_geometry_is_read_only(self):
        positions = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        cfg = ParticleConfiguration(positions=positions, charges=[1.0, -1.0])
        positions[1, 0] = 5.0  # the caller's array is not the stored one
        assert cfg.positions[1, 0] == 2.0
        assert cfg.distances.tolist() == [[0.0, 2.0], [2.0, 0.0]]
        for stored in (cfg.positions, cfg.charges, cfg.distances):
            with pytest.raises(ValueError):
                stored[0] = 1.0

    def test_draw_order_is_pinned(self):
        # positions come first and in one draw, so a trial seed replays
        for seed, n, box, kind in GEOMETRY_DRAWS:
            cfg = random_configuration(np.random.default_rng(seed), n, box, kind)
            expected = np.random.default_rng(seed).uniform(0, box, (n, 3))
            assert np.array_equal(cfg.positions, expected)


class TestEnsembles:
    def test_zero_violations(self):
        for which, seed in (("onsager", 101), ("baxter", 102), ("positivity", 103)):
            rows = run_random_ensemble(which, 400, seed)
            assert len(rows) == 400
            assert min(r[5] for r in rows) >= -1e-10

    def test_reproducible(self):
        a = run_random_ensemble("onsager", 50, 2024)
        b = run_random_ensemble("onsager", 50, 2024)
        assert a == b

    def test_charge_kinds(self):
        rng = np.random.default_rng(3)
        pm = random_configuration(rng, 30, 5.0, "pm1")
        assert set(np.unique(pm.charges)) <= {-1.0, 1.0}
        mixed = random_configuration(rng, 30, 5.0, "mixed")
        assert np.all(mixed.charges[mixed.charges < 0] == -1.0)
        with pytest.raises(PreconditionError):
            random_configuration(rng, 5, 1.0, "bogus")

    def test_validates_arguments(self):
        with pytest.raises(PreconditionError):
            run_random_ensemble("unknown", 10, 1)
        with pytest.raises(PreconditionError):
            run_random_ensemble("onsager", 0, 1)

    @pytest.mark.parametrize("kwargs", [
        {"max_particles": 0}, {"mus": ()}, {"mus": (math.nan,)}, {"mus": (-1.0,)},
        {"box_range": (5.0, 1.0)}, {"box_range": (-1.0, 1.0)},
        {"box_range": (math.nan, 1.0)}, {"box_range": (1.0, math.inf)},
    ], ids=repr)
    def test_arguments_are_checked_before_drawing(self, kwargs, monkeypatch):
        # no trial seed is derived, so nothing is drawn, before the check
        monkeypatch.setattr(correlation, "seed_words", None)
        with pytest.raises((PreconditionError, DomainError)):
            run_random_ensemble("onsager", 3, 0, **kwargs)

    def test_overflowing_draws_are_rejected_as_in_the_public_route(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="overflow"):
                run_random_ensemble("onsager", 3, 0, box_range=(1e200, 1e200))

    def test_nan_mu_is_rejected_as_in_the_public_route(self):
        with pytest.raises(DomainError):
            onsager_check(dipole(), math.nan)
        with pytest.raises(DomainError):
            run_random_ensemble("onsager", 2, 0, mus=(math.nan,))


def _replay(which, ts, max_particles=50, box_range=(1.0, 10.0), mus=(0.0, 0.5, 1.0, 5.0)):
    """(row, configuration) of one trial seed through random_configuration
    and the public checker: the per-trial route the fuzz batches."""
    rng = np.random.default_rng(ts)
    n = int(rng.integers(1, max_particles + 1))
    box = float(rng.uniform(*box_range))
    kind = "pm1" if rng.random() < 0.5 else "mixed"
    mu = float(rng.choice(mus))
    cfg = random_configuration(rng, n, box, kind)
    if which == "onsager":
        rep = onsager_check(cfg, mu)
    elif which == "baxter":
        mu, rep = 0.0, baxter_check(cfg)
    else:
        mu = mu if mu > 0 else 0.5
        rep = yukawa_positivity_check(cfg, mu)
    return (ts, n, mu, rep.lhs, rep.rhs, rep.slack), cfg


class TestBatchedEnsemble:
    """Every fuzz row equals replaying its trial seed through the public
    route, bit for bit, in trial-seed order."""

    @staticmethod
    def replayed(which, trials, seed, **kwargs):
        rows = run_random_ensemble(which, trials, seed, **kwargs)
        assert [r[0] for r in rows] == seed_words(seed, trials)
        replay = [_replay(which, r[0], **kwargs) for r in rows]
        expected = [row for row, _ in replay]
        assert rows == expected
        assert repr(rows) == repr(expected)  # signed zeros as well
        return [cfg for _, cfg in replay]

    @pytest.mark.parametrize("which", CHECKERS)
    def test_rows_equal_public_route(self, which):
        self.replayed(which, 300, 8675309)

    @pytest.mark.parametrize("which", CHECKERS)
    def test_single_particles_and_same_sign_pairs(self, which):
        configs = self.replayed(which, 200, 271828, max_particles=2)
        assert any(c.n == 1 for c in configs)
        # a same-sign pair has no opposite charge: D_i = inf for both
        same = [c for c in configs if c.n == 2 and c.charges[0] * c.charges[1] > 0]
        assert same and np.all(np.isinf(nearest_opposite_distances(same[0])))

    @pytest.mark.parametrize("which", CHECKERS)
    def test_across_a_block_boundary(self, which):
        assert len(self.replayed(which, _BLOCK + 37, 314159, max_particles=6)) == _BLOCK + 37

    @pytest.mark.parametrize("which", CHECKERS)
    def test_generated_configurations_are_validated(self, which):
        with pytest.raises(PreconditionError, match="minimum separation"):
            run_random_ensemble(which, 5, 0, box_range=(1e-14, 1e-14))
