"""Tests for pairwise energies and the correlation-inequality checkers."""
import math
import warnings

import numpy as np
import pytest

from chargelab import correlation, numerics
from chargelab.cli import Columns
from chargelab.correlation import (
    _BLOCK,
    CHECKERS,
    InequalityReport,
    ParticleConfiguration,
    baxter_check,
    nearest_opposite_distances,
    onsager_check,
    pair_energy,
    replay_trial,
    run_random_ensemble,
    yukawa_positivity_check,
)
from chargelab.errors import DomainError, PreconditionError
from chargelab.numerics import seed_words, splitmix64, uniforms


def ensemble_rows(columns):
    """An ensemble's columns as rows, as its CSV table writes them."""
    return list(Columns(*columns.values()))


def drawn(seed, n, box, kind):
    """The configuration the fuzz draws for a trial seed whose header gives
    n particles, box side `box` and charge kind "pm1" or "mixed"."""
    pos, z = correlation._draw_body(
        np.array([seed], dtype=np.uint64), n, np.array([box]), np.array([kind == "pm1"]))
    return ParticleConfiguration(positions=pos[0], charges=z[0])


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
        for seed in seed_words(77, 50):
            assert onsager_check(drawn(seed, 20, 1.0, "pm1"), 1.0).holds

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
            cfg = drawn(seed, n, box, kind)
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
        # after the 4 header words: 3n coordinates, n signs, n magnitudes
        for seed, n, box, kind in GEOMETRY_DRAWS:
            cfg = drawn(seed, n, box, kind)
            u = [(splitmix64_reference(seed, j) >> 11) * 2.0**-53 for j in range(4, 4 + 5 * n)]
            assert cfg.positions.ravel().tolist() == [box * x for x in u[:3 * n]]
            charges = [-1.0 if s < 0.5 else 1.0 if kind == "pm1" else 1.0 + math.floor(3.0 * m)
                       for s, m in zip(u[3 * n:4 * n], u[4 * n:])]
            assert cfg.charges.tolist() == charges


class TestEnsembles:
    def test_zero_violations(self):
        for which, seed in (("onsager", 101), ("baxter", 102), ("positivity", 103)):
            columns = run_random_ensemble(which, 400, seed)
            assert all(len(column) == 400 for column in columns.values())
            assert columns["slack"].min() >= -1e-10

    def test_reproducible(self):
        a = run_random_ensemble("onsager", 50, 2024)
        b = run_random_ensemble("onsager", 50, 2024)
        assert ensemble_rows(a) == ensemble_rows(b)

    def test_charge_kinds(self):
        pm = drawn(3, 30, 5.0, "pm1")
        assert set(np.unique(pm.charges)) == {-1.0, 1.0}
        mixed = drawn(3, 30, 5.0, "mixed")
        assert set(np.unique(mixed.charges)) == {-1.0, 1.0, 2.0, 3.0}
        with pytest.raises(PreconditionError):
            replay_trial("bogus", 3)

    def test_validates_arguments(self):
        with pytest.raises(PreconditionError):
            run_random_ensemble("unknown", 10, 1)
        with pytest.raises(PreconditionError):
            run_random_ensemble("onsager", 0, 1)

    def test_overflowing_draws_are_rejected_as_in_the_public_route(self, monkeypatch):
        monkeypatch.setattr(correlation, "BOX_RANGE", (1e200, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="overflow"):
                run_random_ensemble("onsager", 3, 0)

    def test_nan_mu_is_rejected_as_in_the_public_route(self, monkeypatch):
        with pytest.raises(DomainError):
            onsager_check(dipole(), math.nan)
        monkeypatch.setattr(correlation, "MUS", (math.nan,))
        with pytest.raises(DomainError):
            run_random_ensemble("onsager", 2, 0)


def _replay(which, ts):
    """(row, configuration) of one trial seed through replay_trial and the
    public checker: the per-trial route the fuzz batches, from the fuzz's
    distribution as it is set when called."""
    cfg, mu = replay_trial(which, ts)
    if which == "onsager":
        rep = onsager_check(cfg, mu)
    elif which == "baxter":
        rep = baxter_check(cfg)
    else:
        rep = yukawa_positivity_check(cfg, mu)
    return (ts, cfg.n, mu, rep.lhs, rep.rhs, rep.slack), cfg


class TestKernels:
    def test_axis_1_sums_equal_one_row_sums(self):
        # `_row_sums` adds every unmasked row of a stack in one reduction; the
        # rows stay bit for bit the 1D sums of one trial only while numpy
        # reduces each C-contiguous row of an axis-1 sum on its own
        for length in range(1, 1226):
            for trials in (1, 3, 20):
                words = np.array(seed_words(1000 * length + trials, trials), dtype=np.uint64)
                u = uniforms(words, 0, 2 * length)
                rows = (2.0 * u[:, :length] - 1.0) * np.exp(30.0 * u[:, length:])
                expected = [np.add.reduce(row.copy()) for row in rows]
                assert correlation._row_sums(rows).tolist() == expected, (length, trials)

    def test_segment_minima_equal_the_dense_pass(self):
        for seed in range(40):
            words = np.array(seed_words(seed, 6), dtype=np.uint64)
            n = 1 + seed % 12
            pos, z = correlation._draw_body(words, n, np.full(6, 3.0), np.zeros(6, bool))
            r = correlation._pair_distances(pos)
            i, j = correlation._pairs(n)
            dense = np.full((6, n, n), np.inf)
            dense[:, i, j] = dense[:, j, i] = np.where(z[:, i] * z[:, j] < 0, r, np.inf)
            got = correlation._nearest_opposite(correlation._pair_charges(z), r, n)
            assert np.array_equal(got, dense.min(axis=2))

    @pytest.mark.parametrize("zero, mu, lhs, rhs", [
        (0, 0.0, "-0x1.808ccad120142p+4", "-0x1.e399d32354744p+6"),
        (2, 0.5, "0x1.470e89944c4f8p+2", "-0x1.4e3f1df9226ccp+6"),
    ])
    def test_a_zero_charge_keeps_its_row_sum(self, zero, mu, lhs, rhs):
        # a zero charge has no opposite charge, so its term is masked out and
        # the row is summed alone; summing the row whole, with that term as
        # 0, would move the last bit of both pins
        pos = 5.0 * uniforms(np.array([1905], dtype=np.uint64), 0, 90)[0].reshape(30, 3)
        z = np.where(np.arange(30) % 2 == 0, 1.0, -1.0) * (1 + np.arange(30) % 3)
        z[zero] = 0.0
        rep = onsager_check(ParticleConfiguration(positions=pos, charges=z), mu)
        assert (rep.lhs.hex(), rep.rhs.hex()) == (lhs, rhs)


class TestBatchedEnsemble:
    """Every fuzz row equals replaying its trial seed through the public
    route, bit for bit, in trial-seed order."""

    @staticmethod
    def replayed(which, trials, seed):
        columns = run_random_ensemble(which, trials, seed)
        assert tuple(columns) == ("trial_seed", "n", "mu", "lhs", "rhs", "slack")
        assert columns["trial_seed"].dtype == np.uint64 and columns["n"].dtype.kind == "i"
        rows = ensemble_rows(columns)
        assert [r[0] for r in rows] == seed_words(seed, trials)
        replay = [_replay(which, r[0]) for r in rows]
        expected = [row for row, _ in replay]
        assert rows == expected
        assert repr(rows) == repr(expected)  # signed zeros as well
        return [cfg for _, cfg in replay]

    @pytest.mark.parametrize("which", CHECKERS)
    def test_rows_equal_public_route(self, which):
        self.replayed(which, 300, 8675309)

    @pytest.mark.parametrize("which", CHECKERS)
    def test_single_particles_and_same_sign_pairs(self, which, monkeypatch):
        monkeypatch.setattr(correlation, "MAX_PARTICLES", 2)
        configs = self.replayed(which, 200, 271828)
        assert any(c.n == 1 for c in configs)
        # a same-sign pair has no opposite charge: D_i = inf for both
        same = [c for c in configs if c.n == 2 and c.charges[0] * c.charges[1] > 0]
        assert same and np.all(np.isinf(nearest_opposite_distances(same[0])))

    @pytest.mark.parametrize("which", CHECKERS)
    def test_across_a_block_boundary(self, which, monkeypatch):
        monkeypatch.setattr(correlation, "MAX_PARTICLES", 6)
        assert len(self.replayed(which, _BLOCK + 37, 314159)) == _BLOCK + 37

    @pytest.mark.parametrize("which", CHECKERS)
    def test_generated_configurations_are_validated(self, which, monkeypatch):
        monkeypatch.setattr(correlation, "BOX_RANGE", (1e-14, 1e-14))
        with pytest.raises(PreconditionError, match="minimum separation"):
            run_random_ensemble(which, 5, 0)


_MASK = 2**64 - 1


def splitmix64_reference(seed, j):
    """Word j of the SplitMix64 stream seeded at `seed`, in Python ints."""
    z = (seed + (j + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class TestSplitMix64:
    def test_known_answer(self):
        # the first outputs of SplitMix64 seeded at 0
        words = splitmix64(np.zeros(1, dtype=np.uint64), 0, 4)
        assert words.tolist() == [[0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                   0x06C45D188009454F, 0xF88BB8A8724C81EC]]

    def test_wraps_like_the_integer_reference(self):
        # the state passes 2^64 for seeds near it; array arithmetic wraps
        # without the overflow warning that numpy scalars give
        seeds = [2**64 - 1, 2**64 - 2, 2**64 - 0x9E3779B97F4A7C15, 2**63, 1905]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = splitmix64(np.array(seeds, dtype=np.uint64), 3, 7)
        assert words.tolist() == [[splitmix64_reference(s, j) for j in range(3, 10)]
                                  for s in seeds]

    def test_word_j_depends_on_the_seed_and_j_alone(self):
        seeds = np.array(seed_words(5, 8), dtype=np.uint64)
        whole = splitmix64(seeds, 0, 30)
        assert np.array_equal(splitmix64(seeds[3:5], 12, 9), whole[3:5, 12:21])


class TestDrawLayout:
    """The header and body of each trial against the fuzz's distribution."""

    SEEDS = np.array(seed_words(1905, 20_000), dtype=np.uint64)

    @pytest.mark.parametrize("which", CHECKERS)
    def test_headers_cover_the_distribution(self, which):
        n, box, pm1, mu = correlation._draw_header(which, self.SEEDS)
        assert sorted(set(n.tolist())) == list(range(1, correlation.MAX_PARTICLES + 1))
        assert np.all((box >= 1.0) & (box < 10.0))
        assert 0.45 < pm1.mean() < 0.55
        expected = {"onsager": {0.0, 0.5, 1.0, 5.0}, "baxter": {0.0},
                    "positivity": {0.5, 1.0, 5.0}}[which]
        assert set(mu.tolist()) == expected

    def test_bodies_by_charge_kind(self):
        n, box, pm1, _ = correlation._draw_header("onsager", self.SEEDS[:2000])
        for kind, allowed in ((True, {-1.0, 1.0}), (False, {-1.0, 1.0, 2.0, 3.0})):
            k = np.flatnonzero((n == 40) & (pm1 == kind))
            pos, z = correlation._draw_body(self.SEEDS[k], 40, box[k], pm1[k])
            assert set(np.unique(z).tolist()) == allowed
            assert np.all((pos >= 0) & (pos < box[k, None, None]))

    def test_extreme_words_map_inside_the_ranges(self, monkeypatch):
        for word in (0, 2**64 - 1):
            monkeypatch.setattr(numerics, "splitmix64", lambda seeds, first, count: np.full(
                (len(seeds), count), word, dtype=np.uint64))
            seeds = np.zeros(2, dtype=np.uint64)
            n, box, pm1, mu = correlation._draw_header("onsager", seeds)
            top = word > 0
            assert n.tolist() == [50 if top else 1] * 2
            assert np.all(box < 10.0) and np.all(box >= 1.0)
            assert pm1.tolist() == [not top] * 2
            assert mu.tolist() == [5.0 if top else 0.0] * 2
            pos, z = correlation._draw_body(seeds, 3, box, np.array([False, True]))
            assert np.all(pos < box[0]) and np.all(pos >= 0.0)
            assert z.tolist() == ([[3.0] * 3, [1.0] * 3] if top else [[-1.0] * 3] * 2)
