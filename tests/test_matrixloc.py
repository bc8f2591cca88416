"""Tests for window localization, band budgets, and the matrix file format."""
import math

import numpy as np
import pytest

from chargelab import matrixloc
from chargelab.errors import (
    ConsistencyError,
    DomainError,
    PreconditionError,
    ResourceLimitError,
)
from chargelab.matrixloc import (
    LocalizationProblem,
    LocalizationResult,
    band_component,
    band_quadratic_forms,
    gaussian_ensemble,
    localize,
    read_matrix,
    read_vector,
    verify_budget,
    write_matrix,
    write_vector,
)
from chargelab.numerics import seed_words, trials_per_block


def second_difference(n: int) -> np.ndarray:
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def random_hermitian(rng, n: int, complex_entries: bool = False) -> np.ndarray:
    raw = rng.standard_normal((n, n))
    if complex_entries:
        raw = raw + 1j * rng.standard_normal((n, n))
    return 0.5 * (raw + raw.conj().T)


def random_unit(rng, n: int, complex_entries: bool = False) -> np.ndarray:
    v = rng.standard_normal(n)
    if complex_entries:
        v = v + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestProblemValidation:
    def test_rejects_non_hermitian(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(PreconditionError):
            LocalizationProblem(matrix=a, psi=np.array([1.0, 0.0]), window=1)

    def test_rejects_unnormalized_psi(self):
        with pytest.raises(PreconditionError):
            LocalizationProblem(
                matrix=np.eye(3), psi=np.array([1.0, 1.0, 0.0]), window=2
            )

    def test_rejects_bad_window(self):
        psi = np.array([1.0, 0.0, 0.0])
        for window in (0, 4):
            with pytest.raises(PreconditionError):
                LocalizationProblem(matrix=np.eye(3), psi=psi, window=window)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(PreconditionError):
            LocalizationProblem(matrix=np.eye(3), psi=np.array([1.0, 0.0]), window=1)


class TestBandComponent:
    def test_diagonal_part(self):
        a = second_difference(5)
        assert np.array_equal(band_component(a, 0), 2.0 * np.eye(5))

    def test_diagonal_matrix_has_no_bands(self):
        d = np.diag([1.0, 2.0, 3.0])
        for k in (1, 2):
            assert np.all(band_component(d, k) == 0)

    def test_ones_matrix_band(self):
        ones = np.ones((3, 3))
        got = band_component(ones, 1)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(got, expected)

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(31)
        a = random_hermitian(rng, 9, complex_entries=True)
        total = sum(band_component(a, k) for k in range(9))
        assert np.array_equal(total, a)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            band_component(np.eye(3), 3)
        with pytest.raises(DomainError):
            band_component(np.eye(3), -1)


class TestLocalize:
    def test_uniform_second_difference(self):
        # every length-4 window of the uniform vector has quotient 1/2,
        # twice the global quotient 1/4; ties resolve to the first window
        psi = np.ones(8) / math.sqrt(8.0)
        result = localize(
            LocalizationProblem(matrix=second_difference(8), psi=psi, window=4)
        )
        assert result.offset == 0
        assert result.lam == pytest.approx(0.25, abs=1e-14)
        assert result.value == pytest.approx(0.5, abs=1e-14)
        assert result.d[0] == pytest.approx(2.0, abs=1e-14)
        assert result.d[1] == pytest.approx(-1.75, abs=1e-14)
        assert np.all(result.d[2:] == 0.0)
        assert result.c_required == pytest.approx(16.0 / 7.0, rel=1e-12)

    def test_band_sum_reproduces_lambda(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 12, complex_entries=True)
        psi = random_unit(rng, 12, complex_entries=True)
        result = localize(LocalizationProblem(matrix=a, psi=psi, window=5))
        assert result.d.sum() == pytest.approx(result.lam, abs=1e-10)

    def test_full_window_is_identity(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(rng, 6)
        psi = random_unit(rng, 6)
        result = localize(LocalizationProblem(matrix=a, psi=psi, window=6))
        assert result.offset == 0
        assert result.value == result.lam
        assert np.allclose(result.phi, psi, atol=1e-12)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(99)
        for trial in range(30):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, n + 1))
            use_complex = bool(trial % 2)
            a = random_hermitian(rng, n, complex_entries=use_complex)
            psi = random_unit(rng, n, complex_entries=use_complex)
            result = localize(LocalizationProblem(matrix=a, psi=psi, window=m))
            quotients = {}
            for start in range(n - m + 1):
                seg = psi[start : start + m]
                mass = float(np.real(seg.conj() @ seg))
                if mass == 0.0:
                    continue
                block = a[start : start + m, start : start + m]
                quotients[start] = float(np.real(seg.conj() @ block @ seg)) / mass
            best = min(quotients.values())
            assert result.value == pytest.approx(best, rel=1e-12, abs=1e-12)
            assert result.offset == min(
                s for s, q in quotients.items() if q == best
            )

    def test_diagonal_matrix_beats_lambda(self):
        # some window's weighted diagonal average sits at or below the
        # global average
        rng = np.random.default_rng(4)
        for _ in range(20):
            diag = rng.standard_normal(9)
            psi = random_unit(rng, 9)
            result = localize(
                LocalizationProblem(matrix=np.diag(diag), psi=psi, window=3)
            )
            assert result.value <= result.lam + 1e-12

    def test_zero_mass_windows_are_skipped(self):
        psi = np.zeros(8)
        psi[6] = 1.0
        result = localize(
            LocalizationProblem(matrix=second_difference(8), psi=psi, window=2)
        )
        assert result.value == pytest.approx(2.0, abs=1e-14)
        assert result.offset in (5, 6)
        assert result.phi[6] == 1.0

    def test_shift_covariance_in_the_interior(self):
        rng = np.random.default_rng(17)
        n, m, shift = 14, 3, 2
        a = random_hermitian(rng, n)
        psi = np.zeros(n)
        psi[5:8] = rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        base = localize(LocalizationProblem(matrix=a, psi=psi, window=m))
        perm = np.zeros((n, n))
        perm[(np.arange(n) + shift) % n, np.arange(n)] = 1.0
        shifted = localize(
            LocalizationProblem(matrix=perm @ a @ perm.T, psi=perm @ psi, window=m)
        )
        assert shifted.offset == base.offset + shift
        assert shifted.value == pytest.approx(base.value, rel=1e-12)

    def test_phi_support_and_norm(self):
        rng = np.random.default_rng(21)
        a = random_hermitian(rng, 10, complex_entries=True)
        psi = random_unit(rng, 10, complex_entries=True)
        result = localize(LocalizationProblem(matrix=a, psi=psi, window=4))
        assert np.linalg.norm(result.phi) == pytest.approx(1.0, abs=1e-12)
        outside = np.ones(10, dtype=bool)
        outside[result.offset : result.offset + 4] = False
        assert np.all(result.phi[outside] == 0.0)


class TestBudget:
    def test_diagonal_budget_is_flat(self):
        rng = np.random.default_rng(12)
        diag = rng.standard_normal(7)
        psi = random_unit(rng, 7)
        result = localize(
            LocalizationProblem(matrix=np.diag(diag), psi=psi, window=3)
        )
        for c in (1e-6, 1.0, 1e6):
            assert result.budget(c) == result.lam
            assert verify_budget(result, c).holds
        assert result.c_required == 0.0

    def test_budget_holds_at_required_constant(self):
        psi = np.ones(8) / math.sqrt(8.0)
        result = localize(
            LocalizationProblem(matrix=second_difference(8), psi=psi, window=4)
        )
        assert not verify_budget(result, 0.9 * result.c_required).holds
        assert verify_budget(result, 1.1 * result.c_required).holds

    def test_budget_monotone_in_c(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 10)
        psi = random_unit(rng, 10)
        result = localize(LocalizationProblem(matrix=a, psi=psi, window=4))
        values = [result.budget(c) for c in (0.5, 1.0, 2.0, 8.0)]
        assert all(b >= a_ for a_, b in zip(values, values[1:]))

    def test_rejects_nonpositive_c(self):
        psi = np.ones(4) / 2.0
        result = localize(
            LocalizationProblem(matrix=second_difference(4), psi=psi, window=2)
        )
        with pytest.raises(DomainError):
            verify_budget(result, 0.0)
        with pytest.raises(DomainError):
            result.budget(-1.0)

    def test_result_consistency_guard(self):
        phi = np.zeros(4)
        phi[1] = 1.0
        with pytest.raises(ConsistencyError):
            LocalizationResult(
                offset=1,
                phi=phi,
                value=1.0,
                lam=1.0,
                d=np.array([2.0, 0.0, 0.0, 0.0]),  # sums to 2, not lam
                window=1,
            )


class TestGaussianEnsemble:
    def test_required_constant_stays_small(self):
        worst, rows = gaussian_ensemble(300, 20260825)
        assert len(rows) == 300
        assert worst <= 50.0
        assert all(c >= 0.0 for _, _, _, c in rows)

    def test_reproducible(self):
        first = gaussian_ensemble(40, 77)
        second = gaussian_ensemble(40, 77)
        assert first == second


def _replay(seed, n, window):
    """One ensemble trial through the public route, from its trial seed."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    matrix = 0.5 * (raw + raw.T)
    psi = rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    result = localize(LocalizationProblem(matrix=matrix, psi=psi, window=window))
    return seed, result.lam, result.value, result.c_required


class TestBatchedEnsembles:
    """Every ensemble row equals replaying its trial seed through
    LocalizationProblem, localize and c_required, bit for bit."""

    @staticmethod
    def replayed(trials, seed, n=64, window=8):
        worst, rows = gaussian_ensemble(trials, seed, n=n, window=window)
        assert [r[0] for r in rows] == seed_words(seed, trials)
        expected = [_replay(r[0], n, window) for r in rows]
        assert rows == expected
        assert repr(rows) == repr(expected)  # signed zeros as well
        assert worst == max([0.0] + [r[3] for r in expected])
        return rows

    def test_single_trial(self):
        self.replayed(1, 5)

    def test_across_block_boundaries(self):
        assert trials_per_block(64, 64) == 16
        self.replayed(70, 8675309)
        assert trials_per_block(300, 300) == 1
        self.replayed(3, 27, n=300, window=20)

    @pytest.mark.parametrize("n, window", [(1, 1), (7, 7), (9, 1), (12, 5)])
    def test_extreme_windows(self, n, window):
        rows = self.replayed(40, 314159, n=n, window=window)
        if window == n:  # one window, the whole vector: value = lam exactly
            assert all(r[2] == r[1] and r[3] == 0.0 for r in rows)

    def test_block_path_checks_the_sum_rule(self, monkeypatch):
        def per_trial(problem):
            raise AssertionError("the ensemble must not localize one trial at a time")

        monkeypatch.setattr(matrixloc, "localize", per_trial)
        gaussian_ensemble(3, 1)
        monkeypatch.setattr(matrixloc, "SUM_RULE_TOL", -1.0)
        with pytest.raises(ConsistencyError, match="band sum"):
            gaussian_ensemble(3, 1)

    def test_block_path_checks_psi_norms(self, monkeypatch):
        monkeypatch.setattr(matrixloc, "NORM_TOL", -1.0)
        with pytest.raises(PreconditionError, match="unit norm"):
            gaussian_ensemble(3, 1)

    def test_arguments_are_checked_before_drawing(self):
        for n, window in ((4, 0), (4, 5)):
            with pytest.raises(PreconditionError, match="window"):
                gaussian_ensemble(1, 0, n=n, window=window)
        with pytest.raises(ResourceLimitError, match="cap"):
            gaussian_ensemble(1, 0, n=matrixloc.SIZE_CAP + 1)


class TestFileFormat:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 5, complex_entries=True)
        path = tmp_path / "matrix.txt"
        write_matrix(path, a)
        assert np.array_equal(read_matrix(path), a)

    def test_real_matrix_stays_real(self, tmp_path):
        a = second_difference(4)
        path = tmp_path / "matrix.txt"
        write_matrix(path, a)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, a)

    def test_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        v = random_unit(rng, 6, complex_entries=True)
        path = tmp_path / "vector.txt"
        write_vector(path, v)
        assert np.array_equal(read_vector(path), v)

    def test_rejects_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n1 2 3 4\n")
        with pytest.raises(PreconditionError):
            read_matrix(bad)
        bad.write_text("")
        with pytest.raises(PreconditionError):
            read_vector(bad)
        bad.write_text("2\n1 2 x 4\n")
        with pytest.raises(PreconditionError):
            read_matrix(bad)

    def test_band_quadratic_forms_match_components(self):
        rng = np.random.default_rng(14)
        a = random_hermitian(rng, 7, complex_entries=True)
        psi = random_unit(rng, 7, complex_entries=True)
        d = band_quadratic_forms(a, psi)
        for k in range(7):
            direct = float(np.real(psi.conj() @ band_component(a, k) @ psi))
            assert d[k] == pytest.approx(direct, abs=1e-12)
