"""The numpy tridiagonal kernels against scipy.linalg, which only the tests use.

Eigenvalue counts must agree exactly.  Eigenvalues are compared in units
of eps * tnorm, tnorm being the larger Gershgorin bound in size, where each
solver stops bisecting (LAPACK ?stebz's default tolerance).  The bounds are
set from measurement:
- on the radial stencils of the studies the largest difference was
  0.79 eps * tnorm; the bound is 2;
- on 200 random indefinite matrices (n < 300, entries of mixed scales) it
  was 446 (median 10.6; W21+ 13.5), since odd-even reduction is not
  backward stable in general; the bound is 1000;
- channel sums agreed within 2.4e-12 relative; the bound is 5e-12.
"""
import inspect
import textwrap

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal, solveh_banded

from chargelab import numerics, spectral, variational
from chargelab.errors import DomainError
from chargelab.numerics import (
    tridiagonal_counts,
    tridiagonal_eigenvalues,
    tridiagonal_ldl,
    tridiagonal_ldl_solve,
    uniform_radial_grid,
)

EPS = np.finfo(float).eps
VALUE_BOUND = 2.0  # in units of eps * tnorm
RANDOM_BOUND = 1000.0
NEG_SUM_RTOL = 5e-12

# (potential, grid or None for the default): the grids of lt-study and the
# matched scale pair that lt-study and sobolev-study share
STUDY_GRIDS = (
    [(spectral.gaussian_well(d), None) for d in (50.0, 100.0, 200.0)]
    + [(spectral.gaussian_well(12.0), uniform_radial_grid(1600, 10.0)),
       (spectral.gaussian_well(48.0, 0.5), uniform_radial_grid(1600, 5.0))]
)
SOBOLEV_DEPTHS = (5.0, 10.0, 20.0, 50.0)


def _tnorm(diag, off):
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return max(abs((diag - radius).min()), abs((diag + radius).max()))


def _scipy_below(diag, off, shift):
    """scipy's eigenvalues of the matrix below `shift`, from below a
    Gershgorin bound."""
    lo = diag.min() - 2.0 * np.abs(off).max(initial=0.0) - 1.0
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=(lo, shift))


def _all_eigenvalues(diag, off):
    n = diag.size
    return tridiagonal_eigenvalues(diag, off, np.zeros(n, int), np.arange(n),
                                   np.full(n, _tnorm(diag, off)))


def _channels(spec, grid):
    """(ell, diagonal, off-diagonal) of every channel up to the first one
    without a negative eigenvalue, as `spectral.negative_sum` builds them."""
    grid = grid or spectral.default_eigen_grid(spec)
    r, base, off = spectral._stencil(spec, grid)
    ell = 0
    while True:
        diag = base + 0.5 * ell * (ell + 1) / r**2
        yield ell, diag, off
        if _scipy_below(diag, off, 0.0).size == 0:
            return
        ell += 1


def _diagonal_entry_shift_mismatches():
    """Counts that differ from scipy's at shifts equal to a diagonal entry of
    random 49 x 49 matrices, every entry of four of them."""
    mismatches = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        diag = rng.normal(size=49)
        off = rng.normal(size=48)
        ref = eigvalsh_tridiagonal(diag, off)
        shifts = diag[np.min(np.abs(ref[:, None] - diag), axis=0) > 1e-9]
        counts = tridiagonal_counts(np.broadcast_to(diag, (shifts.size, 49)), off, shifts)
        mismatches += int(np.sum(counts != np.searchsorted(ref, shifts)))
    return mismatches


def _s_wave(spec, grid):
    _, diag, off = spectral._stencil(spec, grid)
    return diag, off


class TestStudyGrids:
    @pytest.mark.parametrize("spec, grid", STUDY_GRIDS,
                             ids=["depth-50", "depth-100", "depth-200", "pair-base", "pair-scaled"])
    def test_every_channel_matches_scipy(self, spec, grid):
        for ell, diag, off in _channels(spec, grid):
            ref = _scipy_below(diag, off, 0.0)
            assert tridiagonal_counts(diag, off, [0.0])[0] == ref.size, ell
            ours = tridiagonal_eigenvalues(diag, off, np.zeros(ref.size, int),
                                           np.arange(ref.size), np.zeros(ref.size))
            assert np.all(np.abs(ours - ref) <= VALUE_BOUND * EPS * _tnorm(diag, off)), ell

    @pytest.mark.parametrize("spec, grid", STUDY_GRIDS,
                             ids=["depth-50", "depth-100", "depth-200", "pair-base", "pair-scaled"])
    def test_channel_sum_matches_scipy(self, spec, grid):
        ref = sum((2 * ell + 1) * _scipy_below(diag, off, 0.0).sum()
                  for ell, diag, off in _channels(spec, grid))
        assert spectral.negative_sum(spec, grid).neg_sum == pytest.approx(ref, rel=NEG_SUM_RTOL)

    @pytest.mark.parametrize("depth", SOBOLEV_DEPTHS)
    def test_sobolev_grids_match_scipy(self, depth):
        # ground_state_energy solves the s-wave on the default grid and the doubled one
        spec = spectral.gaussian_well(depth)
        coarse = spectral.default_eigen_grid(spec)
        for grid in (coarse, uniform_radial_grid(2 * coarse.n_nodes, coarse.r_max)):
            diag, off = _s_wave(spec, grid)
            assert tridiagonal_counts(diag, off, [0.0])[0] == _scipy_below(diag, off, 0.0).size
            ref = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
            assert abs(spectral._lowest_eigenvalue(spec, grid) - ref) <= (
                VALUE_BOUND * EPS * _tnorm(diag, off))


class TestRandomMatrices:
    @pytest.mark.parametrize("seed", range(12))
    def test_indefinite_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        diag = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        off = rng.normal(size=n - 1) * 10.0 ** rng.integers(-3, 4)
        ref = eigvalsh_tridiagonal(diag, off)
        ours = _all_eigenvalues(diag, off)
        assert np.all(np.abs(ours - ref) <= RANDOM_BOUND * EPS * _tnorm(diag, off))
        # counts at shifts away from every eigenvalue
        gaps = np.diff(ref)
        shifts = np.concatenate([[ref[0] - 1.0], (ref[:-1] + gaps / 2)[gaps > 1e-6 * _tnorm(diag, off)]])
        expected = np.searchsorted(ref, shifts)
        stack = np.broadcast_to(diag, (shifts.size, n))
        assert tridiagonal_counts(stack, off, shifts).tolist() == expected.tolist()

    def test_stacked_matrices_are_independent(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(5, 40))
        off = rng.normal(size=39)
        shifts = rng.normal(size=5)
        alone = [tridiagonal_counts(row, off, [x])[0] for row, x in zip(stack, shifts)]
        assert tridiagonal_counts(stack, off, shifts).tolist() == alone

    def test_wilkinson_close_pair(self):
        # W21+: the two largest eigenvalues agree to about 14 digits
        diag = np.abs(np.arange(21.0) - 10.0)
        off = np.ones(20)
        ref = eigvalsh_tridiagonal(diag, off)
        ours = _all_eigenvalues(diag, off)
        assert np.all(np.abs(ours - ref) <= RANDOM_BOUND * EPS * _tnorm(diag, off))
        assert ours[19] < ours[20]
        assert ours[20] - ours[19] == pytest.approx(ref[20] - ref[19], abs=4 * EPS * 12.0)

    def test_shift_equal_to_a_diagonal_entry(self):
        # the reduction's first pivots are diag[0], diag[2], ...: an even k
        # makes one exactly 0, an interior one sends the lane to the Sturm count
        assert _diagonal_entry_shift_mismatches() == 0

    def test_interior_zero_pivot_is_recounted(self, monkeypatch):
        calls = []
        sturm = numerics._sturm_count
        monkeypatch.setattr(numerics, "_sturm_count", lambda *a: calls.append(1) or sturm(*a))
        diag = np.array([3.0, -1.0, 2.0, 0.5, 4.0])
        off = np.array([1.0, 0.7, -0.3, 2.0])
        ref = eigvalsh_tridiagonal(diag, off)
        assert tridiagonal_counts(diag, off, [2.0])[0] == np.searchsorted(ref, 2.0)
        assert calls == [1]
        calls.clear()
        assert tridiagonal_counts(diag, off, [3.0])[0] == np.searchsorted(ref, 3.0)
        assert calls == []  # a zero pivot at an end is harmless

    @pytest.mark.parametrize("power", [-6, -2, 2, 5])
    def test_power_of_two_scaling_is_exact(self, power):
        rng = np.random.default_rng(power + 10)
        diag = rng.normal(size=150)
        off = rng.normal(size=149)
        scale = 2.0**power
        assert np.array_equal(_all_eigenvalues(scale * diag, scale * off),
                              scale * _all_eigenvalues(diag, off))


class TestDefectsFail:
    def test_dropped_right_neighbour_update_fails_the_counts(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(numerics._inertia))
        line = "            d[:right_count] -= right\n"
        assert line in source
        scope = dict(vars(numerics))
        exec(source.replace(line, ""), scope)
        monkeypatch.setattr(numerics, "_inertia", scope["_inertia"])
        spec, grid = STUDY_GRIDS[0]
        mismatched = [ell for ell, diag, off in _channels(spec, grid)
                      if tridiagonal_counts(diag, off, [0.0])[0]
                      != _scipy_below(diag, off, 0.0).size]
        assert mismatched


    def test_counts_without_the_sturm_recount_fail(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(numerics._inertia))
        recount = source[source.index("    for lane in np.flatnonzero(recount):"):
                         source.index("    return count")]
        scope = dict(vars(numerics))
        exec(source.replace(recount, ""), scope)
        monkeypatch.setattr(numerics, "_inertia", scope["_inertia"])
        assert _diagonal_entry_shift_mismatches() > 0


class TestLDL:
    @pytest.mark.parametrize("nodes", [400, 800])
    def test_solve_equals_solveh_banded_bit_for_bit(self, nodes):
        rng = np.random.default_rng(nodes)
        disc = variational._Discretization(variational.default_init(nodes).grid)
        for tau in np.geomspace(1e-3, 1e4, 15):
            ab = np.zeros((2, nodes))
            ab[1] = disc.grid.weights + tau * disc.k_diag
            ab[0, 1:] = tau * disc.k_off
            rhs = rng.random(nodes)
            ours = tridiagonal_ldl_solve(variational._implicit_factor(disc, tau), rhs)
            assert np.array_equal(ours, solveh_banded(ab, rhs)), tau

    def test_rejects_an_indefinite_matrix(self):
        with pytest.raises(DomainError, match="pivot 1"):
            tridiagonal_ldl([1.0, -1.0], [0.5])
        with pytest.raises(DomainError, match="pivot 0"):
            tridiagonal_ldl([0.0, 1.0], [0.1])
