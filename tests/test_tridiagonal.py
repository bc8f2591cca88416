"""The numpy tridiagonal kernels against scipy.linalg, which only the tests use.

Eigenvalue counts must agree exactly.  Eigenvalues are compared in units
of eps * tnorm, tnorm being the larger Gershgorin bound in size: LAPACK
?stebz's default tolerance, and at most twice the step of the dyadic grid
whose cells settle ours.  The bounds are set from measurement:
- on the radial stencils of the studies the largest difference was
  0.68 eps * tnorm (0.43 on the sobolev grids); the bound is 2;
- on the 12 random indefinite matrices tested (n < 300, entries of mixed
  scales) it was 36, and 9.1 on W21+; on 200 such matrices 1242 (median
  10.7), since odd-even reduction is not backward stable in general:
  matrix 73's counts flip within 2000 grid steps of one eigenvalue, and
  bisection on the same grid settles a cell 1427 away; the bound, 1000,
  dates from bisection on the brackets' float midpoints, which reached 446
  on the 200;
- channel sums agreed within 1.7e-12 relative; the bound is 5e-12;
- the slope S(x) of `_inertia` agreed with scipy's sum 1/(x - lambda_i)
  within 1.4e-8 of the sum of the terms' sizes (matrix 8); the bound is
  1e-7;
- the depth-200 spectrum took 403 lane-evaluations (counts of one matrix
  with its slope) in 42 inertia calls for its 51 eigenvalues, 489 while
  sibling lanes that shared a split point were counted once each,
  bisection on the same grid 1983; the budget is 650.  lt-study's spectra,
  its three wells one stack, took 749 (745 as three stacks, 875 with
  sibling lanes counted once each); the budget is 750;
- the depth-200 spectrum peaked at 1.06 MB of traced memory, 1.71 MB while
  an inertia count kept every level's reciprocal pivots and slopes, 2.21
  MB while each level allocated its own arrays; the bounds are 1.95 MB and,
  for the streamed count, 1.2 MB.  `cli.run_lt_study` peaked at 1.28 MB,
  1.73 MB as three stacks of the count that kept every level; the bound is
  1.4 MB.
"""
import inspect
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal, solveh_banded

from chargelab import cli, numerics, spectral, variational
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
SLOPE_BOUND = 1e-7  # relative to the sum of the terms' sizes
LANE_BUDGET = 650  # lane-evaluations of the depth-200 spectrum
LT_STUDY_LANE_BUDGET = 750  # and of lt-study's
NEG_SUM_PEAK = 1_950_000  # bytes of traced memory of the depth-200 spectrum
STREAMED_PEAK = 1_200_000  # and since the inertia count streams its levels
LT_STUDY_PEAK = 1_400_000  # of `cli.run_lt_study`, its wells solved as one stack

# (potential, grid or None for the default): the grids of lt-study and the
# matched scale pair that lt-study and sobolev-study share
STUDY_GRIDS = (
    [(spectral.gaussian_well(d), None) for d in (50.0, 100.0, 200.0)]
    + [(spectral.gaussian_well(12.0), uniform_radial_grid(1600, 10.0)),
       (spectral.gaussian_well(48.0, 0.5), uniform_radial_grid(1600, 5.0))]
)
SOBOLEV_DEPTHS = (5.0, 10.0, 20.0, 50.0)


def _reference_inertia(shifted: np.ndarray, off_sq: np.ndarray, tnorm: np.ndarray,
                       slope: bool = False):
    """The inertia kernel as it was before it streamed its levels, kept as
    the oracle of `numerics._inertia`: every level's reciprocal pivots and
    p'/p are kept as rows, and each lane's sums taken over them at the end;
    `shifted` (n x lanes) holds the shifted diagonals."""
    guard, floor = numerics._GUARD * tnorm, numerics._PIVMIN * tnorm
    limit, largest_floor = 1.0 / guard.max(), floor.max()
    # every level's reciprocal pivots, and from the second level on p'/p,
    # one block of rows per level, so each lane's terms add up at the end;
    # the first level has `first` pivots
    first = (shifted.shape[0] + 1) // 2
    inverses = np.empty(shifted.shape)
    rates = np.empty((shifted.shape[0] - first, shifted.shape[1])) if slope else None
    recount = np.zeros(shifted.shape[1], dtype=bool)
    # the first level's left (then d), right (then c'/c), c and change
    # (then d')
    work = np.empty((4 if slope else 3, shifted.shape[0] // 2, shifted.shape[1]))
    d, c = shifted, off_sq[:, None]
    # d' and c'/c, None on the first level, where d' = -1 and c' = 0
    d_rate = c_rate = None
    row = level = 0
    # A small pivot shows as a large reciprocal.  The lanes to be recounted
    # may overflow, and fmax/fmin skip the NaN they may leave.
    with np.errstate(all="ignore"):
        while True:
            level += 1
            pivot = d[::2]
            kept, right_count = d.shape[0] // 2, (d.shape[0] - 1) // 2
            inverse = np.divide(1.0, pivot, out=inverses[row:row + pivot.shape[0]])
            if np.fmax.reduce(inverse, axis=None) > limit or (
                    np.fmin.reduce(inverse, axis=None) < -limit):
                size = np.abs(pivot)
                # a pivot at an end has one neighbour, which no other
                # rounding then cancels against
                interior = (size < guard)[1:kept]
                recount |= interior.any(axis=0)
                if np.fmin.reduce(size, axis=None) < largest_floor:
                    np.divide(1.0, np.where(size < floor, -floor, pivot), out=inverse)
            if slope:
                # p'/p of each pivot; c/p, and so the coupling to it, has
                # the log-derivative c'/c - p'/p
                if d_rate is None:
                    left_rate, right_rate = inverse[:kept], inverse[1:right_count + 1]
                else:
                    rate = np.multiply(d_rate[::2], inverse,
                                       out=rates[row - first:row - first + pivot.shape[0]])
                    left_rate = np.subtract(c_rate[0:2 * kept:2], rate[:kept],
                                            out=c_rate[0:2 * kept:2] if level == 2 else None)
                    right_rate = np.subtract(c_rate[1::2], rate[1:right_count + 1],
                                             out=c_rate[1::2] if level == 2 else None)
            row += pivot.shape[0]
            if kept == 0:
                break
            # where left, right, the next c and change go: the first level's
            # into `work`; the second's in place, over the c they come from
            # and the rows of d and d' whose pivots were just inverted, as
            # are its rates of the couplings; a later level's, n/8 rows or
            # fewer, into new arrays, since numpy copies strided rows
            # through a buffer
            if level == 1:
                into = work[0], work[1, :right_count], work[2, :kept - 1], work[-1]
            elif level == 2:
                into = (c[0:2 * kept:2], c[1::2], d[0:2 * kept - 2:2],
                        d_rate[0:2 * kept:2] if slope else None)
            else:
                into = None, None, None, None
            # kept entry 2j+1 couples to the pivots 2j (left) and 2j+2 (right)
            left = np.multiply(c[0:2 * kept:2], inverse[:kept], out=into[0])
            right = np.multiply(c[1::2], inverse[1:right_count + 1], out=into[1])
            # (b_{2j+1} b_{2j+2} / p_{2j+2})^2 couples kept 2j+1 and 2j+3
            c = np.multiply(right[:kept - 1], left[1:], out=into[2])
            if slope:
                change = np.multiply(left, left_rate, out=into[3])
                d_rate = np.subtract(-1.0 if d_rate is None else d_rate[1::2], change,
                                     out=change)
            d = np.subtract(d[1::2], left, out=left)
            d[:right_count] -= right
            if slope:
                right *= right_rate
                d_rate[:right_count] -= right
                c_rate = np.add(right_rate[:kept - 1], left_rate[1:], out=right[:kept - 1])
    # einsum sums each column in one pass over the rows, faster than a
    # reduction over axis 0; a matrix product, faster still, would convert
    # the signs to a float copy of `inverses` while the scratch is held
    count = np.einsum("ij->j", np.signbit(inverses), dtype=np.int64)
    for lane in np.flatnonzero(recount):
        count[lane] = numerics._sturm_count(shifted[:, lane].tolist(), off_sq.tolist(),
                                            numerics._PIVMIN * float(tnorm[lane]))
    if not slope:
        return count
    total = np.einsum("ij->j", rates) - np.einsum("ij->j", inverses[:first])
    total[recount] = np.nan
    return count, total


def _matches_the_reference(diag, off, rows, shifts):
    """Whether `numerics._inertia` gives the reference's counts, and its
    slopes bit for bit, for the lanes diag[rows[k]] - shifts[k]."""
    diag = np.atleast_2d(diag)
    _, _, lower, upper = numerics._tridiagonal(diag, off)
    tnorm = numerics._tnorm(lower, upper)[rows]
    shifted = np.subtract(diag[rows].T, shifts, out=np.empty((diag.shape[1], rows.size)))
    expected = _reference_inertia(shifted, off * off, tnorm, slope=True)
    counts, slopes = numerics._inertia(diag, rows, shifts, off * off, tnorm, slope=True)
    return (np.array_equal(counts, expected[0])
            and np.array_equal(numerics._inertia(diag, rows, shifts, off * off, tnorm), counts)
            and np.array_equal(slopes, expected[1], equal_nan=True))


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


def _random_matrix(seed):
    """The indefinite matrix of `seed`: n < 300, entries of mixed scales."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    diag = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    off = rng.normal(size=n - 1) * 10.0 ** rng.integers(-3, 4)
    return diag, off


def _wilkinson():
    """W21+: its two largest eigenvalues agree to about 14 digits."""
    return np.abs(np.arange(21.0) - 10.0), np.ones(20)


def _solved_eigenvalues():
    """Every eigenvalue of the records' grids: the spectra of STUDY_GRIDS;
    for each SOBOLEV_DEPTHS well, the s-wave ground state on its grid and
    the doubled one, and the refined energy, whose doubled-grid lane starts
    from the window around the coarse one."""
    values = [spectral.negative_sum(spec, grid).eigenvalues.tolist()
              for spec, grid in STUDY_GRIDS]
    for depth in SOBOLEV_DEPTHS:
        spec = spectral.gaussian_well(depth)
        coarse = spectral.default_eigen_grid(spec)
        fine = uniform_radial_grid(2 * coarse.n_nodes, coarse.r_max)
        values.append([spectral._lowest_eigenvalues([spec], coarse)[0],
                       spectral._lowest_eigenvalues([spec], fine)[0],
                       spectral.ground_state_energy(spec)])
    return repr(values)


def _within_bounds(diag, off, every=1):
    """Whether eigenvalues 0, every, 2 every, ... and the last are within
    RANDOM_BOUND of scipy's."""
    index = np.unique(np.append(np.arange(0, diag.size, every), diag.size - 1))
    ours = tridiagonal_eigenvalues(diag, off, np.zeros(index.size, int), index,
                                   np.full(index.size, _tnorm(diag, off)))
    return bool(np.all(np.abs(ours - eigvalsh_tridiagonal(diag, off)[index])
                       <= RANDOM_BOUND * EPS * _tnorm(diag, off)))


def _slope_errors(seed, monkeypatch):
    """The errors of the slope S(x) of `_inertia` against scipy's
    sum 1/(x - lambda_i) on random matrix `seed`, relative to the sum of
    the terms' sizes, at shifts between its eigenvalues and beyond them,
    and the number of lanes the Sturm recurrence recounted."""
    diag, off = _random_matrix(seed)
    ref = eigvalsh_tridiagonal(diag, off)
    tnorm = _tnorm(diag, off)
    gaps = np.diff(ref)
    shifts = np.concatenate([[ref[0] - 1.0], (ref[:-1] + gaps / 2)[gaps > 1e-6 * tnorm],
                             [ref[-1] + 1.0]])
    recounts, sturm = [], numerics._sturm_count
    monkeypatch.setattr(numerics, "_sturm_count", lambda *a: recounts.append(1) or sturm(*a))
    count, slope = numerics._inertia(diag[None], np.zeros(shifts.size, int), shifts, off * off,
                                     np.full(shifts.size, tnorm), slope=True)
    assert count.tolist() == np.searchsorted(ref, shifts).tolist()
    terms = 1.0 / (shifts[:, None] - ref)
    return np.abs(slope - terms.sum(axis=1)) / np.abs(terms).sum(axis=1), len(recounts)


def _lane_evaluations(monkeypatch, run):
    """The matrices `_inertia` counts with slopes (the eigenvalue solver's
    lane-evaluations) while `run()` runs."""
    lanes, inertia = [], numerics._inertia

    def counted(diag, rows, shifts, off_sq, tnorm, slope=False):
        if slope:
            lanes.append(rows.size)
        return inertia(diag, rows, shifts, off_sq, tnorm, slope)

    monkeypatch.setattr(numerics, "_inertia", counted)
    run()
    return sum(lanes)


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
            assert abs(spectral._lowest_eigenvalues([spec], grid)[0] - ref) <= (
                VALUE_BOUND * EPS * _tnorm(diag, off))


class TestRandomMatrices:
    @pytest.mark.parametrize("seed", range(12))
    def test_indefinite_matrices(self, seed):
        diag, off = _random_matrix(seed)
        n = diag.size
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
        diag, off = _wilkinson()
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

    def test_one_diagonal_recounts_the_lane_of_any_shift(self):
        # the shared diagonal's Gershgorin bound is each lane's: the lane
        # of the second shift, 2.0, has an interior zero pivot
        diag = np.array([3.0, -1.0, 2.0, 0.5, 4.0])
        off = np.array([1.0, 0.7, -0.3, 2.0])
        ref = eigvalsh_tridiagonal(diag, off)
        assert tridiagonal_counts(diag, off, [3.0, 2.0]).tolist() == np.searchsorted(
            ref, [3.0, 2.0]).tolist()

    @pytest.mark.parametrize("power", [-6, -2, 2, 5])
    def test_power_of_two_scaling_is_exact(self, power):
        rng = np.random.default_rng(power + 10)
        diag = rng.normal(size=150)
        off = rng.normal(size=149)
        scale = 2.0**power
        assert np.array_equal(_all_eigenvalues(scale * diag, scale * off),
                              scale * _all_eigenvalues(diag, off))


def _midpoint(monkeypatch):
    monkeypatch.setattr(numerics, "_split", lambda lo, hi, *rest: (lo + hi) // 2)


def _wrong_slope(factor):
    def perturb(monkeypatch):
        inertia = numerics._inertia

        def wrong(*args, slope=False):
            if not slope:
                return inertia(*args)
            count, rate = inertia(*args, slope=True)
            return count, factor * rate

        monkeypatch.setattr(numerics, "_inertia", wrong)
    return perturb


# the split rules the solver's answer must not depend on
SPLIT_RULES = {"midpoint": _midpoint, "sign-flipped-slope": _wrong_slope(-1.0),
               "zeroed-slope": _wrong_slope(0.0)}


class TestSplitPoints:
    """Each end of a bracket is a grid point settled by its count, so the
    split points, and the slopes that pick them, cannot make an answer
    wrong; where the counts are monotone they move no bit of it."""

    @pytest.fixture(scope="class")
    def solved(self):
        return _solved_eigenvalues()

    @pytest.mark.parametrize("rule", SPLIT_RULES)
    def test_the_records_grids_keep_every_bit(self, rule, solved, monkeypatch):
        SPLIT_RULES[rule](monkeypatch)
        assert _solved_eigenvalues() == solved

    @pytest.mark.parametrize("rule", SPLIT_RULES)
    def test_random_matrices_stay_within_their_bound(self, rule, monkeypatch):
        # counts that are not monotone within a few grid steps of an
        # eigenvalue (W21+ and matrix 8) let other split points settle a
        # neighbouring cell, inside the same bound; every 8th eigenvalue of
        # each random matrix, as these rules take about 50 counts apiece
        SPLIT_RULES[rule](monkeypatch)
        assert all(_within_bounds(*_random_matrix(seed), every=8) for seed in range(12))
        assert _within_bounds(*_wilkinson())

    @pytest.mark.parametrize("seed", range(12))
    def test_slope_matches_scipy(self, seed, monkeypatch):
        # a recounted lane's reduction is not trusted: its slope is NaN
        errors, recounted = _slope_errors(seed, monkeypatch)
        assert np.count_nonzero(np.isnan(errors)) == recounted
        assert np.nanmax(errors) <= SLOPE_BOUND

    def test_depth_200_spectrum_stays_within_its_count_budget(self, monkeypatch):
        spec = spectral.gaussian_well(200.0)
        assert _lane_evaluations(monkeypatch, lambda: spectral.negative_sum(spec)) <= (
            LANE_BUDGET)

    def test_counting_each_split_point_once_moves_no_bit(self, monkeypatch):
        # the lanes of one channel share their brackets, and so their split
        # points, until counts part them; the slopes those counts give, and
        # so every later split point, are those of a count per lane
        source = textwrap.dedent(inspect.getsource(numerics.tridiagonal_eigenvalues))
        distinct = source[source.index("        pairs = "):source.index("        lanes, split = ")]
        scope = dict(vars(numerics))
        exec(source.replace(distinct, "        once = where = np.arange(lanes.size)\n"), scope)
        _, diag, off = next(_channels(*STUDY_GRIDS[2]))
        lanes = _scipy_below(diag, off, 0.0).size

        def traced(solver):
            """The solver's eigenvalues, and the last two points, slopes and
            sides of every lane each time it estimated."""
            seen, estimate = [], numerics._estimate

            def recorded(*args):
                seen.append(np.concatenate(args))
                return estimate(*args)

            monkeypatch.setattr(numerics, "_estimate", recorded)
            monkeypatch.setitem(scope, "_estimate", recorded)
            values = solver(diag, off, np.zeros(lanes, int), np.arange(lanes), np.zeros(lanes))
            return values, np.concatenate(seen, axis=1)

        once = traced(numerics.tridiagonal_eigenvalues)
        each = traced(scope["tridiagonal_eigenvalues"])
        assert np.array_equal(once[0], each[0])
        assert np.array_equal(once[1], each[1], equal_nan=True)

    def test_lt_study_counts_each_split_point_once(self, monkeypatch):
        # sibling lanes of a channel share their bracket, and so their
        # split point, until a count parts them
        assert _lane_evaluations(monkeypatch, lambda: cli.run_lt_study((50.0, 100.0, 200.0))) <= (
            LT_STUDY_LANE_BUDGET)

    def test_depth_200_spectrum_stays_within_its_memory_bound(self):
        spec = spectral.gaussian_well(200.0)
        peak = _traced_peak(lambda: spectral.negative_sum(spec))
        assert peak <= NEG_SUM_PEAK
        assert peak <= STREAMED_PEAK

    def test_lt_study_stays_within_its_memory_bound(self):
        assert _traced_peak(lambda: cli.run_lt_study((50.0, 100.0, 200.0))) <= LT_STUDY_PEAK

    def test_the_counters_count_the_lane_evaluations(self, monkeypatch):
        with numerics.solver_counters() as outer:
            with numerics.solver_counters() as counters:
                lanes = _lane_evaluations(monkeypatch, lambda: cli.run_lt_study((50.0, 100.0)))
        assert counters["lane_evaluations"] == lanes
        assert 0 < counters["inertia_calls"] < lanes
        assert outer == counters


def _traced_peak(run):
    """Bytes of traced memory `run()` peaks at, after a first call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedKernel:
    """`numerics._inertia` keeps one level at a time; its counts and
    slopes equal those of `_reference_inertia`, which keeps them all, bit
    for bit, on stacks of two lanes or more."""

    @pytest.mark.parametrize("spec, grid", STUDY_GRIDS,
                             ids=["depth-50", "depth-100", "depth-200", "pair-base", "pair-scaled"])
    def test_the_study_stencils(self, spec, grid):
        # every channel, at 16 shifts from below its Gershgorin bound to 0
        stack = np.array([diag for _, diag, _ in _channels(spec, grid)])
        off = next(_channels(spec, grid))[2]
        rows = np.repeat(np.arange(stack.shape[0]), 16)
        shifts = np.concatenate([np.linspace(diag.min() - 2.0 * np.abs(off).max(), 0.0, 16)
                                 for diag in stack])
        assert _matches_the_reference(stack, off, rows, shifts)

    @pytest.mark.parametrize("seed", range(12))
    def test_the_random_matrices(self, seed):
        diag, off = _random_matrix(seed)
        ref = eigvalsh_tridiagonal(diag, off)
        shifts = np.concatenate([[ref[0] - 1.0], (ref[:-1] + ref[1:]) / 2, [ref[-1] + 1.0]])
        assert _matches_the_reference(diag, off, np.zeros(shifts.size, int), shifts)

    @pytest.mark.parametrize("slope", [False, True])
    def test_a_count_allocates_little_beyond_its_scratch(self, slope):
        # 16 shifts of the depth-200 s-wave stencil: besides its scratch of
        # about 2.5 n rows a count holds a byte per pivot sign; the first
        # level's broadcast products and the int64 sum of the signs each
        # took a numpy buffer of 8192 doubles (64 KiB) as well
        spec = spectral.gaussian_well(200.0)
        _, base, off = next(_channels(spec, None))
        diag, off, lower, upper = numerics._tridiagonal(base[None], off)
        n, lanes = diag.shape[1], 16
        rows = np.zeros(lanes, np.intp)
        shifts = np.linspace(diag.min() - 2.0 * np.abs(off).max(), 0.0, lanes)
        tnorm = numerics._tnorm(lower, upper)[rows]
        scratch = (n + (n + 1) // 2 + 2 * (n // 2) + 2) * lanes * 8
        peak = _traced_peak(lambda: numerics._inertia(diag, rows, shifts, off * off, tnorm, slope))
        assert peak - scratch < 8192 * 8

    def test_a_stack_with_a_recounted_lane(self, monkeypatch):
        # the shift 2.0 makes pivot 1 exactly zero: that lane is recounted
        # from its shifted column, rebuilt by the same subtraction
        calls, sturm = [], numerics._sturm_count
        monkeypatch.setattr(numerics, "_sturm_count", lambda *a: calls.append(a) or sturm(*a))
        diag = np.array([[3.0, -1.0, 2.0, 0.5, 4.0], [1.0, 2.0, -3.0, 0.25, 1.5]])
        off, rows, shifts = np.array([1.0, 0.7, -0.3, 2.0]), np.array([1, 0, 0]), np.array(
            [0.1, 2.0, 3.0])
        assert _matches_the_reference(diag, off, rows, shifts)
        assert [a[0] for a in calls] == [(diag[0] - 2.0).tolist()] * 3


class TestDefectsFail:
    def test_dropped_right_neighbour_update_fails_the_counts(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(numerics._inertia))
        line = "            d_next[:right_count] -= right\n"
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
                         source.index("    if not slope:\n        return count")]
        scope = dict(vars(numerics))
        exec(source.replace(recount, ""), scope)
        monkeypatch.setattr(numerics, "_inertia", scope["_inertia"])
        assert _diagonal_entry_shift_mismatches() > 0


    def test_an_answer_taken_from_the_last_split_fails_the_bits(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(numerics.tridiagonal_eigenvalues))
        line = "    return np.where(tnorm > 0, (lo + 0.5) * step, 0.0)\n"
        assert line in source
        scope = dict(vars(numerics))
        exec(source.replace(line, "    return points[1]\n"), scope)
        monkeypatch.setattr(spectral, "tridiagonal_eigenvalues", scope["tridiagonal_eigenvalues"])
        spec, grid = STUDY_GRIDS[0]
        newton = spectral.negative_sum(spec, grid).eigenvalues
        monkeypatch.setitem(scope, "_split", lambda lo, hi, *rest: (lo + hi) // 2)
        assert not np.array_equal(spectral.negative_sum(spec, grid).eigenvalues, newton)

    def test_a_slope_without_the_left_coupling_fails_scipy(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(numerics._inertia))
        term = "np.add(right_rate[:kept - 1], left_rate[1:],"
        assert term in source
        scope = dict(vars(numerics))
        exec(source.replace(term, "np.add(right_rate[:kept - 1], 0.0,"), scope)
        monkeypatch.setattr(numerics, "_inertia", scope["_inertia"])
        assert max(np.nanmax(_slope_errors(seed, monkeypatch)[0]) for seed in range(12)) > (
            SLOPE_BOUND)

    def test_bisection_exceeds_the_count_budget(self, monkeypatch):
        _midpoint(monkeypatch)
        spec = spectral.gaussian_well(200.0)
        assert _lane_evaluations(monkeypatch, lambda: spectral.negative_sum(spec)) > (
            LANE_BUDGET)


class TestLDL:
    @pytest.mark.parametrize("nodes", [400, 800])
    def test_solve_equals_solveh_banded_bit_for_bit(self, nodes):
        rng = np.random.default_rng(nodes)
        disc = variational._Discretization(variational.default_init(nodes, cli.DEFAULT_R_MAX).grid)
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
