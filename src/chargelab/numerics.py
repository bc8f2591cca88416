"""Shared numerical kernels: 1D adaptive quadrature, uniform radial grids
for 3D radial integrals, symmetric tridiagonal eigenvalues and solves, seed
derivation, the draws of the seeded ensembles, and the block size of the
batched ensembles.

All downstream 1D integrals funnel through `integrate_1d`, a globally
adaptive Gauss-Kronrod integrator: the 21-point Kronrod rule with its
embedded 10-point Gauss rule (G10/K21) and the error estimate of QUADPACK's
qk21 (Piessens et al., 1983).  Radial integrals are the dot product of a
grid's weights with node values.  Semi-infinite ranges use one declared
substitution, x = a + scale*t/(1-t), and only interior nodes are evaluated,
so results are reproducible bit-for-bit for identical inputs.

Tridiagonal eigenvalues are settled by inertia counts, which odd-even
(cyclic) reduction computes for a whole stack of shifted matrices at once.
Each eigenvalue's bracket is a pair of points on a dyadic grid of step
q <= eps * tnorm, each certified by its count, and the eigenvalue is the
midpoint of the one cell the counts leave; the reduction's derivative
recurrences also give the slope d/dx log|det(T - x)|, from which a
Newton-type estimate picks where to count next, so an eigenvalue takes
about 10 counts where bisection took 42.  Tridiagonal positive definite
systems are solved by the LDL^T recurrences of LAPACK's ?pttrf/?pttrs.
Both need numpy alone.

Seeds and draws need numpy alone too.  `seed_words` is numpy's SeedSequence
hash, ported bit for bit.  The trial-seed rule of every seeded ensemble
lives here: trial k's seed is word k of `seed_words(seed, trials)`, a trial
seed is a uint64 word, and an ensemble draws its trials a block at a time
(`trial_blocks`); a one-trial replay checks its seed and draws from a stack
of one (`trial_stack`) with the same code.  Each trial draws from the
SplitMix64 stream seeded at its trial seed: `splitmix64` gives its words,
`uniforms` reads one word as a double in [0, 1) and `normals` two words as
a Box-Muller pair.  Word j depends on the seed and j alone, so each
ensemble fixes which words each draw takes; the layouts are in
`correlation` (the inequality fuzz), `cli._draw_models` (the Bogolubov
fuzz), `matrixloc` (Gaussian matrices) and `trialstate` (Berezin-Lieb).
"""
from __future__ import annotations

import contextlib
import contextvars
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetExceededError, DomainError, PreconditionError, ResourceLimitError

__all__ = [
    "QuadratureResult",
    "RadialGrid",
    "integrate_1d",
    "uniform_radial_grid",
    "GRID_NODES_CAP",
    "tridiagonal_counts",
    "tridiagonal_eigenvalues",
    "solver_counters",
    "tridiagonal_ldl",
    "tridiagonal_ldl_solve",
    "seed_words",
    "SEED_WORDS_CAP",
    "trial_blocks",
    "trial_stack",
    "splitmix64",
    "uniforms",
    "normals",
    "normal_words",
    "BLOCK_BYTES",
    "trials_per_block",
]

QUAD_LIMIT = 200  # intervals integrate_1d may hold before it gives up


@dataclass(frozen=True)
class QuadratureResult:
    """Value, certified error estimate, and evaluation count of one integral."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.error_estimate >= 0:
            raise PreconditionError("error_estimate must be >= 0")
        if self.evaluations < 1:
            raise PreconditionError("evaluations must be >= 1")


# The G10/K21 pair on (-1, 1), as tabulated in QUADPACK's qk21: the
# positive Kronrod abscissae, largest first, ending at the centre.  Entries
# 1, 3, ..., 9 are the 10-point Gauss nodes, with Gauss weights _WG.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# The full rule in ascending node order; Kronrod-only nodes carry Gauss weight 0.
_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_KRONROD = _WGK + _WGK[-2::-1]
_GAUSS_HALF = tuple(_WG[i // 2] if i % 2 else 0.0 for i in range(10))
_GAUSS = _GAUSS_HALF + (0.0,) + _GAUSS_HALF[::-1]
_EPS, _UFLOW = sys.float_info.epsilon, sys.float_info.min


def _fsum(terms) -> float:
    try:
        return math.fsum(terms)
    except OverflowError:
        raise DomainError("integral overflows the float range") from None


def _gk21(g: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """The K21 value of g over (lo, hi) and qk21's error estimate.

    The raw |K21 - G10| overstates the error of a smooth g by orders of
    magnitude, so the estimate is resasc*min(1, (200|K21 - G10|/resasc)^1.5),
    where resasc is the K21 integral of |g - mean g|, floored at 50 eps times
    resabs, the K21 integral of |g|.
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = [g(centre + half * x) for x in _NODES]
    kronrod = _fsum(w * y for w, y in zip(_KRONROD, fx))
    gauss = _fsum(w * y for w, y in zip(_GAUSS, fx))
    mean = 0.5 * kronrod
    resabs = half * _fsum(w * abs(y) for w, y in zip(_KRONROD, fx))
    resasc = half * _fsum(w * abs(y - mean) for w, y in zip(_KRONROD, fx))
    error = abs((kronrod - gauss) * half)
    if resasc != 0.0 and error != 0.0:
        error = resasc * min(1.0, (200.0 * error / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        error = max(50.0 * _EPS * resabs, error)
    return kronrod * half, error


def _resolvable(lo: float, hi: float) -> bool:
    """Whether the outermost K21 nodes of (lo, hi) round strictly inside it."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return lo < centre - half * _XGK[0] and centre + half * _XGK[0] < hi


def _finite(x: float, y: float) -> float:
    if not math.isfinite(y):
        raise DomainError(f"integrand is {y!r} at x = {x!r}")
    return y


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    scale: float = 1.0,
) -> QuadratureResult:
    """Adaptive integral of f over (a, b); b may be math.inf.

    Globally adaptive G10/K21: starting from (a, b), the interval with the
    largest qk21 error estimate is bisected until the summed estimate is
    below max(tol, tol*|value|).  Reaching QUAD_LIMIT intervals first, or an
    interval too narrow to bisect, raises BudgetExceededError with the
    partial value and its estimate.  There is no extrapolation, so f should
    be smooth on the open range, up to integrable endpoint behaviour.  f is
    evaluated only at interior nodes; a non-finite value raises DomainError
    naming the node, and so does a sum that overflows.  The value is the
    math.fsum of the intervals' values, so it does not depend on the order
    they were found in; `evaluations` is 21 per interval the rule was
    applied to.

    For b = inf the declared substitution x = a + scale*t/(1-t) maps
    (0,1) -> (a,inf); `scale` moves the transformed nodes toward the
    integrand's natural scale and must be chosen deterministically by the
    caller.
    """
    if not tol > 0:
        raise DomainError("tol must be > 0")
    if not b > a:
        raise DomainError("need b > a")

    if math.isinf(b):
        if not scale > 0:
            raise DomainError("scale must be > 0")

        def g(t: float) -> float:
            u = 1.0 - t
            x = a + scale * t / u
            return _finite(x, f(x) * scale / (u * u))

        lo, hi = 0.0, 1.0
    else:

        def g(x: float) -> float:
            return _finite(x, f(x))

        lo, hi = a, b

    value, error = _gk21(g, lo, hi)
    intervals = [(error, lo, hi, value)]
    while True:
        value = _fsum(item[3] for item in intervals)
        error = _fsum(item[0] for item in intervals)
        bound = max(tol, tol * abs(value))
        if error <= bound:
            return QuadratureResult(
                value=value, error_estimate=error, evaluations=21 * (2 * len(intervals) - 1))
        worst = max(intervals)
        _, lo, hi, _ = worst
        mid = 0.5 * (lo + hi)
        if len(intervals) >= QUAD_LIMIT or not (_resolvable(lo, mid) and _resolvable(mid, hi)):
            where = (f"after {QUAD_LIMIT} intervals" if len(intervals) >= QUAD_LIMIT
                     else "at an interval too narrow to bisect")
            raise BudgetExceededError(
                f"quadrature budget exhausted {where}: error estimate {error:.3e} "
                f"above {bound:.3e}",
                partial_value=value,
                error_estimate=error,
            )
        intervals.remove(worst)
        for piece in ((lo, mid), (mid, hi)):
            piece_value, piece_error = _gk21(g, *piece)
            intervals.append((piece_error, *piece, piece_value))


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Quadrature grid for 4*pi*int r^2 f(r) dr on (0, r_max).

    nodes are strictly increasing and positive; weights already include the
    4*pi*r^2 measure factor, so a radial integral is weights @ values.
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise PreconditionError("nodes and weights must be 1D of equal length")
        if not np.all(nodes > 0):
            raise PreconditionError("nodes must be positive")
        if not np.all(np.diff(nodes) > 0):
            raise PreconditionError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise PreconditionError("weights must be positive")

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


# Most nodes of a uniform radial grid, checked before anything is allocated.
# At the cap `dyson-minimize --nodes 1000000` takes 44 s and peaks at 393 MB
# RSS (in-process ru_maxrss, 2 shared CPUs); at 16000 nodes, 0.6 s and 37 MB.
GRID_NODES_CAP = 1_000_000


def uniform_radial_grid(n_nodes: int = 800, r_max: float = 40.0) -> RadialGrid:
    """Equally spaced grid h, 2h, ..., r_max with trapezoid weights 4*pi*r^2*h
    (half weight at r_max; the r=0 endpoint carries zero weight).

    For smooth even profiles decayed at r_max the rule is spectrally
    accurate (all odd derivatives of r^2*f vanish at both endpoints), which
    suits gradient-based functionals far better than panel rules whose
    clustered nodes inflate finite-difference error.  More than
    GRID_NODES_CAP nodes raise ResourceLimitError.
    """
    if n_nodes < 8:
        raise PreconditionError("need at least 8 nodes")
    if n_nodes > GRID_NODES_CAP:
        raise ResourceLimitError(f"{n_nodes} grid nodes exceed cap {GRID_NODES_CAP}")
    if not r_max > 0:
        raise DomainError("r_max must be positive")
    h = r_max / n_nodes
    r = h * np.arange(1, n_nodes + 1)
    w = 4.0 * math.pi * r * r * h
    w[-1] *= 0.5
    return RadialGrid(nodes=r, weights=w, r_max=r_max)


# A pivot of the reduction smaller than _GUARD * tnorm in size (tnorm: the
# larger Gershgorin bound in size), with a neighbour on each side, would
# leave rounding of order eps * tnorm^2 / pivot in the pivots after it: such
# a lane is recounted by the sequential Sturm recurrence.  A pivot smaller
# than _PIVMIN * tnorm counts as -_PIVMIN * tnorm, a change of the matrix far
# below the eigenvalues' grid step.  Both floors scale with the matrix, so the
# counts, and the eigenvalues they settle, of 2^k T are those of T times 2^k
# exactly.
_GUARD = 2.0**-20
_PIVMIN = _EPS * _EPS


def _sturm_count(shifted: list[float], off_sq: list[float], pivmin: float) -> int:
    """Negative pivots of the LDL^T recurrence d_i = a_i - b_{i-1}^2 / d_{i-1},
    a pivot smaller than pivmin counting as -pivmin (LAPACK's ?laebz rule)."""
    count, pivot = 0, shifted[0]
    for i in range(1, len(shifted) + 1):
        if abs(pivot) < pivmin:
            pivot = -pivmin
        if pivot < 0:
            count += 1
        if i < len(shifted):
            pivot = shifted[i] - off_sq[i - 1] / pivot
    return count


def _split_into(target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """`source` copied into the first rows of `target` in split order, its
    even rows and then its odd rows; returns those rows of `target`."""
    half = (source.shape[0] + 1) // 2
    target[:half], target[half:source.shape[0]] = source[0::2], source[1::2]
    return target[:source.shape[0]]


# rows of signs a uint8 sum takes at once: it counts up to 255
_SIGN_ROWS = 255


def _inertia(diag: np.ndarray, rows: np.ndarray, shifts: np.ndarray, off_sq: np.ndarray,
             tnorm: np.ndarray, slope: bool = False):
    """Number of negative eigenvalues of each symmetric tridiagonal matrix
    diag[rows[k]] - shifts[k] (lane k), all with the squared off-diagonal
    `off_sq` (n - 1).

    Odd-even reduction: the entries 0, 2, 4, ... are decoupled from one
    another, so eliminating them leaves them as pivots and a tridiagonal
    Schur complement on 1, 3, 5, ...; by Sylvester's law of inertia the
    negative pivots of all about log2(n) levels add up to the count.

    With `slope`, (count, S) instead: the determinant is the product of
    those pivots, so S = d/dx log|det(A - x)| is the sum of p'/p over them,
    p' the derivative of pivot p in the shift x of the lane's matrix A - x.
    The reduction carries d' and c'/c of its diagonal d and squared
    off-diagonal c.  S is the sum of the p'/p of the levels past the first
    minus the sum of the first level's reciprocal pivots, each sum taken
    row by row in order, level after level (numpy sums a lone lane's column
    pairwise instead).  A recounted lane's S is NaN.

    A level keeps its own rows alone, in one scratch of about 2.5 n rows x
    lanes: the shifted diagonals are written into it even rows first, a
    level computes in place with every operand a block of whole rows, and
    its kept rows are copied in the same split order into blocks it no
    longer uses, so numpy copies no strided operand through a buffer.  The
    first level scales the rows by the shared off-diagonal through einsum,
    which takes a strided operand as it is where a broadcasting ufunc
    allocates a buffer, and the negative pivots are counted _SIGN_ROWS rows
    at a time in uint8, so no count casts a level's signs to int64.
    """
    n, lanes = diag.shape[1], rows.size
    first, kept = (n + 1) // 2, n // 2
    # the diagonals; the reciprocal pivots, after a row that leads the sum
    # of a level's p'/p; a third and a fourth block of kept rows, one row
    # more in the fourth, where the second level's reciprocal pivots go
    scratch = np.empty((n + first + 2 * kept + 2, lanes))
    d, spare = scratch[:n], scratch[n:n + first + 1]
    third, fourth = scratch[n + first + 1:n + first + kept + 1], scratch[n + first + kept + 1:]
    for lane, (row, shift) in enumerate(zip(rows.tolist(), shifts.tolist())):
        np.subtract(diag[row, 0::2], shift, out=d[:first, lane])
        np.subtract(diag[row, 1::2], shift, out=d[first:, lane])
    guard, floor = _GUARD * tnorm, _PIVMIN * tnorm
    limit, largest_floor = 1.0 / guard.max(), floor.max()
    count, recount = np.zeros(lanes, np.int64), np.zeros(lanes, dtype=bool)
    signs = np.empty((first, lanes), dtype=np.uint8)
    size, c, rate_sum = n, None, 0.0
    # A small pivot shows as a large reciprocal.  The lanes to be recounted
    # may overflow, and fmax/fmin skip the NaN they may leave.
    with np.errstate(all="ignore"):
        while True:
            pivots, kept, right_count = (size + 1) // 2, size // 2, (size - 1) // 2
            pivot = d[:pivots]
            inverse = np.divide(1.0, pivot, out=spare[1:pivots + 1])
            if np.fmax.reduce(inverse, axis=None) > limit or (
                    np.fmin.reduce(inverse, axis=None) < -limit):
                magnitude = np.abs(pivot)
                # a pivot at an end has one neighbour, which no other
                # rounding then cancels against
                recount |= (magnitude < guard)[1:kept].any(axis=0)
                if np.fmin.reduce(magnitude, axis=None) < largest_floor:
                    np.divide(1.0, np.where(magnitude < floor, -floor, pivot), out=inverse)
            negative = signs[:pivots]
            np.signbit(inverse, out=negative.view(bool))
            for start in range(0, pivots, _SIGN_ROWS):
                count += np.einsum("ij->j", negative[start:start + _SIGN_ROWS])
            # kept entry j couples to the pivots j (left) and j + 1 (right)
            if c is None:
                # the first level, where c = off_sq, d' = -1 and c' = 0, so
                # c/p has the log-derivative 1/p
                if slope:
                    first_sum = np.einsum("ij->j", inverse)
                left_rate, right_rate = inverse[:kept], inverse[1:right_count + 1]
                left = np.einsum("i,ij->ij", off_sq[0:2 * kept:2], left_rate, out=d[:kept])
                right = np.einsum("i,ij->ij", off_sq[1::2], right_rate, out=third[:right_count])
                if slope:
                    change = np.multiply(left, left_rate, out=fourth[:kept])
                    d_rate = np.subtract(-1.0, change, out=change)
                targets = spare, d[pivots:], d[:pivots], third
                spare = fourth
            else:
                left = np.multiply(c[:kept], inverse[:kept], out=c[:kept])
                right = np.multiply(c[kept:size - 1], inverse[1:right_count + 1],
                                    out=c[kept:size - 1])
                if slope:
                    # p'/p in place of the reciprocal pivots, summed after
                    # the earlier levels' sum
                    rate = np.multiply(d_rate[:pivots], inverse, out=inverse)
                    spare[0] = rate_sum
                    rate_sum = np.add.reduce(spare[:pivots + 1], axis=0)
                    # c/p has the log-derivative c'/c - p'/p
                    left_rate = np.subtract(c_rate[:kept], rate[:kept], out=c_rate[:kept])
                    right_rate = np.subtract(c_rate[kept:size - 1], rate[1:right_count + 1],
                                             out=c_rate[kept:size - 1])
                    change = np.multiply(left, left_rate, out=d_rate[:kept])
                    d_rate = np.subtract(d_rate[pivots:size], change, out=change)
                targets, spare = (spare, c_rate_area, d_area, c_area), d_rate_area
            if kept == 0:
                break
            d_next = np.subtract(d[pivots:size], left, out=d[pivots:size])
            d_next[:right_count] -= right
            # (b_{2j+1} b_{2j+2} / p_{2j+2})^2 couples kept j and j + 1
            c_next = np.multiply(right[:kept - 1], left[1:], out=left[1:])
            if slope:
                right *= right_rate
                d_rate[:right_count] -= right
                c_rate = np.add(right_rate[:kept - 1], left_rate[1:], out=right[:kept - 1])
            # the next level's rows, in split order, into blocks this level
            # is done with, in an order that frees each block before it fills
            d_area, c_area, c_rate_area, d_rate_area = targets
            d, c = _split_into(d_area, d_next), _split_into(c_area, c_next)
            if slope:
                c_rate = _split_into(c_rate_area, c_rate)
                d_rate = _split_into(d_rate_area, d_rate)
            size = kept
    for lane in np.flatnonzero(recount):
        count[lane] = _sturm_count((diag[rows[lane]] - shifts[lane]).tolist(), off_sq.tolist(),
                                   _PIVMIN * float(tnorm[lane]))
    if not slope:
        return count
    total = rate_sum - first_sum
    total[recount] = np.nan
    return count, total


def _tridiagonal(diag, off):
    """diag as a 2-D stack of diagonals, the shared off-diagonal, and each
    matrix's Gershgorin bounds."""
    diag = np.atleast_2d(np.asarray(diag, dtype=float))
    off = np.asarray(off, dtype=float)
    if diag.ndim != 2 or off.shape != (diag.shape[1] - 1,):
        raise PreconditionError("need diagonals of length n and one off-diagonal of n - 1")
    radius = np.zeros(diag.shape[1])
    radius[:-1] = np.abs(off)
    radius[1:] += np.abs(off)
    return diag, off, (diag - radius).min(axis=1), (diag + radius).max(axis=1)


def _tnorm(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(lower), np.abs(upper))


def tridiagonal_counts(diag, off, shifts) -> np.ndarray:
    """Number of eigenvalues below shifts[i] of the symmetric tridiagonal
    matrix with diagonal diag[i] and off-diagonal `off`, which every matrix
    of the stack shares."""
    diag, off, lower, upper = _tridiagonal(diag, off)
    rows, shifts = np.broadcast_arrays(np.arange(diag.shape[0]), np.asarray(shifts, dtype=float))
    return _inertia(diag, rows, shifts, off * off, _tnorm(lower, upper)[rows])


def _estimate(points, slopes, above):
    """Where the last two counts of each lane put its eigenvalue.

    `points` (2 x lanes, the later second) are where they were taken,
    `slopes` S there and `above` whether each count was above the lane's
    index.  The estimate is the pole lam of the model S(x) = 1/(x - lam) + B
    through both slopes, B standing for the other eigenvalues: on the far
    side of both points when their counts agree, else the root between them
    nearer Newton's estimate x - 1/S(x) from the later point, which is the
    estimate where the model has no real pole.
    """
    (first, last), (first_slope, last_slope) = points, slopes
    with np.errstate(all="ignore"):
        newton = last - 1.0 / last_slope
        # (first - lam)(last - lam) = (last - first) / (first_slope - last_slope)
        centre, half = 0.5 * (first + last), 0.5 * (last - first)
        radius = np.sqrt((last - first) / (first_slope - last_slope) + half * half)
        nearer = np.abs(centre + radius - newton) <= np.abs(centre - radius - newton)
    beyond = np.where(above[1], -radius, radius)
    between = np.where(nearer, radius, -radius)
    pole = centre + np.where(above[0] == above[1], beyond, between)
    return np.where(np.isfinite(pole), pole, newton)


def _split(lo, hi, newton, estimate, step):
    """Grid index of each lane's next count, strictly inside its bracket
    (lo, hi) of grid indices: where `newton`, the one nearest `estimate`,
    nudged off the ends, if the estimate lies in the bracket; else the
    integer midpoint."""
    with np.errstate(invalid="ignore"):
        guess = estimate / step
        newton = newton & (guess >= lo) & (guess <= hi)
    nearest = np.rint(np.where(newton, guess, 0.0)).astype(np.int64)
    return np.where(newton, np.clip(nearest, lo + 1, hi - 1), (lo + hi) >> 1)


# A lane whose bracket has not halved in this many counts splits at the
# midpoint, so whatever the slopes, a bracket halves at least once in every
# _STALL + 1 counts.  No lane of lt-study or sobolev-study stalls for 6.
_STALL = 8

_COUNTERS = contextvars.ContextVar("solver_counters", default=None)


@contextlib.contextmanager
def solver_counters():
    """A dict of the work `tridiagonal_eigenvalues` does in the block: its
    `inertia_calls` and `lane_evaluations` (matrices counted with their
    slopes), which also add to those of an enclosing block."""
    counters, outer = {"inertia_calls": 0, "lane_evaluations": 0}, _COUNTERS.get()
    token = _COUNTERS.set(counters)
    try:
        yield counters
    finally:
        _COUNTERS.reset(token)
        if outer is not None:
            for name, value in counters.items():
                outer[name] += value


def tridiagonal_eigenvalues(diag, off, rows, index, upper, splits=None) -> np.ndarray:
    """Eigenvalue number index[k] (0 the lowest) of the symmetric tridiagonal
    matrix with diagonal diag[rows[k]] and the shared off-diagonal `off`, for
    each lane k; the caller knows it to lie at or below upper[k].

    Each lane keeps its bracket as integer multiples [lo, hi] of a grid
    step q, the largest power of two at or below eps * tnorm (tnorm: the
    larger Gershgorin bound in size; eps * tnorm is the default tolerance
    of LAPACK's ?stebz).  It starts at the grid points just outside the
    Gershgorin lower bound and upper[k], and an inertia count at a grid
    point inside moves one end there, until hi - lo = 1: the eigenvalue is
    (lo + 1/2) q.  Until the counts at both ends show the bracket holds
    eigenvalue index[k] alone, the count is at the integer midpoint; then at
    the grid point nearest the estimate of `_estimate` from the lane's last
    two counts and the slopes S = d/dx log|det(T - x)| there (`_inertia`),
    a Newton step corrected for the other eigenvalues.  As in Numerical
    Recipes' rtsafe, the midpoint stands in when the estimate leaves the
    bracket or does not converge: when the bracket has not halved in
    _STALL counts.

    Each end is thus a grid point settled by its count, so with monotone
    counts the eigenvalue depends on the counts alone, not on where they
    were taken: it is the one bisection on the same grid finds, and 2^k T
    has the eigenvalues of T times 2^k exactly.  `splits` (lanes x j), if
    given, are each lane's first j split points, taken at the nearest grid
    points in one count; those outside the bracket are ignored.

    The live lanes are counted `trials_per_block(2, n)` at a time, each
    count in one scratch of about 2.5 n rows per lane (`_inertia`), so a
    stack of many matrices, the channels of several wells on one grid,
    costs its diagonals and the scratch of one count: the 88 lanes of
    lt-study's three wells, 60 counts of 16 lanes or fewer, peak at 1.28 MB
    of traced memory.

    The count itself carries rounding: odd-even reduction is not backward
    stable for every matrix.  Against ?stebz the eigenvalues of the radial
    stencils of `spectral` agreed within 0.7 eps * tnorm, those of 200
    random indefinite matrices within 1250 (median 11): where the counts
    are not monotone, within a few hundred grid steps of an eigenvalue,
    other split points may settle another cell of that band.
    """
    diag, off, lower, top = _tridiagonal(diag, off)
    rows = np.asarray(rows, dtype=np.intp)
    index = np.asarray(index, dtype=np.int64)
    tnorm = _tnorm(lower, top)[rows]
    # a zero matrix takes step 1, which its empty bracket [0, 0] never uses
    step = np.where(tnorm > 0, np.ldexp(0.5, np.frexp(_EPS * tnorm)[1]), 1.0)
    lo = np.floor(lower[rows] / step).astype(np.int64)
    hi = np.ceil(np.minimum(upper, top[rows]) / step).astype(np.int64)
    # the counts at lo (none below the Gershgorin bound) and hi (at most
    # all, until hi is counted)
    below, above = np.zeros(rows.size, np.int64), np.full(rows.size, diag.shape[1])
    # the last two counts of each lane, the later second: their points,
    # slopes and sides
    points, slopes = np.full((2, rows.size), np.nan), np.full((2, rows.size), np.nan)
    sides = np.zeros((2, rows.size), bool)
    # the width the bracket is to halve to, and the counts since it last did;
    # >> 1 halves as // 2 does, rounding down, without numpy's int64 floor
    # division, whose code no other check runs (64 KB more resident memory)
    target, stalled = (hi - lo) >> 1, np.zeros(rows.size, np.int64)
    off_sq = off * off

    def count(lanes, split):
        """Counts and slopes of lanes[i] at grid index split[i], each
        distinct (row, grid index) counted once: sibling lanes share a
        bracket, and so a split point, until a count parts them."""
        pairs = list(zip(rows[lanes].tolist(), split.tolist()))
        first = {}
        for lane, pair in enumerate(pairs):
            first.setdefault(pair, lane)
        once = np.fromiter(first.values(), np.intp)
        where = np.searchsorted(once, [first[pair] for pair in pairs])
        if once.size == 1 < lanes.size:
            # numpy sums a lone column in another order than a stack of them
            once = np.repeat(once, 2)
        lanes, split = lanes[once], split[once]
        counters = _COUNTERS.get()
        if counters is not None:
            counters["inertia_calls"] += 1
            counters["lane_evaluations"] += lanes.size
        counts, slope = _inertia(diag, rows[lanes], split * step[lanes], off_sq, tnorm[lanes],
                                 slope=True)
        return counts[where], slope[where]

    def settle(lanes, split, counts, slope):
        """Move the brackets of `lanes` (each once) to the counts inside."""
        inside = (lo[lanes] < split) & (split < hi[lanes])
        lanes, split, counts, slope = lanes[inside], split[inside], counts[inside], slope[inside]
        x, up = split * step[lanes], counts > index[lanes]
        hi[lanes[up]], above[lanes[up]] = split[up], counts[up]
        lo[lanes[~up]], below[lanes[~up]] = split[~up], counts[~up]
        points[:, lanes], slopes[:, lanes], sides[:, lanes] = (
            (points[1, lanes], x), (slopes[1, lanes], slope), (sides[1, lanes], up))
        width = hi[lanes] - lo[lanes]
        halved = width <= target[lanes]
        stalled[lanes] = np.where(halved, 0, stalled[lanes] + 1)
        target[lanes] = np.where(halved, width >> 1, target[lanes])

    if splits is not None:
        grid = np.rint(np.asarray(splits, dtype=float) / step[:, None]).astype(np.int64)
        lanes, width = np.arange(rows.size), grid.shape[1]
        counts, slope = count(np.repeat(lanes, width), grid.ravel())
        for j in range(width):
            settle(lanes, grid[:, j], counts[j::width], slope[j::width])
    block = trials_per_block(2, diag.shape[1])
    while True:
        live = np.flatnonzero(hi - lo > 1)
        if live.size == 0:
            break
        for start in range(0, live.size, block):
            lanes = live[start:start + block]
            isolated = ((below[lanes] == index[lanes]) & (above[lanes] == index[lanes] + 1)
                        & (stalled[lanes] < _STALL))
            estimate = _estimate(points[:, lanes], slopes[:, lanes], sides[:, lanes])
            split = _split(lo[lanes], hi[lanes], isolated, estimate, step[lanes])
            settle(lanes, split, *count(lanes, split))
    return np.where(tnorm > 0, (lo + 0.5) * step, 0.0)


def tridiagonal_ldl(diag, off) -> tuple[list[float], list[float]]:
    """LDL^T factors (d, l) of the symmetric positive definite tridiagonal
    matrix with diagonal `diag` and off-diagonal `off`: the recurrence
    l_i = off_i / d_i, d_{i+1} = diag_{i+1} - l_i off_i of LAPACK's ?pttrf,
    in that order of operations, so `tridiagonal_ldl_solve` returns what
    ?ptsv (scipy's solveh_banded on two bands) does, bit for bit.  A pivot
    <= 0 raises DomainError."""
    diag = np.asarray(diag, dtype=float).tolist()
    pivot, d, ell = diag[0], [], []
    for off_i, next_diag in zip(np.asarray(off, dtype=float).tolist(), diag[1:]):
        if not pivot > 0:
            break
        d.append(pivot)
        ell.append(off_i / pivot)
        pivot = next_diag - ell[-1] * off_i
    if not pivot > 0:
        raise DomainError(f"matrix is not positive definite: pivot {len(d)} is {pivot!r}")
    d.append(pivot)
    return d, ell


def tridiagonal_ldl_solve(factor: tuple[list[float], list[float]], rhs) -> np.ndarray:
    """Solution of L D L^T x = rhs for the factor of `tridiagonal_ldl`, by
    ?pttrs's forward and back substitutions."""
    d, ell = factor
    rhs = np.asarray(rhs, dtype=float).tolist()
    y = [rhs[0]]
    for b_i, l_i in zip(rhs[1:], ell):
        y.append(b_i - y[-1] * l_i)
    x = [y[-1] / d[-1]]
    for y_i, d_i, l_i in zip(y[-2::-1], d[-2::-1], ell[::-1]):
        x.append(y_i / d_i - x[-1] * l_i)
    return np.array(x[::-1])


# Most words seed_words derives at once, one per trial of an ensemble.  A
# seeded run keeps its trials as columns of 8-byte numbers until its records
# are written: check-inequalities (three checkers) peaks at 37.0 MB RSS at
# 2e4 trials and 54.0 MB at 1e5, trialstate --check berezin-lieb (four xi)
# at 37.3 and 58.9 MB, 0.2-0.3 KB per trial, so the cap holds a run near
# 300 MB.
SEED_WORDS_CAP = 1_000_000


# The constants of SeedSequence's hash (O'Neill's seed_seq_fe): the pool of
# 4 32-bit words is mixed with hashmix (INIT_A, MULT_A) and mix (MIX_MULT_L,
# MIX_MULT_R); output word i is hashed with INIT_B MULT_B^i.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _XSHIFT = 0xFFFFFFFF, 16


def _seed_pool(seed: int) -> list[int]:
    """SeedSequence(seed)'s pool: the 32-bit words of `seed`, least
    significant first, hashed into 4 words that each depend on every one."""
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _seed_array(seed: int, count: int) -> np.ndarray:
    """`seed_words(seed, count)` as a uint64 array."""
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    if count > SEED_WORDS_CAP:
        raise ResourceLimitError(f"{count} trials exceed cap {SEED_WORDS_CAP}")
    hashes = np.full(2 * count + 1, _MULT_B, dtype=np.uint64)
    hashes[0] = _INIT_B
    # products wrap modulo 2^64, so their low 32 bits are those modulo 2^32
    np.cumprod(hashes, out=hashes)
    hashes &= _MASK32
    state = np.resize(np.array(_seed_pool(seed), dtype=np.uint64), 2 * count)
    state ^= hashes[:-1]
    state *= hashes[1:]
    state &= _MASK32
    state ^= state >> _XSHIFT
    return state[0::2] | state[1::2] << 32


def seed_words(seed: int, count: int) -> list[int]:
    """The first `count` uint64 words of SeedSequence(seed), numpy's seed
    hash: `generate_state(count, uint64)`, computed here bit for bit.

    32-bit word i is ((pool[i % 4] ^ h_i) h_(i+1)) ^ (that >> 16), all
    modulo 2^32, with h_i = INIT_B MULT_B^i; uint64 word k joins words 2k
    (low half) and 2k + 1.  Every seeded run derives its per-trial or
    per-check seeds here, so word k depends only on the seed and k.  A
    count above SEED_WORDS_CAP raises ResourceLimitError before anything
    is allocated.
    """
    return _seed_array(seed, count).tolist()


def trial_blocks(seed: int, trials: int, block: int):
    """The trial seeds of a seeded ensemble as one uint64 array (trials,),
    and the slices that cut it into blocks of `block` consecutive trials:
    an ensemble draws a block from ``seeds[rows]``, a view, and fills the
    same rows of its columns.  Trial k's seed is word k of
    `seed_words(seed, trials)`.  A trial count below 1 raises
    PreconditionError, one above SEED_WORDS_CAP ResourceLimitError, both
    in this call, before anything is drawn."""
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    seeds = _seed_array(seed, trials)
    return seeds, (slice(start, start + block) for start in range(0, trials, block))


def trial_stack(trial_seed: int) -> np.ndarray:
    """The uint64 stack (1,) of one trial seed, which a one-trial replay
    draws from; a seed outside [0, 2^64) raises PreconditionError."""
    if not 0 <= trial_seed < 2**64:
        raise PreconditionError(f"trial_seed must be a uint64 word, got {trial_seed}")
    return np.array([trial_seed], dtype=np.uint64)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), the draw stream of every
# seeded ensemble: word j of the stream seeded at s is the mix of
# s + (j + 1) GAMMA modulo 2^64, so any words of any seeds are drawn at once.
# Only arrays are mixed: numpy array arithmetic wraps silently, where a numpy
# scalar that overflows warns.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_LAST, _FRACTION = np.uint64(31), np.uint64(11)


def _splitmix64_into(words: np.ndarray, seeds: np.ndarray, first: int, stride: int,
                     scratch: np.ndarray) -> None:
    """Words first, first + stride, first + 2 stride, ... of each stream,
    written into `words` (uint64, (T, k)); `scratch`, of the same shape,
    holds the shifted copies the mix xors in."""
    # s + (j + 1) GAMMA, broadcast by copies: numpy buffers a broadcast operand
    steps = np.arange(first + 1, first + stride * words.shape[1] + 1, stride, dtype=np.uint64)
    np.copyto(words, seeds[:, None])
    np.copyto(scratch, steps * _GAMMA)
    words += scratch
    for shift, multiplier in _MIX:
        words ^= np.right_shift(words, shift, out=scratch)
        words *= multiplier
    words ^= np.right_shift(words, _LAST, out=scratch)


def splitmix64(seeds: np.ndarray, first: int, count: int) -> np.ndarray:
    """Words first, ..., first + count - 1 (uint64, (T, count)) of the
    SplitMix64 stream seeded at each of `seeds` (uint64, (T,))."""
    words = np.empty((seeds.size, count), dtype=np.uint64)
    _splitmix64_into(words, seeds, first, 1, np.empty_like(words))
    return words


def uniforms(seeds: np.ndarray, first: int, count: int) -> np.ndarray:
    """Those words as doubles u = (w >> 11) 2^-53 in [0, 1), shape (T, count)."""
    words = splitmix64(seeds, first, count)
    words >>= _FRACTION
    return words * 2.0**-53


def normal_words(count: int) -> int:
    """Words of a stream that `count` normals take: 2 ceil(count / 2)."""
    return count + count % 2


def normals(seeds: np.ndarray, first: int, count: int) -> np.ndarray:
    """`count` standard normals (T, count) from words first, ...,
    first + normal_words(count) - 1 of each stream, by Box-Muller (Box &
    Muller, Ann. Math. Stat. 29 (1958) 610).

    Normals 2k and 2k + 1 take words first + 2k and first + 2k + 1 as
    u1 = ((w >> 11) + 1) 2^-53 in (0, 1], so log never sees 0, and
    u2 = (w >> 11) 2^-53; they are r cos(2 pi u2) and r sin(2 pi u2) with
    r = sqrt(-2 log u1).  An odd count drops the last sine.  Each value is
    a function of its two words alone.

    It allocates the output (T, normal_words(count)) and one buffer of
    half its size, and computes in them: the even words in the buffer,
    then r in the even half of the output; the odd words in the buffer,
    then 2 pi u2 in the odd half, its sine in the buffer and its cosine
    in place, each scaled by r.  The mix of each half's words uses the
    odd half of the output as scratch.
    """
    out = np.empty((seeds.size, normal_words(count)))
    half = np.empty((seeds.size, out.shape[1] // 2))
    words, radius, angle = half.view(np.uint64), out[:, 0::2], out[:, 1::2]
    scratch = angle.view(np.uint64)
    _splitmix64_into(words, seeds, first, 2, scratch)
    words >>= _FRACTION
    words += 1
    np.copyto(radius, words, casting="unsafe")
    radius *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    _splitmix64_into(words, seeds, first + 1, 2, scratch)
    words >>= _FRACTION
    np.copyto(angle, words, casting="unsafe")
    angle *= 2.0 * math.pi * 2.0**-53
    sine = np.sin(angle, out=half)
    np.cos(angle, out=angle)
    sine *= radius
    radius *= angle
    np.copyto(angle, sine)
    return out[:, :count]


# Byte budget of one stacked float64 array in the batched ensembles, which
# bounds their memory at any trial count: a 64 x 64 matrix per trial gives
# blocks of 16 trials.  Blocks of 32 ran `matrixloc-ensemble` 0-10% faster
# in-process but raised the peak RSS of `verify --quick --seed 1905` from
# 35.3 to 36.6 MB.  A Berezin-Lieb trial counts every float64 its block holds
# at its peak (`trialstate._BLOCK_NUMBERS`), which gives blocks of 112.  The
# lanes of `tridiagonal_eigenvalues` take half blocks, 16 lanes of the
# 2000-node channel stencils: a count with slopes keeps about 2.5 columns
# of n doubles per lane (its shifted diagonal, the first level's reciprocal
# pivots and two half columns of kept rows).  Lanes of 32 ran lt-study's
# eigenvalues 20-27% faster in-process but raised their traced peak from
# 1.28 to 1.93 MB.
BLOCK_BYTES = 1 << 19


def trials_per_block(*shape: int) -> int:
    """Trials per block when each trial stacks one float64 array of `shape`
    (at least one, whatever the shape)."""
    return max(1, BLOCK_BYTES // (8 * math.prod(shape)))
