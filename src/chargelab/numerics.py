"""Shared numerical kernels: 1D adaptive quadrature, uniform radial grids
for 3D radial integrals, seed derivation, and the block size of the
batched ensembles.

All downstream 1D integrals funnel through `integrate_1d`, a globally
adaptive Gauss-Kronrod integrator: the 21-point Kronrod rule with its
embedded 10-point Gauss rule (G10/K21) and the error estimate of QUADPACK's
qk21 (Piessens et al., 1983).  Radial integrals are the dot product of a
grid's weights with node values.  Semi-infinite ranges use one declared
substitution, x = a + scale*t/(1-t), and only interior nodes are evaluated,
so results are reproducible bit-for-bit for identical inputs.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetExceededError, DomainError, PreconditionError

__all__ = [
    "QuadratureResult",
    "RadialGrid",
    "integrate_1d",
    "uniform_radial_grid",
    "seed_words",
    "BLOCK_BYTES",
    "trials_per_block",
]


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
    limit: int = 200,
) -> QuadratureResult:
    """Adaptive integral of f over (a, b); b may be math.inf.

    Globally adaptive G10/K21: starting from (a, b), the interval with the
    largest qk21 error estimate is bisected until the summed estimate is
    below max(tol, tol*|value|).  Reaching `limit` intervals first, or an
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
    if limit < 1:
        raise DomainError("limit must be >= 1")

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
        if len(intervals) >= limit or not (_resolvable(lo, mid) and _resolvable(mid, hi)):
            where = (f"after {limit} intervals" if len(intervals) >= limit
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


def uniform_radial_grid(n_nodes: int = 800, r_max: float = 40.0) -> RadialGrid:
    """Equally spaced grid h, 2h, ..., r_max with trapezoid weights 4*pi*r^2*h
    (half weight at r_max; the r=0 endpoint carries zero weight).

    For smooth even profiles decayed at r_max the rule is spectrally
    accurate (all odd derivatives of r^2*f vanish at both endpoints), which
    suits gradient-based functionals far better than panel rules whose
    clustered nodes inflate finite-difference error.
    """
    if n_nodes < 8:
        raise PreconditionError("need at least 8 nodes")
    if not r_max > 0:
        raise DomainError("r_max must be positive")
    h = r_max / n_nodes
    r = h * np.arange(1, n_nodes + 1)
    w = 4.0 * math.pi * r * r * h
    w[-1] *= 0.5
    return RadialGrid(nodes=r, weights=w, r_max=r_max)


def seed_words(seed: int, count: int) -> list[int]:
    """The first `count` uint64 words of SeedSequence(seed).

    Every seeded run derives its per-trial or per-check seeds here, so word
    i depends only on the seed and i.
    """
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64).tolist()


# Byte budget of one stacked float64 array in the batched ensembles, which
# bounds their memory at any trial count: a 64 x 64 matrix per trial gives
# blocks of 16 trials.  Blocks of 32 ran `matrixloc-ensemble` about 20%
# faster in-process but raised the peak RSS of `verify --quick` by 3%, not 2%.
BLOCK_BYTES = 1 << 19


def trials_per_block(*shape: int) -> int:
    """Trials per block when each trial stacks one float64 array of `shape`
    (at least one, whatever the shape)."""
    return max(1, BLOCK_BYTES // (8 * math.prod(shape)))
