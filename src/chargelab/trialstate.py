"""Condensate trial-state diagnostics.

The quadratic trial state over a condensate of density rho(u) populates
momentum p with occupation f(rho, p); this module evaluates that function,
its momentum integrals (pair energy per unit volume and the particle count
Tr Gamma), the assembled N^(7/5) upper-bound energy, and a Berezin-Lieb
inequality verifier on finite tight frames -- the finite-dimensional content
of the coherent-state operator-Jensen argument.

The frame construction, the frame and Y checks and the two sides of the
trace inequality run on stacks of instances: `berezin_lieb_ensemble`
passes a block of trials, and `random_tight_frame`, `CoherentFrame` and
`berezin_lieb_check` a stack of one, to the same kernels.  Every product
and sum is taken per instance, so an instance's values do not depend on
its block.  A drawn frame has the fixed shape FRAME_COUNT vectors in
dimension FRAME_DIMENSION.

A Berezin-Lieb trial with m vectors in dimension d draws from the
SplitMix64 stream seeded at its recorded trial seed, normals by Box-Muller
pairs of words (`numerics.normals`) and uniforms u one word each:
  words 0 .. 2 ceil(d^2/2) - 1     raw (d x d), row by row; Y = raw raw^T
  next m words                      f = 5u
  next 2 ceil(md/2) words           the frame draw: m x d normals, row by row
A frame draw with a vector norm below NORM_FLOOR, an eigenvalue ratio
below CONDITION_FLOOR or a tight-frame residual above FRAME_TOL raises
SolverError naming its trial seed.  `replay_trial(trial_seed)` draws one
trial with the same code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .correlation import InequalityReport
from .errors import (
    ConsistencyError,
    DomainError,
    PreconditionError,
    SolverError,
)
from .foldy import foldy_j
from .numerics import (
    integrate_1d,
    normal_words,
    normals,
    trial_blocks,
    trial_stack,
    trials_per_block,
    uniforms,
)
from .variational import RadialProfile, functional_energy, rescale

__all__ = [
    "CondensateSpec",
    "CoherentFrame",
    "XI_FUNCTIONS",
    "occupation_f",
    "pointwise_pair_energy",
    "condensate_from_minimizer",
    "trace_gamma",
    "upper_bound_energy",
    "berezin_lieb_check",
    "random_tight_frame",
    "berezin_lieb_ensemble",
    "replay_trial",
]

FRAME_TOL = 1e-10  # tight-frame residual cap, of drawn frames and in CoherentFrame
# A frame draw fails when a vector's norm is below NORM_FLOOR, its frame
# operator's eigenvalues span more than a factor 1 / CONDITION_FLOOR, or its
# tight frame's residual is not at most FRAME_TOL (NaN included).  Over
# 3e5 trials of 8 x 24 frames (master seeds 1905, 2718 and 31415) none
# came close: the smallest norm was 0.29, the smallest eigenvalue ratio
# 0.020 and the largest residual 1.7e-14.
NORM_FLOOR = 1e-8
CONDITION_FLOOR = 1e-8
# pointwise_pair_energy raises beyond this relative distance from -J rho^(5/4);
# each half of its dimensionless integral (about -0.40) is taken to PAIR_QUAD_TOL
PAIR_ENERGY_RTOL = 1e-8
PAIR_QUAD_TOL = 5e-11
FRAME_DIMENSION, FRAME_COUNT = 8, 24  # the frame shape of berezin_lieb_ensemble


def occupation_f(rho: float, p):
    """Occupation of momentum p over a condensate of density rho.

    Equals ((p^4 + 8 pi rho) / (p^2 sqrt(p^4 + 16 pi rho)) - 1) / 2.  In
    the dimensionless variable q = p / (8 pi rho)^(1/4) this is
    ((q^4+1) / (q^2 sqrt(q^4+2)) - 1) / 2, and since (q^4+1)^2 minus
    q^4 (q^4+2) is exactly 1 it reduces to 1 / (2 D (N + D)) with
    N = q^4 + 1, D = q^2 sqrt(q^4 + 2) -- free of the large-q
    cancellation and stable across the full double range of rho.
    Decays like 16 pi^2 rho^2 / p^8 for large p and grows like
    sqrt(pi rho) / p^2 as p -> 0.
    """
    if not rho >= 0:
        raise DomainError("rho must be >= 0")
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0) or not np.all(np.isfinite(p_arr)):
        raise DomainError("p must be finite and > 0")
    if rho == 0.0:
        out = np.zeros_like(p_arr)
        return float(out) if out.ndim == 0 else out
    q2 = p_arr * p_arr / math.sqrt(8.0 * math.pi * rho)
    q4 = q2 * q2
    with np.errstate(over="ignore"):  # huge q: denominator -> inf, f -> 0
        low = q2 * np.sqrt(q4 + 2.0)
        out = 0.5 / (low * (q4 + 1.0 + low))
    return float(out) if out.ndim == 0 else out


def pointwise_pair_energy(rho: float) -> float:
    """(2 pi)^-3 4 pi int_0^inf p^2 [(p^2/2 + b) f - b sqrt(f (f+1))] dp
    with b = 4 pi rho / p^2 and f = occupation_f(rho, p).

    The bracket is t f - b sqrt(f) / (sqrt(f) + sqrt(f+1)) with t = p^2/2,
    the same value without the cancellation of its two large terms at
    small p.  In q = p / s, with s = (8 pi rho)^(1/4) the scale of f, t is
    s^2 q^2 / 2 and b is s^2 / (2 q^2), so the energy is s^5 / (4 pi^2)
    times int_0^inf [q^4 f - sqrt(f) / (sqrt(f) + sqrt(f+1))] dq, with f
    still occupation_f(rho, s q).  That integral is taken over (0, 1)
    with q = r^2 and over (1, inf), each to PAIR_QUAD_TOL, the same at
    every density.  f minimizes the bracket pointwise, so the value is the
    integral of the Bogolubov floor; it is checked against the closed form
    -J rho^(5/4) to PAIR_ENERGY_RTOL.  A rho that is not finite, or above
    about 1e245, where s^5 is not a finite float, raises DomainError.
    """
    if not (rho >= 0 and math.isfinite(rho)):
        raise DomainError(f"rho must be finite and >= 0, got {rho!r}")
    if rho == 0.0:
        return 0.0
    scale = (8.0 * math.pi * rho) ** 0.25
    try:  # finite below rho of about 1e245; J rho^(5/4) is smaller
        prefactor = scale**5
    except OverflowError:
        raise DomainError(f"(8 pi rho)^(5/4) overflows at rho = {rho!r}") from None

    def bracket(q: float) -> float:
        f = occupation_f(rho, scale * q)
        root = math.sqrt(f)
        return q**4 * f - root / (root + math.sqrt(f + 1.0))

    head = integrate_1d(lambda r: 2.0 * r * bracket(r * r), 0.0, 1.0, tol=PAIR_QUAD_TOL)
    tail = integrate_1d(bracket, 1.0, math.inf, tol=PAIR_QUAD_TOL)
    value = prefactor * (head.value + tail.value) / (4.0 * math.pi**2)
    expected = -foldy_j() * rho**1.25
    if abs(value - expected) > PAIR_ENERGY_RTOL * abs(expected):
        raise ConsistencyError(
            f"pair energy {value!r} vs closed form {expected!r} "
            f"beyond {PAIR_ENERGY_RTOL:g} relative"
        )
    return value


@dataclass(frozen=True)
class CondensateSpec:
    """Condensate amplitude squared and its normalized radial profile."""

    lambda0_sq: float
    phi0: RadialProfile

    def __post_init__(self):
        if not (math.isfinite(self.lambda0_sq) and self.lambda0_sq >= 0.0):
            raise DomainError("lambda0_sq must be finite and >= 0")

    def density(self) -> np.ndarray:
        """rho(u) = 2 lambda0^2 phi0(u)^2 on the profile's grid."""
        return 2.0 * self.lambda0_sq * self.phi0.values**2


def condensate_from_minimizer(
    n_particles: int, phi_star: RadialProfile
) -> CondensateSpec:
    """lambda0^2 = N/2 with phi0(x) = N^(3/10) phi(N^(1/5) x).

    The in-tandem grid rescale keeps phi0 exactly normalized.
    """
    if n_particles < 1:
        raise PreconditionError("n_particles must be >= 1")
    return CondensateSpec(
        lambda0_sq=0.5 * float(n_particles),
        phi0=rescale(phi_star, float(n_particles) ** 0.2),
    )


@lru_cache(maxsize=1)
def _momentum_constant() -> float:
    """C = int_0^inf q^2 f(q) dq = Gamma(1/4)^2 / (24 2^(1/4) sqrt(pi)) for the
    occupation in the rescaled variable q = p / (8 pi rho)^(1/4).

    Follows from q^2 f = (sqrt(q^4+2) - q^2 - 1/sqrt(q^4+2)) / 2; the
    closed form is cross-checked once against adaptive quadrature of
    occupation_f at 8 pi rho = 1.
    """
    closed = math.gamma(0.25) ** 2 / (24.0 * 2.0**0.25 * math.sqrt(math.pi))
    rho_unit = 1.0 / (8.0 * math.pi)

    def g(q: float) -> float:
        return q * q * occupation_f(rho_unit, q)

    head = integrate_1d(g, 0.0, 1.0, tol=5e-11)
    tail = integrate_1d(g, 1.0, math.inf, tol=5e-11)
    integral = head.value + tail.value
    if abs(closed - integral) > 1e-8 * closed:
        raise ConsistencyError(
            f"Tr Gamma constant routes disagree: gamma={closed!r} "
            f"integral={integral!r}"
        )
    return closed


def trace_gamma(spec: CondensateSpec) -> float:
    """(2 pi)^-3 iint f(rho(u), |p|) du dp over R^3 x R^3.

    In q = p / (8 pi rho)^(1/4) the momentum integral 4 pi int p^2 f dp at
    density rho is 4 pi (8 pi rho)^(3/4) C with the universal constant
    C = int q^2 f(q) dq, so the total is C sum_u w_u (8 pi rho_u)^(3/4)
    / (2 pi^2); empty nodes (rho_u = 0) contribute exactly zero.
    """
    radial = float(spec.phi0.grid.weights @ (8.0 * math.pi * spec.density()) ** 0.75)
    return _momentum_constant() * radial / (2.0 * math.pi**2)


def upper_bound_energy(n_particles: int, phi_star: RadialProfile) -> float:
    """lambda0^2 int |grad phi0|^2 - J (2 lambda0^2)^(5/4) int phi0^(5/2)
    with lambda0^2 = N/2 and phi0 the N^(1/5) rescale of phi_star.

    Because the grid rescales in tandem with the profile, this equals
    N^(7/5) * functional_energy(phi_star) identically; both routes are
    computed and compared.
    """
    if n_particles < 1:
        raise PreconditionError("n_particles must be >= 1")
    energy, _, _ = functional_energy(phi_star)
    spec = condensate_from_minimizer(n_particles, phi_star)
    _, kinetic0, potential0 = functional_energy(spec.phi0)
    two_lambda_sq = 2.0 * spec.lambda0_sq
    value = spec.lambda0_sq * (2.0 * kinetic0) - two_lambda_sq**1.25 * potential0
    expected = float(n_particles) ** 1.4 * energy
    if abs(value - expected) > 1e-8 * abs(expected):
        raise ConsistencyError(
            f"assembled bound {value!r} differs from scaled functional "
            f"{expected!r} beyond 1e-8 relative"
        )
    return value


@dataclass(frozen=True, eq=False)
class CoherentFrame:
    """Finite tight frame: m >= d unit vectors theta_k with weights
    w_k > 0 satisfying sum_k w_k theta_k theta_k^T = identity."""

    dimension: int
    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.dimension < 2:
            raise DomainError("dimension must be >= 2")
        vectors = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if vectors.ndim != 2 or vectors.shape[1] != self.dimension:
            raise DomainError("vectors must be rows of length `dimension`")
        if vectors.shape[0] < self.dimension:
            raise DomainError("need at least `dimension` vectors")
        if weights.shape[0] != vectors.shape[0]:
            raise DomainError("one weight per vector")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "weights", weights)
        _check_frames(vectors, weights)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def frame_residual(self) -> float:
        return float(_frame_residuals(self.vectors, self.weights))


def _frame_operators(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k theta_k theta_k^T of each frame of a stack (or of one)."""
    return (vectors * weights[..., None]).swapaxes(-1, -2) @ vectors


def _frame_residuals(vectors: np.ndarray, weights: np.ndarray):
    """Largest |eigenvalue| of frame operator minus identity, per frame."""
    gap = _frame_operators(vectors, weights) - np.eye(vectors.shape[-1])
    return np.max(np.abs(np.linalg.eigvalsh(gap)), axis=-1)


def _check_frame_entries(vectors: np.ndarray, weights: np.ndarray) -> None:
    """CoherentFrame's checks of the entries, for a stack of frames (or
    one): finite, weights > 0, unit vectors."""
    if not (np.all(np.isfinite(vectors)) and np.all(np.isfinite(weights))):
        raise DomainError("vectors and weights must be finite")
    if np.any(weights <= 0.0):
        raise DomainError("weights must be > 0")
    norms = np.linalg.norm(vectors, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-10):
        raise DomainError("frame vectors must have unit length")


def _check_frames(vectors: np.ndarray, weights: np.ndarray) -> None:
    """CoherentFrame's numerical checks, for a stack of frames (or one):
    those of the entries and the tight-frame residual."""
    _check_frame_entries(vectors, weights)
    residual = np.max(_frame_residuals(vectors, weights))
    if residual > FRAME_TOL:
        raise DomainError(
            f"tight-frame residual {residual:.3e} exceeds {FRAME_TOL:g}"
        )


def _fail_draws(seeds: np.ndarray, failed: np.ndarray, what: str) -> None:
    """SolverError naming the first of `seeds` whose frame draw `failed`."""
    if np.any(failed):
        seed = int(seeds[np.argmax(failed)])
        raise SolverError(f"the frame draw of trial seed {seed} has {what}")


def _tight_frames(seeds: np.ndarray):
    """Tight frames, vectors (T, FRAME_COUNT, FRAME_DIMENSION) and weights
    (T, FRAME_COUNT), of the trials seeded at `seeds` (uint64, (T,)).

    Each trial's frame draw (module docstring) gives unit vectors theta_k,
    and the rows S^(-1/2) theta_k, normalized, with weights
    |S^(-1/2) theta_k|^2 are a tight frame by construction.  A draw with a
    vector norm below NORM_FLOOR, conditioning below CONDITION_FLOOR or a
    residual not at most FRAME_TOL raises SolverError naming its seed.
    """
    dimension, count = FRAME_DIMENSION, FRAME_COUNT
    first = normal_words(dimension * dimension) + count
    units = normals(seeds, first, count * dimension).reshape(-1, count, dimension)
    norms = np.linalg.norm(units, axis=2)
    _fail_draws(seeds, np.any(norms < NORM_FLOOR, axis=1),
                f"a vector norm below {NORM_FLOOR:g}")
    units /= norms[:, :, None]  # the draws become the unit vectors, in place
    eigenvalues, basis = np.linalg.eigh(units.transpose(0, 2, 1) @ units)
    _fail_draws(seeds, eigenvalues[:, 0] < CONDITION_FLOOR * eigenvalues[:, -1],
                f"an eigenvalue ratio below {CONDITION_FLOOR:g}")
    rows = units @ ((basis / np.sqrt(eigenvalues)[:, None, :]) @ basis.transpose(0, 2, 1))
    del units, basis  # so that the residual check does not stack on them
    weights = np.einsum("tkd,tkd->tk", rows, rows)
    rows /= np.sqrt(weights)[:, :, None]
    _fail_draws(seeds, ~(_frame_residuals(rows, weights) <= FRAME_TOL),
                f"a tight-frame residual above {FRAME_TOL:g}")
    return rows, weights


def random_tight_frame(trial_seed: int) -> CoherentFrame:
    """The frame of the Berezin-Lieb trial seeded at `trial_seed`:
    FRAME_COUNT unit vectors in dimension FRAME_DIMENSION drawn from its
    SplitMix64 stream and symmetrized by the inverse square root of their
    frame operator (`_tight_frames`, which raises SolverError for a draw
    that fails its floors)."""
    vectors, weights = _tight_frames(trial_stack(trial_seed))
    return CoherentFrame(dimension=FRAME_DIMENSION, vectors=vectors[0], weights=weights[0])


# Operator-concave on [0, inf) with xi(0) >= 0; fixed whitelist because
# operator concavity of arbitrary user functions cannot be checked
# numerically.
XI_FUNCTIONS = {
    "sqrt": np.sqrt,
    "sqrt-pairing": lambda t: np.sqrt(t * (t + 1.0)),
    "identity": lambda t: np.asarray(t, dtype=float),
    "log1p": np.log1p,
}


def berezin_lieb_check(
    frame: CoherentFrame, f_values, y_matrix, xi: str
) -> InequalityReport:
    """Tr(Y xi(Gamma)) >= sum_k w_k xi(f_k) <theta_k, Y theta_k> for
    Gamma = sum_k w_k f_k theta_k theta_k^T, PSD Y, and whitelisted
    concave xi.  Equality holds when xi is the identity or when all f_k
    coincide."""
    if xi not in XI_FUNCTIONS:
        raise PreconditionError(f"xi must be one of {sorted(XI_FUNCTIONS)}")
    f_arr = np.asarray(f_values, dtype=float).ravel()
    if f_arr.shape[0] != frame.count:
        raise PreconditionError("f_values length must match the frame")
    if not np.all(np.isfinite(f_arr)) or np.any(f_arr < 0.0):
        raise PreconditionError("f_values must be finite and >= 0")
    y_arr = np.asarray(y_matrix, dtype=float)
    if y_arr.shape != (frame.dimension, frame.dimension):
        raise PreconditionError("Y must be dimension x dimension")
    _check_psd(y_arr)
    lhs, rhs = _berezin_lieb_sums(
        frame.vectors[None], frame.weights[None], f_arr[None], y_arr[None], XI_FUNCTIONS[xi]
    )
    return InequalityReport(lhs=float(lhs[0]), rhs=float(rhs[0]))


def _check_psd(y: np.ndarray) -> None:
    """Y symmetric to 1e-12 with lowest eigenvalue >= -1e-10, for a stack of
    matrices (or one)."""
    if float(np.max(np.abs(y - y.swapaxes(-1, -2)))) > 1e-12:
        raise PreconditionError("Y must be symmetric")
    y_low = float(np.min(np.linalg.eigvalsh(y)[..., 0]))
    if y_low < -1e-10:
        raise PreconditionError(f"Y has negative eigenvalue {y_low:.3e}")


def _berezin_lieb_sums(vectors, weights, f, y, func):
    """(lhs, rhs) arrays of the trace inequality for a stack of T instances:
    vectors (T, count, d), weights and f (T, count), Y (T, d, d)."""
    gamma = (vectors * (weights * f)[:, :, None]).transpose(0, 2, 1) @ vectors
    gamma = 0.5 * (gamma + gamma.transpose(0, 2, 1))
    occ, basis = np.linalg.eigh(gamma)
    occ = np.clip(occ, 0.0, None)  # PSD up to roundoff; xi needs t >= 0
    xi_gamma = (basis * func(occ)[:, None, :]) @ basis.transpose(0, 2, 1)
    lhs = np.add.reduce((y * xi_gamma).reshape(len(y), -1), axis=1)
    quad_forms = np.einsum("tkd,tde,tke->tk", vectors, y, vectors)
    rhs = ((weights * func(f))[:, None, :] @ quad_forms[:, :, None])[:, 0, 0]
    return lhs, rhs


def _draw_y_f(seeds: np.ndarray):
    """Y (T, d, d) and f (T, m) of the trials seeded at `seeds`, with d =
    FRAME_DIMENSION and m = FRAME_COUNT: Y = raw raw^T for the d^2 normals
    of the first words, row by row, and f = 5u for the next m words."""
    dimension, count = FRAME_DIMENSION, FRAME_COUNT
    raw = normals(seeds, 0, dimension * dimension).reshape(-1, dimension, dimension)
    f = 5.0 * uniforms(seeds, normal_words(dimension * dimension), count)
    return raw @ raw.transpose(0, 2, 1), f


def replay_trial(trial_seed: int) -> tuple[CoherentFrame, np.ndarray, np.ndarray]:
    """The frame, f and Y of the `berezin_lieb_ensemble` trial recorded with
    `trial_seed`, drawn by the code the ensemble draws with:
    `berezin_lieb_check(frame, f, Y, xi)` gives that trial's row, bit for
    bit."""
    frame = random_tight_frame(trial_seed)
    y, f = _draw_y_f(trial_stack(trial_seed))
    return frame, f[0], y[0]


# Float64 numbers per trial that a Berezin-Lieb block holds at its peak, in
# `_berezin_lieb_sums`: the frame (m d), its weights, f (m each) and Y (d^2),
# and the sums' largest temporaries, the frame scaled by w f (m d and m) and
# its d x d product.  That is 584 for 24 vectors in dimension 8; traced
# peaks of `_berezin_lieb_block` read 577 per trial at 341 to 1000 trials.
_BLOCK_NUMBERS = 2 * FRAME_COUNT * FRAME_DIMENSION + 3 * FRAME_COUNT + 2 * FRAME_DIMENSION**2


def _berezin_lieb_block(seeds: np.ndarray, func):
    """(lhs, rhs) of the trials seeded at `seeds` (uint64, (T,)), with the
    frame and Y checks of the whole block (each frame's residual checked
    once, by `_tight_frames`); its arrays are freed when it returns, before
    the next block draws."""
    vectors, weights = _tight_frames(seeds)
    _check_frame_entries(vectors, weights)
    y_psd, f_draw = _draw_y_f(seeds)
    _check_psd(y_psd)
    return _berezin_lieb_sums(vectors, weights, f_draw, y_psd, func)


def berezin_lieb_ensemble(xi: str, trials: int, master_seed: int) -> dict[str, np.ndarray]:
    """Random (frame, PSD Y, f) instances for one xi: columns trial_seed
    (uint64), lhs, rhs and slack (float64), one entry per trial drawn from
    that seed, each frame FRAME_COUNT vectors in dimension FRAME_DIMENSION.

    The trial seeds are those of `numerics.trial_blocks`; a trial's Y, f
    and frame are drawn from the SplitMix64 stream seeded at its seed, at
    the fixed words of the module docstring.  A block of
    `trials_per_block(_BLOCK_NUMBERS)` consecutive trials is drawn at once
    and runs on the kernels of the per-trial route, with every product and
    sum taken per trial; the frame and Y checks cover the whole block.  So
    trial k's entries equal `replay_trial(trial seed k)` through
    `berezin_lieb_check`, bit for bit.
    """
    if xi not in XI_FUNCTIONS:
        raise PreconditionError(f"xi must be one of {sorted(XI_FUNCTIONS)}")
    seeds, blocks = trial_blocks(master_seed, trials, trials_per_block(_BLOCK_NUMBERS))
    lhs, rhs = np.empty(trials), np.empty(trials)
    for rows in blocks:
        lhs[rows], rhs[rows] = _berezin_lieb_block(seeds[rows], XI_FUNCTIONS[xi])
    return {"trial_seed": seeds, "lhs": lhs, "rhs": rhs, "slack": lhs - rhs}
