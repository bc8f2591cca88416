"""Window localization of Hermitian quadratic forms.

Given Hermitian A and a unit vector psi, each length-M index window
carries the candidate phi = (restriction of psi, renormalized); the best
window's Rayleigh quotient is controlled by lambda = <psi, A psi> plus a
band-weighted budget (C/M^2) sum_{k<M} k^2 |d_k| + C sum_{k>=M} |d_k|,
where d_k collects the k-th supra- and infra-diagonals of A in psi's
quadratic form.  The restriction construction is deliberate: minimizing
over each window instead would satisfy any budget while testing nothing.

The arithmetic runs on stacks of trials, shape (T, N, N) and (T, N):
`gaussian_ensemble` passes a block of trials and `localize` a stack of one,
to the same kernels.  Every product and sum is taken per trial, in the
same order for any T, so a trial's values do not depend on its block.

A `gaussian_ensemble` trial of size N draws normals (`numerics.normals`,
Box-Muller pairs of words) from the SplitMix64 stream seeded at its
recorded trial seed:
  words 0 .. 2 ceil(N^2/2) - 1    the raw matrix, row by row; the trial's
                                  matrix is (raw + raw^T) / 2
  next 2 ceil(N/2) words          psi, divided by its norm
`replay_trial(trial_seed, N)` draws one trial with the same code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlation import InequalityReport
from .errors import ConsistencyError, DomainError, PreconditionError, ResourceLimitError
from .numerics import normal_words, normals, trial_blocks, trial_stack, trials_per_block

__all__ = [
    "LocalizationProblem",
    "LocalizationResult",
    "band_component",
    "band_quadratic_forms",
    "localize",
    "verify_budget",
    "gaussian_ensemble",
    "replay_trial",
    "read_matrix",
    "read_vector",
    "write_matrix",
    "write_vector",
    "SIZE_CAP",
]

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
SUM_RULE_TOL = 1e-10  # sum_k d_k must reproduce lambda this closely

# Largest matrix size of the Gaussian ensemble, checked before anything is
# drawn.  At the cap a block is one trial: its 32 MB matrix, drawn from 32 MB
# of stream words, peaks at about 112 MB (tracemalloc).
SIZE_CAP = 2048


def _coerce_square(matrix) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise PreconditionError("matrix must be square and nonempty")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128)
    else:
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise PreconditionError("matrix entries must be finite")
    gap = float(np.max(np.abs(arr - arr.conj().T)))
    if gap > HERMITIAN_TOL:
        raise PreconditionError(f"matrix is not Hermitian: deviation {gap:.3e}")
    return arr


def _coerce_vector(vector, n: int) -> np.ndarray:
    arr = np.asarray(vector)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise PreconditionError("psi must be a vector matching the matrix")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128)
    else:
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise PreconditionError("psi entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class LocalizationProblem:
    """Hermitian matrix, unit vector, and window length M."""

    matrix: np.ndarray
    psi: np.ndarray
    window: int

    def __post_init__(self):
        matrix = _coerce_square(self.matrix)
        psi = _coerce_vector(self.psi, matrix.shape[0])
        _check_unit_norm(psi)
        if not 1 <= self.window <= matrix.shape[0]:
            raise PreconditionError("window must lie in [1, N]")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "psi", psi)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class LocalizationResult:
    """Best restricted window and the band data entering the budget.

    `offset` is the 0-based start of the window, `value` = <phi, A phi>,
    `lam` = <psi, A psi>, and d[k] = <psi, A^(k) psi> for the k-th band.
    """

    offset: int
    phi: np.ndarray
    value: float
    lam: float
    d: np.ndarray
    window: int

    def __post_init__(self):
        phi = np.asarray(self.phi)
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "d", d)
        if abs(np.linalg.norm(phi) - 1.0) > NORM_TOL:
            raise ConsistencyError("phi must be unit norm")
        outside = np.ones(phi.shape[0], dtype=bool)
        outside[self.offset : self.offset + self.window] = False
        if np.any(phi[outside] != 0):
            raise ConsistencyError("phi must vanish outside the window")
        _check_sum_rule(d, self.lam)

    def budget(self, c: float) -> float:
        """lambda + (C/M^2) sum_{1<=k<M} k^2 |d_k| + C sum_{k>=M} |d_k|."""
        if not c >= 0:
            raise DomainError("C must be >= 0")
        return self.lam + c * float(_band_slope(self.d, self.window))

    @property
    def c_required(self) -> float:
        """Smallest C >= 0 with value <= budget(C); inf if none exists."""
        return float(_c_required(self.value, self.lam, self.d, self.window))


def _check_unit_norm(psis: np.ndarray) -> None:
    """Each psi of a stack (or a single psi) has unit norm to NORM_TOL."""
    norms = np.atleast_1d(np.linalg.norm(psis, axis=-1))
    bad = np.abs(norms - 1.0) > NORM_TOL
    if bad.any():
        raise PreconditionError(f"psi must be unit norm, got {float(norms[bad.argmax()])!r}")


def _check_sum_rule(d: np.ndarray, lam) -> None:
    """sum_k d_k reproduces lambda to SUM_RULE_TOL, per trial."""
    sums = np.atleast_1d(np.add.reduce(d, axis=-1))
    lam = np.atleast_1d(lam)
    bad = np.abs(sums - lam) > SUM_RULE_TOL
    if bad.any():
        k = int(bad.argmax())
        raise ConsistencyError(
            f"band sum {float(sums[k])!r} must reproduce lambda {float(lam[k])!r}"
        )


def _band_slope(d: np.ndarray, window: int):
    """(1/M^2) sum_{1<=k<M} k^2 |d_k| + sum_{k>=M} |d_k|, per trial: the
    budget's growth per unit C."""
    near = np.add.reduce(np.arange(1, window) ** 2 * np.abs(d[..., 1:window]), axis=-1)
    far = np.add.reduce(np.abs(d[..., window:]), axis=-1)
    return near / window**2 + far


def _c_required(value, lam, d: np.ndarray, window: int):
    """Smallest C >= 0 with value <= budget(C), per trial; inf if none."""
    excess = value - lam
    slope = (lam + _band_slope(d, window)) - lam  # budget(1) - lambda
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = excess / slope
    return np.where(excess <= 0.0, 0.0, np.where(slope <= 0.0, math.inf, ratio))


def _best_windows(mats: np.ndarray, psis: np.ndarray, window: int):
    """(offset, value, lam) arrays for a stack of T problems.

    Scans the window starts; at each, every trial's mass and quadratic form
    is one stacked product.  Windows where psi has no mass are skipped, and
    ties go to the smallest offset.
    """
    count, n = psis.shape
    rows = psis.conj()[:, None, :]
    cols = psis[:, :, None]
    best_value = np.full(count, math.inf)
    best_offset = np.full(count, -1)
    for start in range(n - window + 1):
        win = slice(start, start + window)
        mass = (rows[:, :, win] @ cols[:, win]).real[:, 0, 0]
        quad = (rows[:, :, win] @ (mats[:, win, win] @ cols[:, win])).real[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            value = quad / mass
        better = (mass > 0.0) & (value < best_value)
        best_value[better] = value[better]
        best_offset[better] = start
    if np.any(best_offset < 0):
        raise DomainError("psi has no mass in any window")
    # normalized like the window quotients, so M = N gives value = lam
    # bit-for-bit
    lam = ((rows @ (mats @ cols)).real / (rows @ cols).real)[:, 0, 0]
    return best_offset, best_value, lam


def _band_forms(mats: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """d_k per trial of a stack, shape (T, N), one diagonal pair at a time:
    the k-th sum runs over psi_i^* a_ij psi_j with |i - j| = k in order of i."""
    conj = psis.conj()
    count, n = psis.shape
    out = np.empty((count, n))
    out[:, 0] = np.add.reduce(conj * np.diagonal(mats, 0, 1, 2) * psis, axis=1).real
    for k in range(1, n):
        upper = conj[:, :-k] * np.diagonal(mats, k, 1, 2) * psis[:, k:]
        lower = conj[:, k:] * np.diagonal(mats, -k, 1, 2) * psis[:, :-k]
        out[:, k] = (np.add.reduce(upper, axis=1) + np.add.reduce(lower, axis=1)).real
    return out


def band_component(matrix, k: int) -> np.ndarray:
    """Entries A_ij with |i - j| = k, zero elsewhere.

    The components over k = 0 .. N-1 partition A exactly.
    """
    arr = _coerce_square(matrix)
    n = arr.shape[0]
    if not 0 <= k <= n - 1:
        raise DomainError("k must lie in [0, N-1]")
    idx = np.arange(n)
    mask = np.abs(idx[:, None] - idx[None, :]) == k
    return np.where(mask, arr, 0)


def band_quadratic_forms(matrix: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """d_k = <psi, A^(k) psi> for every band k, without building the bands.

    Real for Hermitian A: the k-th value pairs each entry with its
    conjugate transpose partner.
    """
    return _band_forms(matrix[None], psi[None])[0]


def localize(problem: LocalizationProblem) -> LocalizationResult:
    """Scan all length-M windows; return the restricted candidate with the
    smallest Rayleigh quotient (ties broken toward the smallest offset).

    Windows where psi has exactly zero mass are skipped.
    """
    a = problem.matrix
    psi = problem.psi
    m = problem.window
    offsets, values, lams = _best_windows(a[None], psi[None], m)
    offset = int(offsets[0])
    seg = psi[offset : offset + m]
    phi = np.zeros_like(psi)
    phi[offset : offset + m] = seg / np.linalg.norm(seg)
    return LocalizationResult(
        offset=offset,
        phi=phi,
        value=float(values[0]),
        lam=float(lams[0]),
        d=band_quadratic_forms(a, psi),
        window=m,
    )


def verify_budget(result: LocalizationResult, c: float) -> InequalityReport:
    """budget(C) >= value, i.e. the localized quadratic form stays within
    the band-weighted error allowance."""
    if not c > 0:
        raise DomainError("C must be > 0")
    return InequalityReport(lhs=result.budget(c), rhs=result.value)


def _check_size(n: int) -> None:
    if n < 1:
        raise PreconditionError("matrix size n must be >= 1")
    if n > SIZE_CAP:
        raise ResourceLimitError(f"matrix size {n} exceeds cap {SIZE_CAP}")


def _draw_instances(seeds: np.ndarray, n: int):
    """Matrices (T, n, n) and unit psi (T, n) of the trials seeded at
    `seeds` (uint64, (T,)): the n^2 normals of the first words of each
    stream fill the raw matrix row by row, symmetrized as (raw + raw^T) / 2
    in place through one matrix-sized buffer, and the n normals of the next
    words are psi, divided by its norm."""
    mats = normals(seeds, 0, n * n).reshape(-1, n, n)
    pair = np.empty((n, n))
    for mat in mats:
        np.multiply(np.add(mat, mat.T, out=pair), 0.5, out=mat)
    psis = normals(seeds, normal_words(n * n), n)
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    return mats, psis


def replay_trial(trial_seed: int, n: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """The matrix and psi of the `gaussian_ensemble` trial of size n recorded
    with `trial_seed`, drawn by the code the ensemble draws with: through
    `LocalizationProblem`, `localize` and `c_required` they give that
    trial's row, bit for bit."""
    seeds = trial_stack(trial_seed)
    _check_size(n)
    mats, psis = _draw_instances(seeds, n)
    return mats[0], psis[0]


def gaussian_ensemble(
    trials: int,
    master_seed: int,
    n: int = 64,
    window: int = 8,
) -> dict[str, np.ndarray]:
    """Symmetric Gaussian matrices with random unit psi.

    Returns columns trial_seed (uint64), lam, value and c_required
    (float64), one entry per trial, each reproducible from its recorded
    seed.

    The trial seeds are those of `numerics.trial_blocks`; a trial's
    matrix, then its psi, are normals of the SplitMix64 stream seeded at
    its seed (`numerics.normals`; the word layout is `_draw_instances`).
    A block of `trials_per_block(n, n)` consecutive trials is drawn at
    once and runs on the kernels `localize` uses, with every product and
    sum taken per trial; the psi norms and the band sum rule are checked
    for the whole block.  So trial k's entries equal `replay_trial(trial
    seed k, n)` through `LocalizationProblem`, `localize` and
    `c_required`, bit for bit.
    """
    _check_size(n)
    if not 1 <= window <= n:
        raise PreconditionError("window must lie in [1, N]")
    seeds, blocks = trial_blocks(master_seed, trials, trials_per_block(n, n))
    lams, values, c_req = np.empty(trials), np.empty(trials), np.empty(trials)
    for rows in blocks:
        mats, psis = _draw_instances(seeds[rows], n)
        _check_unit_norm(psis)
        _, values[rows], lams[rows] = _best_windows(mats, psis, window)
        d = _band_forms(mats, psis)
        _check_sum_rule(d, lams[rows])
        c_req[rows] = _c_required(values[rows], lams[rows], d, window)
        del mats  # so that the next block's draw does not stack on these matrices
    return {"trial_seed": seeds, "lam": lams, "value": values, "c_required": c_req}


# ---------------------------------------------------------------------------
# plain-text IO: a dimension header line, then whitespace-separated entries
# in row-major order.  Complex entries use Python literal syntax (1+2j).


def _parse_entry(token: str) -> complex:
    try:
        return complex(token)
    except ValueError as exc:
        raise PreconditionError(f"unparseable entry {token!r}") from exc


def _realify(values: np.ndarray) -> np.ndarray:
    if np.all(values.imag == 0.0):
        return values.real.copy()
    return values


def _read_entries(path, what: str, ndim: int) -> np.ndarray:
    """First token N, then N**ndim row-major entries shaped (N,) * ndim."""
    try:
        tokens = Path(path).read_text().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {what} file: {exc}") from exc
    if not tokens:
        raise PreconditionError(f"empty {what} file")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise PreconditionError(
            f"{what} header must be an integer N, got {tokens[0]!r}"
        ) from exc
    shape = (n,) * ndim
    if n < 1 or len(tokens) != 1 + n**ndim:
        raise PreconditionError(
            f"expected {'x'.join(map(str, shape))} entries after the header, "
            f"got {len(tokens) - 1}"
        )
    values = np.array([_parse_entry(t) for t in tokens[1:]], dtype=np.complex128)
    return _realify(values.reshape(shape))


def read_matrix(path) -> np.ndarray:
    """Read a square matrix: first token N, then N*N row-major entries."""
    return _read_entries(path, "matrix", 2)


def read_vector(path) -> np.ndarray:
    """Read a vector: first token N, then N entries."""
    return _read_entries(path, "vector", 1)


def _format_entry(value) -> str:
    if np.iscomplexobj(value):
        z = complex(value)
        sign = "+" if z.imag >= 0 else "-"
        return f"{z.real!r}{sign}{abs(z.imag)!r}j"
    return repr(float(value))


def write_matrix(path, matrix) -> None:
    arr = np.atleast_2d(np.asarray(matrix))
    n = arr.shape[0]
    with open(path, "w") as handle:
        handle.write(f"{n}\n")
        for row in arr:
            handle.write(" ".join(_format_entry(v) for v in row) + "\n")


def write_vector(path, vector) -> None:
    arr = np.asarray(vector).ravel()
    with open(path, "w") as handle:
        handle.write(f"{arr.shape[0]}\n")
        handle.write("\n".join(_format_entry(v) for v in arr) + "\n")
