"""Window localization of Hermitian quadratic forms.

Given Hermitian A and a unit vector psi, each length-M index window
carries the candidate phi = (restriction of psi, renormalized); the best
window's Rayleigh quotient is controlled by lambda = <psi, A psi> plus a
band-weighted budget (C/M^2) sum_{k<M} k^2 |d_k| + C sum_{k>=M} |d_k|,
where d_k collects the k-th supra- and infra-diagonals of A in psi's
quadratic form.  The restriction construction is deliberate: minimizing
over each window instead would satisfy any budget while testing nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlation import InequalityReport
from .errors import ConsistencyError, DomainError, PreconditionError
from .numerics import seed_words

__all__ = [
    "LocalizationProblem",
    "LocalizationResult",
    "band_component",
    "band_quadratic_forms",
    "localize",
    "verify_budget",
    "gaussian_ensemble",
    "read_matrix",
    "read_vector",
    "write_matrix",
    "write_vector",
]

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
SUM_RULE_TOL = 1e-10  # sum_k d_k must reproduce lambda this closely


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
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > NORM_TOL:
            raise PreconditionError(f"psi must be unit norm, got {norm!r}")
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
        if abs(float(d.sum()) - self.lam) > SUM_RULE_TOL:
            raise ConsistencyError(
                f"band sum {d.sum()!r} must reproduce lambda {self.lam!r}"
            )

    def budget(self, c: float) -> float:
        """lambda + (C/M^2) sum_{1<=k<M} k^2 |d_k| + C sum_{k>=M} |d_k|."""
        if not c >= 0:
            raise DomainError("C must be >= 0")
        k = np.arange(len(self.d))
        near = float(np.sum(k[1 : self.window] ** 2 * np.abs(self.d[1 : self.window])))
        far = float(np.sum(np.abs(self.d[self.window :])))
        return self.lam + c * (near / self.window**2 + far)

    @property
    def c_required(self) -> float:
        """Smallest C >= 0 with value <= budget(C); inf if none exists."""
        excess = self.value - self.lam
        if excess <= 0.0:
            return 0.0
        slope = self.budget(1.0) - self.lam
        if slope <= 0.0:
            return math.inf
        return excess / slope


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
    weighted = psi.conj()[:, None] * matrix * psi[None, :]
    n = matrix.shape[0]
    out = np.empty(n)
    out[0] = np.trace(weighted).real
    for k in range(1, n):
        out[k] = (np.trace(weighted, offset=k) + np.trace(weighted, offset=-k)).real
    return out


def localize(problem: LocalizationProblem) -> LocalizationResult:
    """Scan all length-M windows; return the restricted candidate with the
    smallest Rayleigh quotient (ties broken toward the smallest offset).

    Windows where psi has exactly zero mass are skipped.
    """
    a = problem.matrix
    psi = problem.psi
    m = problem.window
    n = problem.size
    best_value = math.inf
    best_offset = -1
    for start in range(n - m + 1):
        seg = psi[start : start + m]
        mass = float(np.real(seg.conj() @ seg))
        if mass <= 0.0:
            continue
        block = a[start : start + m, start : start + m]
        quad = float(np.real(seg.conj() @ (block @ seg)))
        value = quad / mass
        if value < best_value:
            best_value = value
            best_offset = start
    if best_offset < 0:
        raise DomainError("psi has no mass in any window")
    seg = psi[best_offset : best_offset + m]
    phi = np.zeros_like(psi)
    phi[best_offset : best_offset + m] = seg / np.linalg.norm(seg)
    # normalized like the window quotients, so M = N gives value = lam
    # bit-for-bit
    lam = float(np.real(psi.conj() @ (a @ psi))) / float(
        np.real(psi.conj() @ psi)
    )
    return LocalizationResult(
        offset=best_offset,
        phi=phi,
        value=best_value,
        lam=lam,
        d=band_quadratic_forms(a, psi),
        window=m,
    )


def verify_budget(result: LocalizationResult, c: float) -> InequalityReport:
    """budget(C) >= value, i.e. the localized quadratic form stays within
    the band-weighted error allowance."""
    if not c > 0:
        raise DomainError("C must be > 0")
    return InequalityReport(lhs=result.budget(c), rhs=result.value)


def gaussian_ensemble(
    trials: int,
    master_seed: int,
    n: int = 64,
    window: int = 8,
):
    """Symmetric Gaussian matrices with random unit psi.

    Returns (max_c_required, rows); rows are
    (seed, lam, value, c_required) per trial.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    if n < 1:
        raise PreconditionError("matrix size n must be >= 1")
    rows = []
    worst = 0.0
    for seed in seed_words(master_seed, trials):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        matrix = 0.5 * (raw + raw.T)
        psi = rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        result = localize(LocalizationProblem(matrix=matrix, psi=psi, window=window))
        c_req = result.c_required
        worst = max(worst, c_req)
        rows.append((seed, result.lam, result.value, c_req))
    return worst, rows


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
