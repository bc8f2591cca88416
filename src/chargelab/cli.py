"""Command-line orchestration: every check behind one reproducible tool.

Run records are line-oriented JSON -- a header line carrying the schema
tag, package version, subcommand, seed, and parameters; one line per
check row; a closing summary line -- with sorted keys and repr round-trip
floats, so two runs with the same configuration produce byte-identical
files.  `write_record` writes one from those parts; `main` passes it the
parsed flags, less the plumbing ones, as the parameters.  Records are
strict JSON: a non-finite float is written as the string "inf", "-inf"
or "nan", the spelling the CSV tables use.  The wall-clock duration,
the peak resident memory, the eigenvalue solver's counters (and, for
`verify`, each check's duration, the peak after it and its counters) and
the environment are written to a sidecar
``<name>.meta.json`` to keep them out of the deterministic surface.
Plot-ready tables are CSV with a schema tag comment on the first line;
rendering is out of scope.

Each subcommand's parser carries the function it runs (``args.run``).  The
verification suite is `BATTERY`, ten subcommand invocations run one after
another through that same parser; check i takes word i of
``seed_words(master, 10)``, and a seeded check gets it as ``--seed``, so
``chargelab <argv> --trials N --seed <word i>`` replays it alone.

Start-up: `import chargelab.cli` loads `chargelab`, `chargelab.errors` and
`chargelab.numerics` (for `solver_counters`, seeds and grids) and no other
chargelab module.  Each check imports the computation modules it runs
where it runs them, so a subcommand loads only its own modules and what
they import; `verify` loads every module of its battery before the first
check.  The parser reads no computation module either: the fuzz checks
`--which`, and the `dyson-minimize` grid defaults are `DEFAULT_NODES` and
`DEFAULT_R_MAX` here.  The package runs on numpy alone: no subcommand
imports scipy.

Exit codes: 0 every asserted check holds, 1 a check failed, 2 usage or
validation error, 3 resource/accuracy limit hit.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import resource
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

# OpenBLAS starts its helper threads when numpy loads, and by default an idle
# helper spins for 2^28 cycles (about 0.1 s) after every call before it
# sleeps; the many small solves of a run leave them spinning most of the time,
# a third of its CPU.  2^4 cycles lets them sleep at once while large solves
# still use them.  It must be set before numpy loads; a value the caller set
# is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np

from . import __version__
from .errors import (
    AccuracyError,
    BudgetExceededError,
    ConsistencyError,
    DomainError,
    PreconditionError,
    ResourceLimitError,
    SolverError,
)
from .numerics import (
    seed_words,
    solver_counters,
    trial_blocks,
    trials_per_block,
    uniform_radial_grid,
    uniforms,
)

__all__ = [
    "run_j_check",
    "run_identity_check",
    "run_bogolubov_ladder",
    "run_bogolubov_fuzz",
    "run_inequality_fuzz",
    "run_dyson",
    "run_pair_identity",
    "run_trace_scaling",
    "run_upper_bound",
    "run_berezin",
    "run_matrixloc_ensemble",
    "run_matrix_localize",
    "run_lt_study",
    "run_sobolev_study",
    "run_stability",
    "run_verification_suite",
    "BATTERY",
    "write_record",
    "write_table",
    "Columns",
    "build_parser",
    "main",
]

SCHEMA_RECORD = "chargelab.report/1"
SCHEMA_META = "chargelab.meta/1"
SCHEMA_CSV = "chargelab.table/1"
OUTDIR_ENV = "CHARGELAB_OUTDIR"
DEFAULT_SEED = 1905

IDENTITY_POINTS = tuple(
    (nu, ell) for nu in (0.25, 1.0, 4.0, 100.0) for ell in (0.5, 1.0, 2.0)
)
# the particle-number ladders of trialstate --check trace-scaling|upper-bound
TRACE_LADDER = (1_000, 10_000, 100_000, 1_000_000)
UPPER_BOUND_LADDER = (1, 32, 100_000)
# the Dyson minimizer's default box, of dyson-minimize and the trialstate
# checks: the minimizer decays like exp(-0.37 r), so r_max = 25 keeps the
# tail below 1e-9 while the finer spacing sharpens the kinetic stencil
DEFAULT_R_MAX = 25.0
DEFAULT_NODES = 800


def _py(value):
    """Coerce numpy scalars so records stay plain JSON types, through
    nested dicts; a non-finite float becomes the string "inf", "-inf" or
    "nan"."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else str(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    return value


def _tmp_beside(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


@contextmanager
def _staging():
    """Collects (temporary file, target) pairs, see `_open_staged`, and moves
    each temporary file onto its target only once the block completes, so
    every file is written before the first is moved: a write that fails
    leaves every target as it was and no temporary file."""
    staged = []
    try:
        yield staged
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _open_staged(staged: list, path: Path):
    """A text file to write in place of `path`, staged in `staged`."""
    tmp = _tmp_beside(path)
    staged.append((tmp, path))
    return tmp.open("w", newline="")


_ENV_VARS = ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _environment() -> dict:
    """What a run's timings and last bits depend on: versions, the BLAS
    numpy was built with, the SIMD targets numpy found on this CPU (they
    pick the kernels of exp, log, cos and sin; [] when it found none), CPU
    count and the thread settings as this process sees them (null when
    unset)."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "simd": config.get("SIMD Extensions", {}).get("found") or [],
        "cpu_count": os.cpu_count(),
        **{name: os.environ.get(name) for name in _ENV_VARS},
    }


def _peak_rss_mb() -> float:
    """This process's peak resident memory so far, in MB (ru_maxrss counts
    KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loaded_modules() -> list[str]:
    """The chargelab modules this process has loaded so far, sorted."""
    return sorted(name for name in sys.modules
                  if name == __package__ or name.startswith(__package__ + "."))


def write_record(outdir: Path, base: str, header: dict, rows, summary: dict,
                 meta: dict, staged: list) -> Path:
    """Write ``<base>.jsonl`` -- the header fields after the schema tag and
    version, one line per row, the summary -- and the ``<base>.meta.json``
    sidecar: the `meta` fields, the time of writing, the peak resident
    memory then (`peak_rss_mb`), the chargelab modules loaded then
    (`modules`) and the environment.
    Both files are staged in `staged`, the list of an enclosing `_staging`,
    which replaces the old ones with the rest of its files."""
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [{"schema": SCHEMA_RECORD, "version": __version__, **header},
             *({"row": i, **row} for i, row in enumerate(rows)),
             {"summary": summary}]
    path = outdir / f"{base}.jsonl"
    meta = {"schema": SCHEMA_META, "written_at": datetime.now(timezone.utc).isoformat(),
            "env": _environment(), "peak_rss_mb": _peak_rss_mb(),
            "modules": _loaded_modules(), **meta}
    with _open_staged(staged, path) as fh:
        for line in lines:
            fh.write(json.dumps(_py(line), sort_keys=True, allow_nan=False) + "\n")
    with _open_staged(staged, outdir / f"{base}.meta.json") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
    return path


# Rows of a table that `Columns` turns into Python objects at a time.
WRITE_ROWS = 1024


class Columns:
    """The rows of a table held as its columns, 1-D arrays of equal length
    in the table's column order.  len() is the row count.  Iterating gives
    the rows as tuples, WRITE_ROWS rows at a time through each column's
    `.tolist()`, which gives Python ints, floats and strings, so the table
    is never held as Python objects whole."""

    def __init__(self, *arrays: np.ndarray):
        self.arrays = arrays

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __iter__(self):
        for start in range(0, len(self), WRITE_ROWS):
            yield from zip(*(a[start:start + WRITE_ROWS].tolist() for a in self.arrays))


def write_table(outdir: Path, base: str, name: str, columns, rows: Columns,
                staged: list) -> Path:
    """Write the table ``<base>-<name>.csv`` -- the header `columns`, then
    `rows` -- staged as in `write_record`.  csv writes a value as its
    str(), which spells a non-finite float "inf", "-inf" or "nan"."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{base}-{name}.csv"
    with _open_staged(staged, path) as fh:
        fh.write(f"# schema: {SCHEMA_CSV} table={name}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# Check implementations.  Each returns (rows, summary, tables): rows are
# record dicts carrying a "holds" verdict where something is asserted;
# tables map name -> {column: 1-D array}, the columns in table order, and
# `main` writes each one as ``<base>-<name>.csv``.  A table holds what the
# rows do not: the trials of an ensemble, the minimizing profile, the band
# forms and phi.  A check's pass bound is a constant of its function, and
# the row records the same name its verdict reads; no caller sets it.
# ---------------------------------------------------------------------------


def run_j_check():
    from .foldy import j_closed_form, j_from_integral

    tol = 1e-8
    by_integral = j_from_integral()
    by_gamma = j_closed_form()
    diff = abs(by_integral - by_gamma)
    row = {
        "check": "j-cross-route",
        "j_integral": by_integral,
        "j_gamma": by_gamma,
        "diff": diff,
        "tolerance": tol,
        "holds": diff <= tol,
    }
    return [row], {"j": by_gamma, "cross_route_diff": diff}, {}


def run_identity_check():
    """Quadrature of the simplified local energy against -J nu^(5/4) ell^(-3/4)."""
    from .foldy import foldy_j, simplified_energy_quadrature

    tol = 1e-6
    j = foldy_j()
    rows, worst = [], 0.0
    for nu, ell in IDENTITY_POINTS:
        quad = simplified_energy_quadrature(nu, ell)
        closed = -j * nu**1.25 * ell**-0.75
        rel = abs(quad - closed) / abs(closed)
        worst = max(worst, rel)
        rows.append(
            {
                "check": "simplified-identity",
                "nu": nu,
                "ell": ell,
                "quadrature": quad,
                "closed_form": closed,
                "rel_err": rel,
                "tolerance": tol,
                "holds": rel <= tol,
            }
        )
    return rows, {"points": len(rows), "worst_rel_err": worst}, {}


def run_bogolubov_ladder(t: float, g_plus: float, g_minus: float, n_max_list):
    """Truncated-ladder ground energies against the closed-form bound; the
    deepest cutoff must close the gap to fraction_tol of |bound|."""
    from . import bogolubov

    fraction_tol = 0.01
    model = bogolubov.BogolubovModel(t=t, g_plus=g_plus, g_minus=g_minus)
    bound = bogolubov.closed_form_bound(model)
    tol = model.gap_tolerance
    rows = []
    for n_max, energy, gap in bogolubov.sharpness_study(model, tuple(n_max_list)):
        # a bound of 0 (the uncoupled model) is met by any gap within the
        # rounding allowance
        fraction = gap / abs(bound) if bound != 0.0 else (0.0 if abs(gap) <= tol else math.inf)
        rows.append(
            {
                "check": "bogolubov-ladder",
                "n_max": n_max,
                "ground_energy": energy,
                "closed_bound": bound,
                "gap": gap,
                "gap_fraction": fraction,
                "holds": gap >= -tol,
            }
        )
    # a bound smaller than the rounding allowance (about -g^2/2t when g << t)
    # cannot be resolved by the eigensolve, so a gap within it also closes
    last = rows[-1]
    last["tolerance"] = fraction_tol
    last["holds"] = last["holds"] and (
        last["gap_fraction"] <= fraction_tol or abs(last["gap"]) <= tol)
    return rows, {"final_gap_fraction": rows[-1]["gap_fraction"]}, {}


def _draw_models(seeds: np.ndarray, n_max_lo: int, n_max_hi: int):
    """(t, g_plus, g_minus, n_max) of each Bogolubov fuzz trial seeded at
    `seeds` (uint64, (T,)), from words 0-3 of its SplitMix64 stream read as
    uniforms u: t = 5u, g_plus = 3u, g_minus = 3u, n_max = n_max_lo +
    floor((n_max_hi - n_max_lo + 1) u)."""
    span = n_max_hi - n_max_lo + 1
    u = uniforms(seeds, 0, 4).tolist()
    return [(5.0 * t, 3.0 * g_plus, 3.0 * g_minus, n_max_lo + math.floor(span * n))
            for t, g_plus, g_minus, n in u]


def run_bogolubov_fuzz(trials: int, seed: int, n_max_lo: int, n_max_hi: int):
    """Random couplings, random cutoff: ground energy must clear the bound by
    the model's gap_tolerance, whose largest value is `max_allowance`.
    The trial seeds are those of `numerics.trial_blocks`; a trial's model
    is `_draw_models` of its seed."""
    from . import bogolubov

    if not 1 <= n_max_lo <= n_max_hi:
        raise PreconditionError("need 1 <= n_max_lo <= n_max_hi")
    seeds, blocks = trial_blocks(seed, trials, trials_per_block(4))
    t, g_plus, g_minus, energy, gap, allowance = (np.empty(trials) for _ in range(6))
    n_max = np.empty(trials, dtype=np.int64)
    for rows in blocks:
        models = _draw_models(seeds[rows], n_max_lo, n_max_hi)
        for i, (t_draw, g_plus_draw, g_minus_draw, cutoff) in enumerate(models, rows.start):
            model = bogolubov.BogolubovModel(t=t_draw, g_plus=g_plus_draw, g_minus=g_minus_draw)
            energy[i] = bogolubov.ground_energy(bogolubov.build_hamiltonian(model, cutoff))
            gap[i] = energy[i] - bogolubov.closed_form_bound(model)
            t[i], g_plus[i], g_minus[i], n_max[i] = model.t, model.g_plus, model.g_minus, cutoff
            allowance[i] = model.gap_tolerance
    violations = int(np.sum(gap < -allowance))
    min_gap = float(gap.min())
    row = {
        "check": "bogolubov-fuzz",
        "trials": trials,
        "violations": violations,
        "min_gap": min_gap,
        "tolerance": bogolubov.GAP_RTOL,
        "max_allowance": float(allowance.max()),
        "holds": violations == 0,
    }
    table = {"trial_seed": seeds, "t": t, "g_plus": g_plus, "g_minus": g_minus,
             "n_max": n_max, "energy": energy, "gap": gap}
    return [row], {"violations": violations, "min_gap": min_gap}, {"models": table}


def _stacked(label: str, ensembles: dict) -> dict:
    """One table of the columns of several ensembles (name -> columns), one
    ensemble after another, each row led by its ensemble's name under
    `label`.  The ensembles' columns are emptied as they are joined, so
    the two together hold one column more than the table."""
    sizes = [len(columns["trial_seed"]) for columns in ensembles.values()]
    table = {label: np.repeat(np.array(list(ensembles), dtype=object), sizes)}
    for key in tuple(next(iter(ensembles.values()))):
        table[key] = np.concatenate([columns.pop(key) for columns in ensembles.values()])
    return table


def _ensemble_row(check: str, trials: int, slacks: np.ndarray) -> dict:
    """The verdict row of one seeded ensemble; a slack below -HOLDS_TOL, or
    a NaN slack, is a violation."""
    from . import correlation

    violations = int(np.sum(~(slacks >= -correlation.HOLDS_TOL)))
    return {
        "check": check,
        "trials": trials,
        "violations": violations,
        "min_slack": float(slacks.min()),
        "tolerance": correlation.HOLDS_TOL,
        "holds": violations == 0,
    }


def run_inequality_fuzz(which: str, trials: int, seed: int):
    """Seeded configuration fuzz for the classical electrostatic inequalities:
    `which` is one of correlation.CHECKERS, which the fuzz checks, or "all"."""
    from . import correlation

    names = correlation.CHECKERS if which == "all" else (which,)
    rows, ensembles = [], {}
    for name, sub in zip(names, seed_words(seed, len(names))):
        ensembles[name] = correlation.run_random_ensemble(name, trials, sub)
        rows.append(_ensemble_row(f"inequality-{name}", trials, ensembles[name]["slack"]))
    summary = {"violations": sum(r["violations"] for r in rows),
               "min_slack": min(r["min_slack"] for r in rows)}
    return rows, summary, {"trials": _stacked("checker", ensembles)}


def run_dyson(nodes: int, r_max: float):
    """Minimize the energy functional; assert the scaled-Gaussian ceiling,
    the virial identity, and two-grid agreement."""
    from . import variational

    ceiling, agreement_tol = -0.05, 1e-4
    if nodes < 100:
        raise PreconditionError("nodes must be >= 100")
    result = variational.default_minimum(nodes, r_max)
    coarse = variational.minimize(variational.default_init(nodes // 2, r_max))
    rel_change = abs(result.energy - coarse.energy) / abs(result.energy)
    virial_cap = 1e-5 * result.potential
    rows = [
        {
            "check": "dyson-minimize",
            "nodes": nodes,
            "r_max": r_max,
            "energy": result.energy,
            "kinetic": result.kinetic,
            "potential": result.potential,
            "iterations": result.iterations,
            "converged": result.converged,
            "ceiling": ceiling,
            "holds": result.converged and result.energy <= ceiling,
        },
        {
            "check": "dyson-virial",
            "virial_residual": result.virial_residual,
            "tolerance": virial_cap,
            "holds": result.virial_residual <= virial_cap,
        },
        {
            "check": "dyson-grid-agreement",
            "nodes_coarse": nodes // 2,
            "energy_coarse": coarse.energy,
            "rel_change": rel_change,
            "tolerance": agreement_tol,
            "holds": rel_change <= agreement_tol,
        },
    ]
    table = {"r": result.profile.grid.nodes, "phi": result.profile.values}
    summary = {"e_star": result.energy, "virial_residual": result.virial_residual}
    return rows, summary, {"profile": table}


def run_pair_identity():
    """Pointwise pair energy against -J rho^(5/4)."""
    from . import trialstate
    from .foldy import foldy_j

    tol = 1e-6
    j = foldy_j()
    rows, worst = [], 0.0
    for rho in (1e-2, 1.0, 1e2, 1e4):
        value = trialstate.pointwise_pair_energy(rho)
        closed = -j * rho**1.25
        rel = abs(value - closed) / abs(closed)
        worst = max(worst, rel)
        rows.append(
            {
                "check": "pair-energy-identity",
                "rho": rho,
                "pair_energy": value,
                "closed_form": closed,
                "rel_err": rel,
                "tolerance": tol,
                "holds": rel <= tol,
            }
        )
    return rows, {"worst_rel_err": worst}, {}


def run_trace_scaling():
    """Tr Gamma over the particle-number ladder TRACE_LADDER; the log-log
    slope must be 3/5 within slope_tol."""
    from . import trialstate, variational

    target, slope_tol = 0.6, 0.01
    minimizer = variational.default_minimum(DEFAULT_NODES, DEFAULT_R_MAX)
    rows, traces = [], []
    for n in TRACE_LADDER:
        spec = trialstate.condensate_from_minimizer(int(n), minimizer.profile)
        tr = trialstate.trace_gamma(spec)
        traces.append(tr)
        rows.append(
            {
                "check": "trace-scaling",
                "n_particles": int(n),
                "trace_gamma": tr,
                "ratio_to_n35": tr / float(n) ** 0.6,
                "holds": True,
            }
        )
    slope = float(np.polyfit(np.log([float(n) for n in TRACE_LADDER]), np.log(traces), 1)[0])
    rows.append(
        {
            "check": "trace-scaling-slope",
            "slope": slope,
            "target": target,
            "tolerance": slope_tol,
            "holds": abs(slope - target) <= slope_tol,
        }
    )
    return rows, {"slope": slope}, {}


def run_upper_bound():
    """Many-body upper bound against N^(7/5) times the functional minimum,
    over UPPER_BOUND_LADDER.

    The row guards plumbing only: `upper_bound_energy` already compares
    the same two values at the same 1e-8 and raises ConsistencyError (exit
    1) beyond it, so a row that reaches the record holds."""
    from . import trialstate, variational

    tol = 1e-8
    minimizer = variational.default_minimum(DEFAULT_NODES, DEFAULT_R_MAX)
    rows, worst = [], 0.0
    for n in UPPER_BOUND_LADDER:
        value = trialstate.upper_bound_energy(int(n), minimizer.profile)
        target = float(n) ** 1.4 * minimizer.energy
        rel = abs(value - target) / abs(target)
        worst = max(worst, rel)
        rows.append(
            {
                "check": "upper-bound-consistency",
                "n_particles": int(n),
                "upper_bound": value,
                "scaled_e_star": target,
                "rel_err": rel,
                "tolerance": tol,
                "holds": rel <= tol,
            }
        )
    return rows, {"worst_rel_err": worst, "e_star": minimizer.energy}, {}


def run_berezin(trials: int, seed: int):
    """Trace-inequality ensembles for every registered xi; the identity xi
    is an equality and must be exact to identity_tol (relative)."""
    from . import trialstate

    identity_tol = 1e-12
    names = tuple(sorted(trialstate.XI_FUNCTIONS))
    rows, ensembles = [], {}
    for name, sub in zip(names, seed_words(seed, len(names))):
        ensemble = ensembles[name] = trialstate.berezin_lieb_ensemble(name, trials, sub)
        row = _ensemble_row(f"berezin-{name}", trials, ensemble["slack"])
        if name == "identity":
            scale = np.maximum(1.0, np.abs(ensemble["lhs"]))
            exactness = float(np.max(np.abs(ensemble["slack"]) / scale))
            row["max_rel_slack"] = exactness
            row["holds"] = row["holds"] and exactness <= identity_tol
        rows.append(row)
    summary = {"violations": sum(r["violations"] for r in rows)}
    return rows, summary, {"instances": _stacked("xi", ensembles)}


def run_matrixloc_ensemble(trials: int, seed: int, size: int, window: int):
    """Gaussian symmetric instances: the restriction construction must meet
    the band budget with constant <= ceiling on every draw.  The margin is
    wide: in `verify --seed 1905` the worst c_required is 0.377."""
    from . import matrixloc

    ceiling = 50.0
    table = matrixloc.gaussian_ensemble(trials, seed, n=size, window=window)
    worst = float(table["c_required"].max())
    row = {
        "check": "matrix-localization",
        "trials": trials,
        "size": size,
        "window": window,
        "worst_c_required": worst,
        "ceiling": ceiling,
        "holds": worst <= ceiling,
    }
    return [row], {"worst_c_required": worst}, {"instances": table}


def run_matrix_localize(matrix_path, psi_path, window: int, budget_c: float | None = None):
    """Localize one instance read from plain-text files."""
    from . import matrixloc

    matrix = matrixloc.read_matrix(matrix_path)
    psi = matrixloc.read_vector(psi_path)
    problem = matrixloc.LocalizationProblem(matrix=matrix, psi=psi, window=window)
    result = matrixloc.localize(problem)
    rows = [
        {
            "check": "matrix-localize",
            "size": problem.size,
            "window": window,
            "offset": result.offset,
            "value": result.value,
            "lam": result.lam,
            "c_required": result.c_required,
            "holds": True,
        }
    ]
    if budget_c is not None:
        report = matrixloc.verify_budget(result, budget_c)
        rows.append(
            {
                "check": "budget",
                "c": budget_c,
                "budget": report.lhs,
                "value": report.rhs,
                "slack": report.slack,
                "holds": report.holds,
            }
        )
    phi = np.asarray(result.phi, dtype=complex)
    tables = {
        "bands": {"k": np.arange(result.d.size), "d_k": result.d},
        "phi": {"index": np.arange(phi.size), "re": phi.real, "im": phi.imag},
    }
    return rows, {"value": result.value, "c_required": result.c_required}, tables


def _scale_pair_rows():
    """Matched-grid lambda = 2 covariance rows shared by both spectral studies."""
    from . import spectral

    invariance_tol = 1e-6
    base_grid = uniform_radial_grid(1600, 10.0)
    scaled_grid = uniform_radial_grid(1600, 5.0)
    base_spec = spectral.gaussian_well(12.0)
    scaled_spec = spectral.gaussian_well(48.0, 0.5)
    base, e_base = spectral.spectrum_and_ground_state(base_spec, base_grid)
    scaled, e_scaled = spectral.spectrum_and_ground_state(scaled_spec, scaled_grid)
    lt_drift = abs(scaled.lt_ratio / base.lt_ratio - 1.0)
    sob_base = e_base / base.v_integral
    sob_scaled = e_scaled / scaled.v_integral
    sob_drift = abs(sob_scaled / sob_base - 1.0)
    return [
        {
            "check": "lt-scale-invariance",
            "ratio_base": base.lt_ratio,
            "ratio_scaled": scaled.lt_ratio,
            "rel_drift": lt_drift,
            "tolerance": invariance_tol,
            "holds": lt_drift <= invariance_tol,
        },
        {
            "check": "sobolev-scale-invariance",
            "ratio_base": sob_base,
            "ratio_scaled": sob_scaled,
            "rel_drift": sob_drift,
            "tolerance": invariance_tol,
            "holds": sob_drift <= invariance_tol,
        },
    ]


def run_lt_study(depths):
    """Channel-summed spectra of deepening wells against the semiclassical
    ratio, plus the matched-grid scale invariance of both ratios."""
    from . import spectral

    ratio_tol = 0.15
    if len(depths) == 0:
        raise PreconditionError("depths must be nonempty")
    rows = []
    results = spectral.negative_sums([spectral.gaussian_well(float(depth)) for depth in depths])
    for depth, result in zip(depths, results):
        rel_gap = abs(result.lt_ratio / spectral.SEMICLASSICAL_LT_RATIO - 1.0)
        rows.append(
            {
                "check": "lt-ratio",
                "depth": float(depth),
                "neg_sum": result.neg_sum,
                "v_integral": result.v_integral,
                "lt_ratio": result.lt_ratio,
                "semiclassical": spectral.SEMICLASSICAL_LT_RATIO,
                "rel_gap": rel_gap,
                "holds": True,
            }
        )
    rows[-1]["tolerance"] = ratio_tol
    rows[-1]["holds"] = rows[-1]["rel_gap"] <= ratio_tol
    rows.extend(_scale_pair_rows())
    return rows, {"final_rel_gap": rows[len(depths) - 1]["rel_gap"]}, {}


def run_sobolev_study(depths):
    """Ground-state-to-potential ratios along a depth ladder (the scale
    invariant combination), plus the matched-grid invariance rows."""
    from . import spectral

    if len(depths) == 0:
        raise PreconditionError("depths must be nonempty")
    rows = []
    specs = [spectral.gaussian_well(float(depth)) for depth in depths]
    for depth, spec, e0 in zip(depths, specs, spectral.ground_state_energies(specs)):
        v = spec.v_integral()
        rows.append(
            {
                "check": "sobolev-ratio",
                "depth": float(depth),
                "ground_energy": e0,
                "v_integral": v,
                "ratio": e0 / v,
                "holds": True,
            }
        )
    rows.extend(_scale_pair_rows())
    return rows, {"depths": len(depths)}, {}


def run_stability(charges, q: int, c_lt: float, n_electrons: int,
                  radius: float | None = None, vacuum_strength: float | None = None):
    """The nearest-nucleus stability bound for nuclei of the given charges,
    or for the vacuum at an explicit strength when vacuum_strength is set."""
    from . import spectral

    bound = spectral.stability_bound(
        None if vacuum_strength is not None else charges, q=q, c_lt=c_lt,
        n_electrons=n_electrons, radius=radius, strength=vacuum_strength,
    )
    row = {
        "check": "stability-bound",
        "strength": bound.strength,
        "radius": bound.radius,
        "v_integral": bound.v_integral,
        "n_electrons": bound.n_electrons,
        "total": bound.total,
        "per_electron": bound.per_electron,
        "holds": True,  # stability_bound rejects a total that is not finite
    }
    return [row], {"total": bound.total, "per_electron": bound.per_electron}, {}


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


# (check name, subcommand argv, trials): trials is None for an unseeded
# check, else (full, quick), run with "--trials N --seed <word i>" appended.
BATTERY = (
    ("j-cross-route", ("foldy-j",), None),
    ("simplified-identity", ("foldy-identity",), None),
    ("bogolubov-ladder", ("bogolubov-sharpness",), None),
    ("inequality-fuzz", ("check-inequalities",), (3334, 300)),
    ("dyson-minimize", ("dyson-minimize",), None),
    ("pair-energy-identity", ("trialstate", "--check", "pair-energy"), None),
    ("trace-scaling", ("trialstate", "--check", "trace-scaling"), None),
    ("berezin-lieb", ("trialstate", "--check", "berezin-lieb"), (1000, 100)),
    ("matrix-localization", ("matrixloc-ensemble",), (1000, 100)),
    ("lt-semiclassics", ("lt-study",), None),
)


def run_verification_suite(master_seed: int, quick: bool = False, meta: dict | None = None):
    """The canonical battery, run serially as subcommand invocations; check
    i takes word i of seed_words(master_seed, len(BATTERY)).  If `meta` is
    given, each check's wall time in seconds is stored under its name in
    meta["checks"], the process's peak resident memory in MB after it in
    meta["checks_peak_rss_mb"], and its `solver_counters` in
    meta["checks_counters"].

    The battery's modules load together before the first check: loading
    one (compiling it, when its bytecode is not cached) in the middle of
    the battery allocates on top of the heap the earlier checks left, and
    raised the run's peak resident memory by about 0.2 MB."""
    from . import bogolubov, correlation, foldy, matrixloc, spectral, trialstate, variational  # noqa: F401

    parser = build_parser()
    meta = {} if meta is None else meta
    durations, peaks = meta.setdefault("checks", {}), meta.setdefault("checks_peak_rss_mb", {})
    counted = meta.setdefault("checks_counters", {})
    rows, failed = [], []
    for (name, argv, trials), seed in zip(BATTERY, seed_words(master_seed, len(BATTERY))):
        if trials is not None:
            argv += ("--trials", str(trials[1] if quick else trials[0]), "--seed", str(seed))
        args = parser.parse_args(argv)
        started = time.perf_counter()
        with solver_counters() as counted[name]:
            check_rows, summary, _tables = args.run(args)
        durations[name], peaks[name] = time.perf_counter() - started, _peak_rss_mb()
        ok = all(r.get("holds", True) for r in check_rows)
        rows.extend(check_rows)
        rows.append({"check": f"{name}-result", "passed": ok, **summary})
        if not ok:
            failed.append(name)
    summary = {
        "checks": len(BATTERY),
        "failures": len(failed),
        "failed": failed,
        "passed": not failed,
    }
    return rows, summary, {}


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a float: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite float: {text!r}")
    return value


class _InputFile(str):
    """A file path read by a subcommand; the record header stores the sha256
    of its bytes, so the record does not depend on how the file was named."""


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(tok) for tok in text.split(",") if tok.strip())


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


# trialstate --check: the choices and what each one runs
_TRIALSTATE_CHECKS = {
    "pair-energy": lambda a: run_pair_identity(),
    "trace-scaling": lambda a: run_trace_scaling(),
    "upper-bound": lambda a: run_upper_bound(),
    "berezin-lieb": lambda a: run_berezin(a.trials, a.seed),
}
# the trialstate checks that read neither --seed nor --trials
_UNSEEDED_CHECKS = ("pair-energy", "trace-scaling", "upper-bound")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand table: each subparser's flags, and in `run` the check
    it calls with the parsed arguments.  An argument ``@FILE`` stands for
    the lines of FILE, one argument per line.  It is built once, and `main`
    and the verification suite parse with the same one."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outdir", default=None,
                        help=f"output directory (default ${OUTDIR_ENV} or '.')")
    common.add_argument("--output", default=None,
                        help="base name for record files (default: the subcommand)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED)

    parser = argparse.ArgumentParser(
        prog="chargelab",
        description="Checks and studies for charged-gas energy estimates.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("foldy-j", parents=[common],
                       help="constant J by quadrature vs closed form")
    p.set_defaults(run=lambda a: run_j_check())

    p = sub.add_parser("foldy-identity", parents=[common],
                       help="simplified local energy vs -J nu^(5/4) ell^(-3/4)")
    p.set_defaults(run=lambda a: run_identity_check())

    p = sub.add_parser("bogolubov-sharpness", parents=[common],
                       help="truncated-ladder gap against the closed bound")
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--gplus", type=_finite_float, default=1.0)
    p.add_argument("--gminus", type=_finite_float, default=0.0)
    p.add_argument("--nmax-list", type=_int_list, default=(2, 4, 8, 12))
    p.set_defaults(run=lambda a: run_bogolubov_ladder(a.t, a.gplus, a.gminus, a.nmax_list))

    p = sub.add_parser("bogolubov-fuzz", parents=[seeded],
                       help="random models against the lower bound")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--nmax-lo", type=int, default=2)
    p.add_argument("--nmax-hi", type=int, default=6)
    p.set_defaults(run=lambda a: run_bogolubov_fuzz(a.trials, a.seed, a.nmax_lo, a.nmax_hi))

    p = sub.add_parser("check-inequalities", parents=[seeded],
                       help="seeded fuzz of the electrostatic inequalities")
    p.add_argument("--which", default="all", help="an inequality's name, or all")
    p.add_argument("--trials", type=int, default=10_000)
    p.set_defaults(run=lambda a: run_inequality_fuzz(a.which, a.trials, a.seed))

    p = sub.add_parser("dyson-minimize", parents=[common],
                       help="variational minimum, virial, grid agreement")
    p.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    p.add_argument("--rmax", type=_finite_float, default=DEFAULT_R_MAX)
    p.set_defaults(run=lambda a: run_dyson(a.nodes, a.rmax))

    p = sub.add_parser("trialstate", parents=[seeded],
                       help="condensate trial-state checks")
    p.add_argument("--check", required=True, choices=tuple(_TRIALSTATE_CHECKS))
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(run=lambda a: _TRIALSTATE_CHECKS[a.check](a))

    p = sub.add_parser("matrix-localize", parents=[common],
                       help="localize one instance from plain-text files")
    p.add_argument("--matrix", type=_InputFile, required=True)
    p.add_argument("--psi", type=_InputFile, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--budget-c", type=_finite_float, default=None)
    p.set_defaults(run=lambda a: run_matrix_localize(a.matrix, a.psi, a.window, a.budget_c))

    p = sub.add_parser("matrixloc-ensemble", parents=[seeded],
                       help="Gaussian ensemble for the localization budget")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--window", type=int, default=8)
    p.set_defaults(run=lambda a: run_matrixloc_ensemble(a.trials, a.seed, a.size, a.window))

    p = sub.add_parser("lt-study", parents=[common],
                       help="negative-spectrum sums vs the semiclassical ratio")
    p.add_argument("--depths", type=_float_list, default=(50.0, 100.0, 200.0))
    p.set_defaults(run=lambda a: run_lt_study(a.depths))

    p = sub.add_parser("sobolev-study", parents=[common],
                       help="scale-invariant ground-state ratios")
    p.add_argument("--depths", type=_float_list, default=(5.0, 10.0, 20.0, 50.0))
    p.set_defaults(run=lambda a: run_sobolev_study(a.depths))

    p = sub.add_parser("stability-bound", parents=[common],
                       help="nearest-nucleus lower bound per electron")
    nuclei = p.add_mutually_exclusive_group()
    nuclei.add_argument("--charges", type=_float_list, default=(1.0,))
    nuclei.add_argument("--vacuum-strength", type=_finite_float, default=None)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--c-lt", type=_finite_float, default=0.04)
    p.add_argument("--n-electrons", type=int, default=10)
    p.add_argument("--radius", type=_finite_float, default=None)
    p.set_defaults(run=lambda a: run_stability(
        a.charges, a.q, a.c_lt, a.n_electrons, a.radius, a.vacuum_strength))

    p = sub.add_parser("verify", parents=[seeded],
                       help="the full verification battery")
    p.add_argument("--quick", action="store_true", default=False,
                   help="reduced trial counts, same checks")
    p.set_defaults(run=lambda a: run_verification_suite(a.seed, quick=a.quick, meta=a.meta))

    return parser


def _short(value) -> str:
    if isinstance(value, float):
        return f"{value:.8g}"
    return str(value)


_PLUMBING_KEYS = ("subcommand", "outdir", "output", "run", "meta")


def _param(value):
    if isinstance(value, _InputFile):
        import hashlib  # here, not at start-up: it loads OpenSSL, about 3.5 MB

        return "sha256:" + hashlib.sha256(Path(value).read_bytes()).hexdigest()
    return value


def _params(args) -> dict:
    """The parsed flags a run records in its header: all but the plumbing
    ones, and without --seed and --trials for a trialstate check that reads
    neither, so that its record does not depend on them."""
    params = {k: v for k, v in vars(args).items() if k not in _PLUMBING_KEYS}
    if params.get("check") in _UNSEEDED_CHECKS:
        del params["seed"], params["trials"]
    return params


def _probe_output(outdir: Path, base: str) -> None:
    """Create `outdir`, and create and remove the temporary file that
    writing the record starts with, so an output that cannot be written
    raises its OSError before the check runs."""
    outdir.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_beside(outdir / f"{base}.jsonl")
    with tmp.open("w"):
        pass
    tmp.unlink()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    args.meta = {}  # sidecar fields a run adds
    base = args.output or args.subcommand
    outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    started = time.perf_counter()
    try:
        if getattr(args, "seed", 0) < 0:
            raise PreconditionError(f"seed must be >= 0, got {args.seed}")
        try:
            _probe_output(outdir, base)
        except OSError as exc:  # a missing, read-only or non-directory output
            raise PreconditionError(f"cannot write {outdir / base}.jsonl: {exc.strerror or exc}")
        with solver_counters() as args.meta["counters"]:
            rows, summary, tables = args.run(args)
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (AccuracyError, BudgetExceededError, ResourceLimitError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    args.meta["duration_s"] = time.perf_counter() - started
    tables = {name: (tuple(columns), Columns(*columns.values()))
              for name, columns in tables.items()}
    args.meta["tables"] = {name: len(rows) for name, (_, rows) in tables.items()}

    params = _params(args)
    header = {
        "subcommand": args.subcommand,
        "seed": int(params.get("seed", 0)),
        "params": {k: _param(v) for k, v in params.items()},
    }
    try:
        with _staging() as staged:
            record_path = write_record(outdir, base, header, rows, summary, args.meta, staged)
            for name, (columns, table_rows) in tables.items():
                write_table(outdir, base, name, columns, table_rows, staged)
    except OSError as exc:  # the probe passed, so a resource ran out (a full disk)
        print(f"error: writing the records of {outdir / base} failed: {exc.strerror or exc}",
              file=sys.stderr)
        return 3

    for row in rows:
        verdict = row.get("holds", row.get("passed"))
        if verdict is None:
            continue
        status = "ok" if verdict else "FAIL"
        detail = " ".join(
            f"{k}={_short(v)}" for k, v in row.items()
            if k not in ("check", "holds", "passed")
        )
        print(f"[{status}] {row.get('check', 'row')}: {detail}")

    passed = summary.get("passed", all(r.get("holds", True) for r in rows))
    failed = summary.get("failed", [])
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    print(f"{args.subcommand}: {'PASS' if passed else 'FAIL'} -> {record_path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
