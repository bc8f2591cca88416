"""Command-line orchestration: every check behind one reproducible tool.

Run records are line-oriented JSON -- a header line carrying the schema
tag, package version, subcommand, seed, and parameters; one line per
check row; a closing summary line -- with sorted keys and repr round-trip
floats, so two runs with the same configuration produce byte-identical
files.  `write_record` writes one from those parts; `main` passes it the
parsed flags, less the plumbing ones, as the parameters.  Records are
strict JSON: a non-finite float is written as the string "inf", "-inf"
or "nan", the spelling the CSV tables use.  The wall-clock duration
(and, for `verify`, each check's duration) is written to a sidecar
``<name>.meta.json`` to keep it out of the deterministic surface.
Plot-ready tables are CSV with a schema tag comment on the first line;
rendering is out of scope.

Each subcommand's parser carries the function it runs (``args.run``).  The
verification suite is `BATTERY`, ten subcommand invocations run one after
another through that same parser; check i takes word i of
``seed_words(master, 10)``, and a seeded check gets it as ``--seed``, so
``chargelab <argv> --trials N --seed <word i>`` replays it alone.

The library imports scipy.linalg inside the functions that use it, so a
subcommand pays at start-up only for the scipy it runs.

Exit codes: 0 every asserted check holds, 1 a check failed, 2 usage or
validation error, 3 resource/accuracy limit hit.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, bogolubov, correlation, matrixloc, spectral, trialstate, variational
from .errors import (
    AccuracyError,
    BudgetExceededError,
    ConsistencyError,
    DomainError,
    PreconditionError,
    ResourceLimitError,
    SolverError,
)
from .foldy import foldy_j, j_closed_form, j_from_integral, simplified_energy_quadrature
from .numerics import seed_words, uniform_radial_grid

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


def _py(value):
    """Coerce numpy scalars so records stay plain JSON/CSV types, through
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


@contextmanager
def _replacing(path: Path):
    """A text file to write in place of `path`: a temporary file beside it
    that is moved onto `path` only once the block completes, so a write
    that fails midway leaves `path` as it was and no temporary file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_record(outdir: Path, base: str, header: dict, rows, summary: dict,
                 meta: dict) -> Path:
    """Write ``<base>.jsonl`` -- the header fields after the schema tag and
    version, one line per row, the summary -- and the ``<base>.meta.json``
    sidecar: the `meta` fields and the time of writing."""
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [{"schema": SCHEMA_RECORD, "version": __version__, **header},
             *({"row": i, **row} for i, row in enumerate(rows)),
             {"summary": summary}]
    path = outdir / f"{base}.jsonl"
    with _replacing(path) as fh:
        for line in lines:
            fh.write(json.dumps(_py(line), sort_keys=True, allow_nan=False) + "\n")
    meta = {"schema": SCHEMA_META, "written_at": datetime.now(timezone.utc).isoformat(),
            **meta}
    with _replacing(outdir / f"{base}.meta.json") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
    return path


def write_table(outdir: Path, base: str, name: str, columns, rows) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{base}-{name}.csv"
    with _replacing(path) as fh:
        fh.write(f"# schema: {SCHEMA_CSV} table={name}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_py(v) for v in row])
    return path


# ---------------------------------------------------------------------------
# Check implementations.  Each returns (rows, summary, tables): rows are
# record dicts carrying a "holds" verdict where something is asserted;
# tables map name -> (columns, tuples) for optional CSV emission.  A
# check's pass bound is a constant of its function, and the row records
# the same name its verdict reads; no caller sets it.
# ---------------------------------------------------------------------------


def run_j_check():
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
    table = (("nu", "ell", "quadrature", "closed_form", "rel_err"),
             [(r["nu"], r["ell"], r["quadrature"], r["closed_form"], r["rel_err"])
              for r in rows])
    return rows, {"points": len(rows), "worst_rel_err": worst}, {"points": table}


def run_bogolubov_ladder(t: float, g_plus: float, g_minus: float, n_max_list):
    """Truncated-ladder ground energies against the closed-form bound; the
    deepest cutoff must close the gap to fraction_tol of |bound|."""
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
    table = (("n_max", "ground_energy", "gap", "gap_fraction"),
             [(r["n_max"], r["ground_energy"], r["gap"], r["gap_fraction"])
              for r in rows])
    return rows, {"final_gap_fraction": rows[-1]["gap_fraction"]}, {"ladder": table}


def run_bogolubov_fuzz(trials: int, seed: int, n_max_lo: int = 2, n_max_hi: int = 6):
    """Random couplings, random cutoff: ground energy must clear the bound."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    if not 1 <= n_max_lo <= n_max_hi:
        raise PreconditionError("need 1 <= n_max_lo <= n_max_hi")
    samples, violations, min_gap = [], 0, math.inf
    for ts in seed_words(seed, trials):
        rng = np.random.default_rng(ts)
        model = bogolubov.BogolubovModel(
            t=float(rng.uniform(0.0, 5.0)),
            g_plus=float(rng.uniform(0.0, 3.0)),
            g_minus=float(rng.uniform(0.0, 3.0)),
        )
        n_max = int(rng.integers(n_max_lo, n_max_hi + 1))
        energy = bogolubov.ground_energy(bogolubov.build_hamiltonian(model, n_max))
        gap = energy - bogolubov.closed_form_bound(model)
        if gap < -model.gap_tolerance:
            violations += 1
        min_gap = min(min_gap, gap)
        samples.append(
            (ts, model.t, model.g_plus, model.g_minus, n_max, energy, gap)
        )
    row = {
        "check": "bogolubov-fuzz",
        "trials": trials,
        "violations": violations,
        "min_gap": min_gap,
        "tolerance": bogolubov.GAP_RTOL,
        "holds": violations == 0,
    }
    table = (("trial_seed", "t", "g_plus", "g_minus", "n_max", "energy", "gap"), samples)
    return [row], {"violations": violations, "min_gap": min_gap}, {"models": table}


def _ensemble_row(check: str, trials: int, slacks: np.ndarray) -> dict:
    """The verdict row of one seeded ensemble; a slack below -HOLDS_TOL, or
    a NaN slack, is a violation."""
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
    """Seeded configuration fuzz for the classical electrostatic inequalities."""
    names = correlation.CHECKERS if which == "all" else (which,)
    rows, samples = [], []
    for name, sub in zip(names, seed_words(seed, len(names))):
        ensemble = correlation.run_random_ensemble(name, trials, sub)
        slacks = np.array([r[5] for r in ensemble])
        rows.append(_ensemble_row(f"inequality-{name}", trials, slacks))
        samples.extend((name,) + r for r in ensemble)
    table = (("checker", "trial_seed", "n", "mu", "lhs", "rhs", "slack"), samples)
    summary = {"violations": sum(r["violations"] for r in rows),
               "min_slack": min(r["min_slack"] for r in rows)}
    return rows, summary, {"trials": table}


def run_dyson(nodes: int = 800, r_max: float = 25.0):
    """Minimize the energy functional; assert the scaled-Gaussian ceiling,
    the virial identity, and two-grid agreement."""
    ceiling, agreement_tol = -0.05, 1e-4
    if nodes < 100:
        raise PreconditionError("nodes must be >= 100")
    result = variational.minimize(variational.default_init(nodes, r_max))
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
    profile = result.profile
    table = (("r", "phi"),
             list(zip(profile.grid.nodes.tolist(), profile.values.tolist())))
    summary = {"e_star": result.energy, "virial_residual": result.virial_residual}
    return rows, summary, {"profile": table}


def run_pair_identity():
    """Pointwise pair energy against -J rho^(5/4)."""
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


def run_trace_scaling(n_list=(1_000, 10_000, 100_000, 1_000_000)):
    """Tr Gamma over a particle-number ladder; the log-log slope must be
    3/5 within slope_tol."""
    target, slope_tol = 0.6, 0.01
    if len(n_list) < 2:
        raise PreconditionError("need at least two particle numbers")
    minimizer = variational.minimize()
    rows, traces = [], []
    for n in n_list:
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
    slope = float(np.polyfit(np.log([float(n) for n in n_list]), np.log(traces), 1)[0])
    rows.append(
        {
            "check": "trace-scaling-slope",
            "slope": slope,
            "target": target,
            "tolerance": slope_tol,
            "holds": abs(slope - target) <= slope_tol,
        }
    )
    table = (("n_particles", "trace_gamma"),
             [(int(n), tr) for n, tr in zip(n_list, traces)])
    return rows, {"slope": slope}, {"traces": table}


def run_upper_bound(n_list=(1, 32, 100_000)):
    """Many-body upper bound against N^(7/5) times the functional minimum."""
    tol = 1e-8
    minimizer = variational.minimize()
    rows, worst = [], 0.0
    for n in n_list:
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
    identity_tol = 1e-12
    names = tuple(sorted(trialstate.XI_FUNCTIONS))
    rows, samples = [], []
    for name, sub in zip(names, seed_words(seed, len(names))):
        ensemble = trialstate.berezin_lieb_ensemble(name, trials, sub)
        slacks = np.array([r[3] for r in ensemble])
        row = _ensemble_row(f"berezin-{name}", trials, slacks)
        if name == "identity":
            scale = np.array([max(1.0, abs(r[1])) for r in ensemble])
            exactness = float(np.max(np.abs(slacks) / scale))
            row["max_rel_slack"] = exactness
            row["holds"] = row["holds"] and exactness <= identity_tol
        rows.append(row)
        samples.extend((name,) + r for r in ensemble)
    table = (("xi", "trial_seed", "lhs", "rhs", "slack"), samples)
    return rows, {"violations": sum(r["violations"] for r in rows)}, {"instances": table}


def run_matrixloc_ensemble(trials: int, seed: int, size: int = 64, window: int = 8):
    """Gaussian symmetric instances: the restriction construction must meet
    the band budget with constant <= ceiling on every draw."""
    ceiling = 50.0
    worst, samples = matrixloc.gaussian_ensemble(trials, seed, n=size, window=window)
    row = {
        "check": "matrix-localization",
        "trials": trials,
        "size": size,
        "window": window,
        "worst_c_required": worst,
        "ceiling": ceiling,
        "holds": worst <= ceiling,
    }
    table = (("trial_seed", "lam", "value", "c_required"), samples)
    return [row], {"worst_c_required": worst}, {"instances": table}


def run_matrix_localize(matrix_path, psi_path, window: int, budget_c: float | None = None):
    """Localize one instance read from plain-text files."""
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
    tables = {
        "bands": (("k", "d_k"), list(enumerate(result.d.tolist()))),
        "phi": (
            ("index", "re", "im"),
            [(i, z.real, z.imag) for i, z in enumerate(np.asarray(result.phi, dtype=complex))],
        ),
    }
    return rows, {"value": result.value, "c_required": result.c_required}, tables


def _scale_pair_rows():
    """Matched-grid lambda = 2 covariance rows shared by both spectral studies."""
    invariance_tol = 1e-6
    base_grid = uniform_radial_grid(1600, 10.0)
    scaled_grid = uniform_radial_grid(1600, 5.0)
    base_spec = spectral.gaussian_well(12.0)
    scaled_spec = spectral.gaussian_well(48.0, 0.5)
    base = spectral.negative_sum(base_spec, base_grid)
    scaled = spectral.negative_sum(scaled_spec, scaled_grid)
    lt_drift = abs(scaled.lt_ratio / base.lt_ratio - 1.0)
    e_base = spectral.ground_state_energy(base_spec, base_grid)
    e_scaled = spectral.ground_state_energy(scaled_spec, scaled_grid)
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


def run_lt_study(depths=(50.0, 100.0, 200.0)):
    """Channel-summed spectra of deepening wells against the semiclassical
    ratio, plus the matched-grid scale invariance of both ratios."""
    ratio_tol = 0.15
    if len(depths) == 0:
        raise PreconditionError("depths must be nonempty")
    rows = []
    for depth in depths:
        result = spectral.negative_sum(spectral.gaussian_well(float(depth)))
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
    table = (("depth", "neg_sum", "v_integral", "lt_ratio", "rel_gap"),
             [(r["depth"], r["neg_sum"], r["v_integral"], r["lt_ratio"], r["rel_gap"])
              for r in rows if r["check"] == "lt-ratio"])
    summary = {"final_rel_gap": rows[len(depths) - 1]["rel_gap"]}
    return rows, summary, {"ratios": table}


def run_sobolev_study(depths=(5.0, 10.0, 20.0, 50.0)):
    """Ground-state-to-potential ratios along a depth ladder (the scale
    invariant combination), plus the matched-grid invariance rows."""
    if len(depths) == 0:
        raise PreconditionError("depths must be nonempty")
    rows = []
    for depth in depths:
        spec = spectral.gaussian_well(float(depth))
        e0 = spectral.ground_state_energy(spec)
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
    table = (("depth", "ground_energy", "v_integral", "ratio"),
             [(r["depth"], r["ground_energy"], r["v_integral"], r["ratio"])
              for r in rows if r["check"] == "sobolev-ratio"])
    return rows, {"depths": len(depths)}, {"ratios": table}


def run_stability(charges, q: int, c_lt: float, n_electrons: int,
                  radius: float | None = None, vacuum_strength: float | None = None):
    """The nearest-nucleus stability bound for nuclei of the given charges,
    or for the vacuum at an explicit strength when vacuum_strength is set."""
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


def run_verification_suite(master_seed: int, quick: bool = False,
                           durations: dict | None = None):
    """The canonical battery, run serially as subcommand invocations; check
    i takes word i of seed_words(master_seed, len(BATTERY)).  Each check's
    wall time in seconds is stored under its name in `durations`, if given."""
    parser = build_parser()
    rows, failed = [], []
    for (name, argv, trials), seed in zip(BATTERY, seed_words(master_seed, len(BATTERY))):
        if trials is not None:
            argv += ("--trials", str(trials[1] if quick else trials[0]), "--seed", str(seed))
        args = parser.parse_args(argv)
        started = time.perf_counter()
        check_rows, summary, _tables = args.run(args)
        if durations is not None:
            durations[name] = time.perf_counter() - started
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


def build_parser() -> argparse.ArgumentParser:
    """The subcommand table: each subparser's flags, and in `run` the check
    it calls with the parsed arguments.  An argument ``@FILE`` stands for
    the lines of FILE, one argument per line."""
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
    p.add_argument("--which", choices=correlation.CHECKERS + ("all",), default="all")
    p.add_argument("--trials", type=int, default=10_000)
    p.set_defaults(run=lambda a: run_inequality_fuzz(a.which, a.trials, a.seed))

    p = sub.add_parser("dyson-minimize", parents=[common],
                       help="variational minimum, virial, grid agreement")
    p.add_argument("--nodes", type=int, default=800)
    p.add_argument("--rmax", type=_finite_float, default=25.0)
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
    p.set_defaults(run=lambda a: run_verification_suite(
        a.seed, quick=a.quick, durations=a.meta.setdefault("checks", {})))

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


# an output path that names no writable file: a usage error, unlike a
# write that fails midway (a full disk), which propagates
_UNWRITABLE = (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
               PermissionError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    args.meta = {}  # sidecar fields a run adds
    started = time.perf_counter()
    try:
        if getattr(args, "seed", 0) < 0:
            raise PreconditionError(f"seed must be >= 0, got {args.seed}")
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

    header = {
        "subcommand": args.subcommand,
        "seed": int(getattr(args, "seed", 0)),
        "params": {k: _param(v) for k, v in vars(args).items() if k not in _PLUMBING_KEYS},
    }
    base = args.output or args.subcommand
    outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    try:
        record_path = write_record(outdir, base, header, rows, summary, args.meta)
        for name, (columns, table_rows) in tables.items():
            write_table(outdir, base, name, columns, table_rows)
    except _UNWRITABLE as exc:
        print(f"error: cannot write {outdir / base}.jsonl: {exc.strerror}", file=sys.stderr)
        return 2

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
