"""Acceptance gate: the package's headline guarantees, each at its stated
tolerance and trial count, one test and one printed pass/fail line apiece.

Run with -v (and -s to see the printed lines on success).  Every numeric
threshold here is load-bearing; none may be loosened to make a test pass.
The checks fix their own pass bounds, so each test asserts the recorded
quantity against its stated bound, and that the row records that bound.
"""

import hashlib
import json
import time

import numpy as np

from chargelab import cli, matrixloc, spectral
from chargelab.foldy import j_closed_form, j_from_integral

SEED = 1905
# sha256 of `verify --seed 1905`'s verify.jsonl, the behavioural oracle
VERIFY_SHA256 = "531c3c93a67e281b4cba56ec4d262d12454a6b0a2eef4e5e6c5602d1e0df5622"


def _verdict(label, ok, detail):
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_j_cross_route():
    start = time.perf_counter()
    diff = abs(j_from_integral() - j_closed_form())
    elapsed = time.perf_counter() - start
    ok = diff <= 1e-8 and elapsed < 1.0
    _verdict("01 j-cross-route", ok, f"diff={diff:.3e}, {elapsed:.2f}s")


def test_02_simplified_energy_identity():
    start = time.perf_counter()
    rows, summary, _ = cli.run_identity_check()
    elapsed = time.perf_counter() - start
    ok = (
        len(rows) == 12
        and all(r["holds"] and r["rel_err"] <= 1e-6 and r["tolerance"] == 1e-6 for r in rows)
        and elapsed < 10.0
    )
    _verdict("02 simplified-identity", ok,
             f"12 points, worst rel err {summary['worst_rel_err']:.3e}, {elapsed:.2f}s")


def test_03_bogolubov_bound_and_sharpness():
    start = time.perf_counter()
    fuzz_rows, fuzz, _ = cli.run_bogolubov_fuzz(1000, SEED, n_max_lo=2, n_max_hi=6)
    ladder_rows, ladder, _ = cli.run_bogolubov_ladder(1.0, 1.0, 0.0, (12,))
    elapsed = time.perf_counter() - start
    ok = (
        all(r["holds"] for r in fuzz_rows + ladder_rows)
        and fuzz["violations"] == 0
        and ladder["final_gap_fraction"] <= 0.01
        and ladder_rows[-1]["tolerance"] == 0.01
        and elapsed < 300.0
    )
    _verdict("03 bogolubov-bound", ok,
             f"1000 models 0 violations (min gap {fuzz['min_gap']:.3e}), "
             f"n_max=12 gap fraction {ladder['final_gap_fraction']:.3e}, {elapsed:.1f}s")


def test_04_electrostatic_inequality_fuzz():
    # 10^5 configurations per checker; every slack must clear -1e-10
    start = time.perf_counter()
    rows, summary, _ = cli.run_inequality_fuzz("all", 100_000, SEED)
    elapsed = time.perf_counter() - start
    ok = (
        len(rows) == 3
        and all(r["holds"] for r in rows)
        and summary["violations"] == 0
        and elapsed < 300.0
    )
    _verdict("04 inequality-fuzz", ok,
             f"3x100000 configurations 0 violations, "
             f"min slack {summary['min_slack']:.6e}, {elapsed:.1f}s")


def test_05_functional_minimum_virial_and_grids():
    start = time.perf_counter()
    rows, summary, _ = cli.run_dyson(nodes=800, r_max=25.0)
    elapsed = time.perf_counter() - start
    ok = (
        all(r["holds"] for r in rows)
        and summary["e_star"] <= -0.05 and rows[0]["ceiling"] == -0.05
        and rows[2]["rel_change"] <= 1e-4 and rows[2]["tolerance"] == 1e-4
        and elapsed < 60.0
    )
    _verdict("05 dyson-minimize", ok,
             f"e_star={summary['e_star']:.10f} <= -0.05, "
             f"virial residual {summary['virial_residual']:.3e}, "
             f"grid rel change {rows[2]['rel_change']:.3e}, {elapsed:.1f}s")


def test_06_pointwise_pair_energy_identity():
    start = time.perf_counter()
    rows, summary, _ = cli.run_pair_identity()
    elapsed = time.perf_counter() - start
    ok = (
        [r["rho"] for r in rows] == [1e-2, 1.0, 1e2, 1e4]
        and all(r["holds"] and r["rel_err"] <= 1e-6 and r["tolerance"] == 1e-6 for r in rows)
        and elapsed < 10.0
    )
    _verdict("06 pair-energy-identity", ok,
             f"4 densities, worst rel err {summary['worst_rel_err']:.3e}, {elapsed:.2f}s")


def test_07_reduced_density_trace_scaling():
    start = time.perf_counter()
    rows, summary, _ = cli.run_trace_scaling()
    elapsed = time.perf_counter() - start
    ok = (
        [r["n_particles"] for r in rows[:-1]] == [1_000, 10_000, 100_000, 1_000_000]
        and all(r["holds"] for r in rows)
        and abs(summary["slope"] - 0.6) <= 0.01 and rows[-1]["tolerance"] == 0.01
        and elapsed < 60.0
    )
    _verdict("07 trace-scaling", ok,
             f"log-log slope {summary['slope']:.6f} = 0.600 +/- 0.010, {elapsed:.1f}s")


def test_08_upper_bound_consistency():
    rows, summary, _ = cli.run_upper_bound()
    ok = (
        [r["n_particles"] for r in rows] == [1, 32, 100_000]
        and all(r["holds"] and r["rel_err"] <= 1e-8 and r["tolerance"] == 1e-8 for r in rows)
    )
    _verdict("08 upper-bound", ok,
             f"N in (1, 32, 100000), worst rel err {summary['worst_rel_err']:.3e}")


def test_09_coherent_trace_inequality_ensemble():
    start = time.perf_counter()
    rows, summary, _ = cli.run_berezin(1000, SEED)
    elapsed = time.perf_counter() - start
    identity = next(r for r in rows if r["check"] == "berezin-identity")
    ok = (
        len(rows) == 4
        and all(r["holds"] for r in rows)
        and summary["violations"] == 0
        and identity["max_rel_slack"] <= 1e-12
        and elapsed < 60.0
    )
    _verdict("09 berezin-lieb", ok,
             f"4x1000 instances 0 violations, "
             f"identity max rel slack {identity['max_rel_slack']:.3e}, {elapsed:.1f}s")


def test_10_matrix_localization_ensemble():
    start = time.perf_counter()
    rows, summary, _ = cli.run_matrixloc_ensemble(1000, SEED, size=64, window=8)
    elapsed = time.perf_counter() - start
    # invariants, spot-checked on a fresh draw (construction enforces them
    # on every ensemble member, raising on any breach)
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((64, 64))
    a = (a + a.T) / 2.0
    psi = rng.standard_normal(64)
    psi /= np.linalg.norm(psi)
    result = matrixloc.localize(matrixloc.LocalizationProblem(a, psi, 8))
    outside = np.ones(64, dtype=bool)
    outside[result.offset:result.offset + 8] = False
    invariants = (
        abs(float(result.d.sum()) - result.lam) <= 1e-10
        and abs(np.linalg.norm(result.phi) - 1.0) <= 1e-12
        and bool(np.all(result.phi[outside] == 0.0))
    )
    ok = (
        all(r["holds"] for r in rows)
        and summary["worst_c_required"] <= 50.0 and rows[0]["ceiling"] == 50.0
        and invariants
        and elapsed < 60.0
    )
    _verdict("10 matrix-localization", ok,
             f"1000 instances, worst C {summary['worst_c_required']:.4f} <= 50, "
             f"invariants {'exact' if invariants else 'BROKEN'}, {elapsed:.1f}s")


def test_11_semiclassical_ratio_and_scale_invariance():
    start = time.perf_counter()
    deep = spectral.negative_sum(spectral.gaussian_well(200.0))
    rel_gap = abs(deep.lt_ratio / -0.019105 - 1.0)
    pair = cli._scale_pair_rows()
    elapsed = time.perf_counter() - start
    ok = (
        rel_gap <= 0.15
        and all(r["holds"] and r["rel_drift"] <= 1e-6 and r["tolerance"] == 1e-6 for r in pair)
        and elapsed < 120.0
    )
    _verdict("11 semiclassical-ratio", ok,
             f"depth-200 ratio {deep.lt_ratio:.8f} within {rel_gap:.2%} of -0.019105, "
             f"scale drift {max(r['rel_drift'] for r in pair):.3e}, {elapsed:.1f}s")


def test_12_full_suite_determinism(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    code_a = cli.main(["verify", "--seed", str(SEED), "--outdir", str(dir_a)])
    code_b = cli.main(["verify", "--seed", str(SEED), "--outdir", str(dir_b)])
    bytes_a = (dir_a / "verify.jsonl").read_bytes()
    bytes_b = (dir_b / "verify.jsonl").read_bytes()
    summary = json.loads(bytes_a.splitlines()[-1])["summary"]
    digest = hashlib.sha256(bytes_a).hexdigest()
    ok = (code_a == 0 and code_b == 0 and bytes_a == bytes_b and summary["passed"]
          and digest == VERIFY_SHA256)
    _verdict("12 suite-determinism", ok,
             f"two runs, {len(bytes_a)} record bytes identical, "
             f"{summary['checks']} checks passed, sha256 {digest} "
             f"(pinned {VERIFY_SHA256}; a change that alters the records on "
             f"purpose updates the pin and names the changed fields in CHANGES.md)")
