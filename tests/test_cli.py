"""Command-line layer: records, determinism, exit codes, argument files."""

import argparse
import ast
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargelab import (
    bogolubov, cli, correlation, foldy, matrixloc, numerics, spectral, trialstate, variational,
)
from chargelab.foldy import foldy_j


SUBCOMMANDS = (
    "foldy-j", "foldy-identity", "bogolubov-sharpness", "bogolubov-fuzz",
    "check-inequalities", "dyson-minimize", "trialstate", "matrix-localize",
    "matrixloc-ensemble", "lt-study", "sobolev-study", "stability-bound", "verify",
)


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def count_calls(monkeypatch, module, name):
    """The list of argument tuples of every call to `module.name`, which
    still runs."""
    calls, function = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def fresh_minimum():
    """An empty `variational.default_minimum` cache, emptied again after the
    test, so a defect injected upstream of the descent neither reads a
    minimizer solved before it nor leaves one behind."""
    variational.default_minimum.cache_clear()
    yield
    variational.default_minimum.cache_clear()


def read_record(path):
    """Header, rows and summary of a record; fails on anything but strict JSON."""
    lines = [json.loads(ln, parse_constant=_reject_constant)
             for ln in path.read_text().splitlines()]
    header, summary = lines[0], lines[-1]["summary"]
    rows = lines[1:-1]
    return header, rows, summary


def table_rows(columns):
    """The rows of a table (column name -> array), as its CSV writes them."""
    return list(cli.Columns(*columns.values()))


class TestCheckFunctions:
    def test_j_check(self):
        rows, summary, tables = cli.run_j_check()
        assert rows[0]["holds"]
        assert summary["cross_route_diff"] <= 1e-8
        assert tables == {}

    def test_identity_check_is_tight(self):
        rows, summary, _ = cli.run_identity_check()
        assert len(rows) == 12
        assert all(r["holds"] for r in rows)
        assert summary["worst_rel_err"] < 1e-10

    def test_bogolubov_ladder_converges(self):
        rows, summary, _ = cli.run_bogolubov_ladder(1.0, 1.0, 0.0, (2, 4, 8, 12))
        assert all(r["holds"] for r in rows)
        assert summary["final_gap_fraction"] < 1e-9
        gaps = [r["gap"] for r in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_bogolubov_fuzz_reproducible(self):
        rows_a, summary_a, tables_a = cli.run_bogolubov_fuzz(25, 31, 2, 6)
        rows_b, summary_b, tables_b = cli.run_bogolubov_fuzz(25, 31, 2, 6)
        assert rows_a == rows_b
        assert table_rows(tables_a["models"]) == table_rows(tables_b["models"])
        assert summary_a["violations"] == 0
        assert summary_a["min_gap"] >= -1e-9
        # the row names the largest absolute allowance its verdicts read
        assert rows_a[0]["max_allowance"] == max(
            bogolubov.BogolubovModel(t, gp, gm).gap_tolerance
            for _seed, t, gp, gm, *_ in table_rows(tables_a["models"]))

    def test_bogolubov_fuzz_rows_replay_their_trial_seeds(self):
        _, _, tables = cli.run_bogolubov_fuzz(40, 1905, 2, 6)
        samples = table_rows(tables["models"])
        assert [s[0] for s in samples] == numerics.seed_words(1905, 40)
        for ts, t, g_plus, g_minus, n_max, _energy, _gap in samples:
            assert cli._draw_models(numerics.trial_stack(ts), 2, 6) == [
                (t, g_plus, g_minus, n_max)]

    def test_inequality_fuzz_all(self):
        rows, summary, tables = cli.run_inequality_fuzz("all", 150, 5)
        assert [r["check"] for r in rows] == [
            "inequality-onsager", "inequality-baxter", "inequality-positivity",
        ]
        assert summary["violations"] == 0
        assert len(table_rows(tables["trials"])) == 450

    def test_single_checker_selection(self):
        rows, _, tables = cli.run_inequality_fuzz("baxter", 40, 5)
        assert len(rows) == 1 and rows[0]["check"] == "inequality-baxter"
        assert len(table_rows(tables["trials"])) == 40

    def test_dyson_rows(self):
        rows, summary, tables = cli.run_dyson(800, 25.0)
        by_name = {r["check"]: r for r in rows}
        assert by_name["dyson-minimize"]["energy"] <= -0.05
        assert by_name["dyson-virial"]["holds"]
        assert by_name["dyson-grid-agreement"]["rel_change"] <= 1e-4
        assert summary["e_star"] == by_name["dyson-minimize"]["energy"]
        assert len(table_rows(tables["profile"])) == 800

    def test_pair_identity(self):
        rows, summary, _ = cli.run_pair_identity()
        assert [r["rho"] for r in rows] == [1e-2, 1.0, 1e2, 1e4]
        assert summary["worst_rel_err"] <= 1e-6

    def test_trace_scaling_short_ladder(self, monkeypatch):
        monkeypatch.setattr(cli, "TRACE_LADDER", (1_000, 100_000))
        rows, summary, _ = cli.run_trace_scaling()
        assert [r["n_particles"] for r in rows[:-1]] == [1_000, 100_000]
        assert abs(summary["slope"] - 0.6) <= 0.01
        assert rows[-1]["holds"]

    def test_upper_bound(self, monkeypatch):
        monkeypatch.setattr(cli, "UPPER_BOUND_LADDER", (1, 32))
        rows, summary, _ = cli.run_upper_bound()
        assert [r["n_particles"] for r in rows] == [1, 32]
        assert all(r["holds"] for r in rows)
        assert summary["worst_rel_err"] <= 1e-8

    def test_berezin_rows(self):
        rows, summary, tables = cli.run_berezin(50, 12)
        assert [r["check"] for r in rows] == [
            "berezin-identity", "berezin-log1p", "berezin-sqrt",
            "berezin-sqrt-pairing",
        ]
        assert summary["violations"] == 0
        assert rows[0]["max_rel_slack"] <= 1e-12
        assert len(table_rows(tables["instances"])) == 200

    def test_matrixloc_ensemble(self):
        rows, summary, tables = cli.run_matrixloc_ensemble(50, 8, 64, 8)
        assert rows[0]["holds"]
        assert summary["worst_c_required"] <= 50.0
        assert summary["worst_c_required"] == max(r[3] for r in table_rows(tables["instances"]))

    def test_lt_study(self):
        rows, summary, _ = cli.run_lt_study(depths=(50.0,))
        by_name = {r["check"]: r for r in rows}
        assert by_name["lt-ratio"]["rel_gap"] <= 0.15
        assert by_name["lt-scale-invariance"]["rel_drift"] <= 1e-6
        assert by_name["sobolev-scale-invariance"]["rel_drift"] <= 1e-6

    def test_sobolev_study(self):
        rows, _, _ = cli.run_sobolev_study(depths=(5.0, 20.0))
        ratios = [r["ratio"] for r in rows if r["check"] == "sobolev-ratio"]
        assert len(ratios) == 2 and all(r < 0 for r in ratios)

    def test_stability_vacuum_and_nuclei(self):
        rows, summary, _ = cli.run_stability(
            (), 2, 0.04, 5, radius=1.0 / 3.0, vacuum_strength=3.0
        )
        assert summary["total"] == -45.0
        rows, summary, _ = cli.run_stability((1.0,), 2, 0.04, 10)
        assert summary["per_electron"] == pytest.approx(
            -9.888264396098041, rel=1e-12
        )


def _traced_peak(run, *args):
    """The peak traced memory, in bytes, of one call of `run`."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrialFootprint:
    """A seeded run keeps its trials as columns of 8-byte numbers: its
    traced peak grows by a bounded number of bytes per trial.  Measured
    growth: rows of Python tuples took 580 B a trial in the inequality fuzz
    (3 checkers) and 1369 B in the Berezin-Lieb ensembles (4 xi); columns
    take 143 and 128 B, under the tables' own 168 and 160 B a trial."""

    @pytest.mark.parametrize("run, args, trials, bound", [
        (cli.run_inequality_fuzz, ("all",), (2000, 8000), 180),
        (cli.run_berezin, (), (400, 1600), 160),
    ], ids=["inequality-fuzz", "berezin-lieb"])
    def test_peak_grows_by_a_bounded_size_per_trial(self, run, args, trials, bound):
        run(*args, 20, 1905)  # the caches that a first run fills
        small, large = (_traced_peak(run, *args, count, 1905) for count in trials)
        per_trial = (large - small) / (trials[1] - trials[0])
        assert per_trial <= bound, f"{per_trial:.0f} B per trial"


class TestBogolubovDrawLayout:
    """Words 0-3 of each Bogolubov fuzz trial against its distribution."""

    SEEDS = numerics.trial_blocks(1905, 4000, 4000)[0]

    @pytest.mark.parametrize("lo, hi", [(2, 6), (1, 1), (3, 20)])
    def test_draws_cover_their_ranges(self, lo, hi):
        t, g_plus, g_minus, n_max = map(np.array, zip(*cli._draw_models(self.SEEDS, lo, hi)))
        assert sorted(set(n_max.tolist())) == list(range(lo, hi + 1))
        assert np.all((t >= 0.0) & (t < 5.0)) and t.max() > 4.99
        for g in (g_plus, g_minus):
            assert np.all((g >= 0.0) & (g < 3.0)) and g.max() > 2.99

    def test_extreme_words_map_inside_the_ranges(self, monkeypatch):
        def constant_words(word):
            monkeypatch.setattr(numerics, "splitmix64", lambda seeds, first, count: np.full(
                (len(seeds), count), word, dtype=np.uint64))

        constant_words(0)
        assert cli._draw_models(numerics.trial_stack(0), 2, 6) == [(0.0, 0.0, 0.0, 2)]
        constant_words(2**64 - 1)
        (t, g_plus, g_minus, n_max), = cli._draw_models(numerics.trial_stack(0), 2, 6)
        assert t < 5.0 and g_plus < 3.0 and g_minus < 3.0 and n_max == 6


# sha256 of the .jsonl and of every CSV each argv writes
RECORD_PINS = (
    (("foldy-j",), {
        "foldy-j.jsonl": "9c7f7fbb11cc137ad63d425d3afe122ae13c90b3767cf3be555598e2412ef04d"}),
    (("foldy-identity",), {
        "foldy-identity.jsonl":
            "777c92fbf1a7bedf634e5a32a866b3d65c613209a72e9718f69fa1aa300f4731"}),
    (("bogolubov-sharpness",), {
        "bogolubov-sharpness.jsonl":
            "071d3af70b4338296e5b15083f81103f969aed77896a810c0e214380af706bfd"}),
    (("dyson-minimize",), {
        "dyson-minimize.jsonl":
            "0f555a07d13ec5e1f8212de4f85c230f84a366d684fb8a9e05f9507e603dface",
        "dyson-minimize-profile.csv":
            "ceec96cf7cd03f52c3220f4dd9eed5932ed6026c702c5c2d256c32ac07a669fe"}),
    (("lt-study",), {
        "lt-study.jsonl": "4f2e51864b8aa6a44ade47090860549d8ab2e5ddb52366864c96d43fdeab1507"}),
    (("sobolev-study",), {
        "sobolev-study.jsonl":
            "963085591a155b9ca390b3e154e33759e5732b2072dca3915601c3316b574341"}),
    (("bogolubov-fuzz", "--trials", "25", "--seed", "1905"), {
        "bogolubov-fuzz.jsonl":
            "fc52696f0e6ae25e32831c376aeae45136aee8aefc081f87366a43abf846e3a7",
        "bogolubov-fuzz-models.csv":
            "dcb899f067fbf36efa7d19f8f5272ac9c5f3cd09c95ca6949a1149e2d467c516"}),
    (("trialstate", "--check", "pair-energy"), {
        "trialstate.jsonl": "8a1997961cd623d50a40acdaab301f56c1e8cda905114f9ef237c61b81ae36aa"}),
    (("trialstate", "--check", "trace-scaling"), {
        "trialstate.jsonl": "0d8be5727a979a02c8a50dbe1019e6f587f7426962ee2f8a402957ca048efde5"}),
    (("trialstate", "--check", "upper-bound"), {
        "trialstate.jsonl": "8cdd67baedd8b34f4391339240c064af22f297a9782b3ecf5e616b2b8e585f71"}),
    (("trialstate", "--check", "berezin-lieb", "--trials", "20"), {
        "trialstate.jsonl": "0e6de10ce1c496f8a8d627734e572b130ef0d362b03a8a6b7b6ad203b1cb40e3",
        "trialstate-instances.csv":
            "babc27beb41d2b62aadb2bbecd88df4ce91ba5b5b114e1fab5186ff63d9d2497"}),
    # a table over several blocks of each ensemble; --trials leads, so that
    # its test id differs from the 20-trial pin's
    (("trialstate", "--trials", "400", "--check", "berezin-lieb", "--seed", "1905"), {
        "trialstate.jsonl": "977e16b1dbe65d414926219042f9138b315ef362f9b462d30e03589bb68e9f3a",
        "trialstate-instances.csv":
            "1307f0b720a11f185abc96e40d6c20462d122e4d53749aa3d1ff5ab60e8df969"}),
    (("matrixloc-ensemble", "--trials", "20"), {
        "matrixloc-ensemble.jsonl":
            "bf017c467ef926527f72084821d01ecd1aaaddb667bcd414d251881425e2e3e4",
        "matrixloc-ensemble-instances.csv":
            "390f2624400e89cdc84f02e5db501752e9272c7a9131dbf646e80bc5cdbd8767"}),
    # the header records each input file by the sha256 of its bytes
    (("matrix-localize", "--matrix", "a.txt", "--psi", "psi.txt", "--window", "4",
      "--budget-c", "3.0"), {
        "matrix-localize.jsonl":
            "834eceb3e3497f3e355c4019d1f4e69bc2b5d787cd080bc052af8e9f6acbd225",
        "matrix-localize-bands.csv":
            "08a3e827a390d80e12ba56fa7de7f1db2d5c5497fe5e8bcbbb6f83003a31712e",
        "matrix-localize-phi.csv":
            "3801b6b7d1741ec83c8febf5312a5ca520424c9b3ac233f14f99da695baaecb2"}),
)


class TestMainPlumbing:
    def test_record_layout(self, tmp_path):
        assert cli.main(["foldy-j", "--outdir", str(tmp_path)]) == 0
        header, rows, summary = read_record(tmp_path / "foldy-j.jsonl")
        assert header["schema"] == cli.SCHEMA_RECORD
        assert header["subcommand"] == "foldy-j"
        assert header["params"] == {}
        assert rows[0]["row"] == 0 and rows[0]["holds"]
        assert summary["cross_route_diff"] <= 1e-8
        meta = json.loads((tmp_path / "foldy-j.meta.json").read_text())
        assert meta["schema"] == cli.SCHEMA_META
        assert meta["duration_s"] > 0
        assert set(meta) == {"schema", "duration_s", "written_at", "env", "peak_rss_mb",
                             "tables", "counters", "modules"}
        assert type(meta["peak_rss_mb"]) is float and meta["peak_rss_mb"] > 0
        assert meta["tables"] == {}  # foldy-j writes no CSV table
        assert meta["counters"] == {"inertia_calls": 0, "lane_evaluations": 0}
        # this process imported every module before the run
        assert meta["modules"] == sorted(
            m for m in sys.modules if m == "chargelab" or m.startswith("chargelab."))
        record = (tmp_path / "foldy-j.jsonl").read_text()
        assert "counters" not in record and "inertia_calls" not in record
        assert "modules" not in record and "chargelab.numerics" not in record
        config = np.show_config(mode="dicts")
        assert meta["env"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": config["Build Dependencies"]["blas"]["name"],
            "blas_version": config["Build Dependencies"]["blas"]["version"],
            "simd": config["SIMD Extensions"]["found"] or [],
            "cpu_count": os.cpu_count(),
            **{name: os.environ.get(name) for name in (
                "OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        }

    @pytest.mark.parametrize("config", [
        {"SIMD Extensions": {"baseline": [], "found": None, "not found": ["AVX2"]}},
        {"Build Dependencies": {}},
    ], ids=["none-found", "no-section"])
    def test_env_simd_is_a_list_when_numpy_dispatches_none(self, config, monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda mode=None: config)
        env = cli._environment()
        assert env["simd"] == [] and env["blas"] is None

    def test_verify_sidecar_times_each_check(self, tmp_path):
        assert cli.main(["verify", "--quick", "--outdir", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "verify.meta.json").read_text())
        assert set(meta) == {"schema", "duration_s", "written_at", "env", "peak_rss_mb",
                             "tables", "counters", "modules", "checks",
                             "checks_peak_rss_mb", "checks_counters"}
        # only lt-semiclassics solves eigenvalues; the run's counters add up its checks'
        counters = meta["checks_counters"]
        assert sorted(counters) == sorted(name for name, _argv, _trials in cli.BATTERY)
        assert counters.pop("lt-semiclassics") == meta["counters"]
        assert meta["counters"]["inertia_calls"] > 0
        assert all(c == {"inertia_calls": 0, "lane_evaluations": 0} for c in counters.values())
        assert "inertia_calls" not in (tmp_path / "verify.jsonl").read_text()
        checks = meta["checks"]
        assert sorted(checks) == sorted(name for name, _argv, _trials in cli.BATTERY)
        for seconds in checks.values():
            assert type(seconds) is float and math.isfinite(seconds) and seconds >= 0
        # high-water marks: they never fall, and the record's is the last
        peaks = [meta["checks_peak_rss_mb"][name] for name, _argv, _trials in cli.BATTERY]
        assert all(type(mb) is float and mb > 0 for mb in peaks)
        assert peaks == sorted(peaks) and peaks[-1] <= meta["peak_rss_mb"]

    def test_output_name_override(self, tmp_path):
        assert cli.main(
            ["foldy-j", "--outdir", str(tmp_path), "--output", "custom"]
        ) == 0
        assert (tmp_path / "custom.jsonl").exists()

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envdir"))
        assert cli.main(["foldy-j"]) == 0
        assert (tmp_path / "envdir" / "foldy-j.jsonl").exists()

    def test_csv_table_schema_tag(self, tmp_path):
        assert cli.main(
            ["check-inequalities", "--trials", "30", "--seed", "3",
             "--outdir", str(tmp_path)]
        ) == 0
        lines = (tmp_path / "check-inequalities-trials.csv").read_text().splitlines()
        assert lines[0].startswith(f"# schema: {cli.SCHEMA_CSV}")
        assert lines[1] == "checker,trial_seed,n,mu,lhs,rhs,slack"
        assert len(lines) == 2 + 90  # three checkers x 30 trials

    def test_inequality_records_match_the_pinned_digests(self, tmp_path):
        # the behavioural oracle of the seeded fuzz, byte for byte
        assert cli.main(["check-inequalities", "--trials", "3000", "--seed", "1905",
                         "--outdir", str(tmp_path)]) == 0
        pins = {
            "check-inequalities.jsonl":
                "d1c6b45639bc68a033cce1a485168b1f45b383ad255050d10938861e0a031ff4",
            "check-inequalities-trials.csv":
                "82a1651d33995a5fe04c574a816ac7178013753c4435f202947812d98b5a22b0",
        }
        for name, pinned in pins.items():
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == pinned, (
                f"{name}: sha256 {digest} != pinned {pinned}; a change that alters "
                f"the records on purpose updates the pin and names the changed "
                f"fields in CHANGES.md")

    def test_stability_records_match_the_pinned_digests(self, tmp_path):
        # verify does not run stability-bound, so its digests do not cover it
        pins = {
            (): "a89eb62bb52781a2bea4019a1cce8fefca58618e10b7db705e790b8c4f38ee76",
            ("--charges", "1,1,1", "--q", "2", "--c-lt", "0.04", "--n-electrons", "10"):
                "8a5c64e070d0f8aa1b6892e4589cf84bf00f798efe17a01e6ec47f9e7ab503ea",
            ("--charges", "1,2,3", "--radius", "0.5"):
                "1ea58ed0542b11ec65b9bed270ea02f0faee6c3d0db06049ebb4d0b47fffef78",
            ("--charges", "1e123"):
                "970b59d4042429c967a3f734898109c6e580e3bc71a06ac78fbe30558ce36d8e",
            ("--vacuum-strength", "3", "--radius", "0.3333"):
                "bb67dfd0c1b7fc93bcda040266870e8c6c7731700671219a24a53cc70f70c728",
            ("--radius=4e307",):
                "044deae550f75782f7dc232df8c6989ef36578d14cc1e6223c94d3565b511334",
            ("--charges", "2", "--radius", "1e-300"):
                "6c5d9d32e61eec38415a19e78e403d8528ddfb20c589f2f027c06e24d8b359f1",
        }
        for flags, pinned in pins.items():
            assert cli.main(["stability-bound", *flags, "--outdir", str(tmp_path)]) == 0
            name = "stability-bound.jsonl"
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == pinned, (
                f"{name} {' '.join(flags)}: sha256 {digest} != pinned {pinned}; a change "
                f"that alters the records on purpose updates the pin and names the "
                f"changed fields in CHANGES.md")

    @pytest.mark.parametrize("argv, pins", RECORD_PINS, ids=[
        " ".join(argv[:3]) for argv, _pins in RECORD_PINS])
    def test_records_match_the_pinned_digests(self, argv, pins, tmp_path, monkeypatch):
        # the subcommands verify does not write, byte for byte
        monkeypatch.chdir(tmp_path)
        if argv[0] == "matrix-localize":
            n = 8
            a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
            matrixloc.write_matrix(tmp_path / "a.txt", a)
            matrixloc.write_vector(tmp_path / "psi.txt", np.full(n, n**-0.5))
        out = tmp_path / "out"
        assert cli.main([*argv, "--outdir", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.suffix in (".jsonl", ".csv")}
        assert digests == pins, (
            f"{' '.join(argv)}: sha256 {digests} != pinned {pins}; a change that "
            f"alters the records on purpose updates the pin and names the changed "
            f"fields in CHANGES.md")
        meta = json.loads((out / f"{argv[0]}.meta.json").read_text())
        assert set(meta) == {"schema", "duration_s", "written_at", "env", "peak_rss_mb",
                             "tables", "counters", "modules"}
        # the spectral studies count their eigenvalue solver's work
        solves = argv[0] in ("lt-study", "sobolev-study")
        assert (meta["counters"]["lane_evaluations"] > 0) == solves
        # the row count of each CSV table: its lines less the tag and the header
        assert meta["tables"] == {
            p.name[len(argv[0]) + 1:-4]: len(p.read_text().splitlines()) - 2
            for p in out.iterdir() if p.suffix == ".csv"}

    def test_unseeded_trialstate_records_ignore_seed_and_trials(self, tmp_path):
        runs = (["trialstate", "--check", "pair-energy"],
                ["trialstate", "--check", "pair-energy", "--seed", "7", "--trials", "3"])
        for k, argv in enumerate(runs):
            assert cli.main([*argv, "--outdir", str(tmp_path), "--output", f"run{k}"]) == 0
        assert (tmp_path / "run0.jsonl").read_bytes() == (tmp_path / "run1.jsonl").read_bytes()
        header, _, _ = read_record(tmp_path / "run0.jsonl")
        assert header["seed"] == 0 and header["params"] == {"check": "pair-energy"}

    def test_failed_write_keeps_the_earlier_files(self, tmp_path, monkeypatch, capsys):
        argv = ["bogolubov-fuzz", "--trials", "5", "--outdir", str(tmp_path)]
        assert cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert set(before) == {"bogolubov-fuzz.jsonl", "bogolubov-fuzz.meta.json",
                               "bogolubov-fuzz-models.csv"}

        class DiskFull:
            """A file that stores half of the first write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = Path.open
        monkeypatch.setattr(Path, "open", lambda p, *a, **k: DiskFull(real_open(p, *a, **k)))
        capsys.readouterr()
        assert cli.main(argv[:-2] + ["--seed", "2", *argv[-2:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "No space left on device" in err
        with pytest.raises(OSError), cli._staging() as staged:
            cli.write_table(tmp_path, "bogolubov-fuzz", "models", ("a",),
                            cli.Columns(np.array([1])), staged)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_table_write_keeps_the_whole_earlier_set(self, tmp_path, monkeypatch,
                                                             capsys):
        # the record and its sidecar are written before the table; none of
        # the three may be replaced unless all three were written
        argv = ["bogolubov-fuzz", "--trials", "5", "--outdir", str(tmp_path)]
        assert cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_open = Path.open

        def open_failing_csv(path, *args, **kwargs):
            if path.name.startswith(".bogolubov-fuzz-models.csv."):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_failing_csv)
        capsys.readouterr()
        assert cli.main(argv[:-2] + ["--seed", "2", *argv[-2:]]) == 3
        monkeypatch.undo()
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_matrix_localize_end_to_end(self, tmp_path):
        n = 8
        a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        matrixloc.write_matrix(tmp_path / "a.txt", a)
        matrixloc.write_vector(tmp_path / "psi.txt", np.full(n, n**-0.5))
        code = cli.main(
            ["matrix-localize", "--matrix", str(tmp_path / "a.txt"),
             "--psi", str(tmp_path / "psi.txt"), "--window", "4",
             "--budget-c", "3.0", "--outdir", str(tmp_path)]
        )
        assert code == 0
        _, rows, _ = read_record(tmp_path / "matrix-localize.jsonl")
        main_row = rows[0]
        assert main_row["value"] == 0.5 and main_row["lam"] == 0.25
        assert main_row["c_required"] == pytest.approx(16.0 / 7.0, rel=1e-12)
        assert rows[1]["check"] == "budget" and rows[1]["holds"]
        assert (tmp_path / "matrix-localize-bands.csv").exists()

    def test_matrix_localize_record_ignores_how_files_are_named(self, tmp_path, monkeypatch):
        data, other = tmp_path / "data", tmp_path / "other"
        data.mkdir()
        other.mkdir()
        n = 8
        matrixloc.write_matrix(data / "a.txt", 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
        matrixloc.write_vector(data / "psi.txt", np.full(n, n**-0.5))
        digests = set()
        for cwd, prefix in ((data, ""), (other, "../data/")):
            monkeypatch.chdir(cwd)
            for spelling in (prefix, "./" + prefix, f"{data}/"):
                out = tmp_path / "out"
                assert cli.main(["matrix-localize", "--matrix", spelling + "a.txt",
                                 "--psi", spelling + "psi.txt", "--window", "4",
                                 "--outdir", str(out)]) == 0
                digests.add(hashlib.sha256((out / "matrix-localize.jsonl").read_bytes()).digest())
        assert len(digests) == 1
        header, _, _ = read_record(out / "matrix-localize.jsonl")
        assert header["params"]["matrix"] == (
            "sha256:" + hashlib.sha256((data / "a.txt").read_bytes()).hexdigest())

    def test_infinite_c_required_is_strict_json(self, tmp_path):
        matrixloc.write_matrix(tmp_path / "a.txt", np.diag([0.0, 1.0, 0.0]))
        matrixloc.write_vector(tmp_path / "psi.txt", np.full(3, 3**-0.5))
        code = cli.main(
            ["matrix-localize", "--matrix", str(tmp_path / "a.txt"),
             "--psi", str(tmp_path / "psi.txt"), "--window", "2",
             "--outdir", str(tmp_path)]
        )
        assert code == 0
        _, rows, summary = read_record(tmp_path / "matrix-localize.jsonl")
        assert rows[0]["c_required"] == "inf" and summary["c_required"] == "inf"

    def test_stability_record(self, tmp_path):
        assert cli.main(["stability-bound", "--outdir", str(tmp_path)]) == 0
        _, rows, _ = read_record(tmp_path / "stability-bound.jsonl")
        assert rows[0]["per_electron"] == pytest.approx(
            -9.888264396098041, rel=1e-12
        )


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli.main(["trialstate"]) == 2
        capsys.readouterr()

    def test_bad_flag_value(self, capsys):
        assert cli.main(["dyson-minimize", "--nodes", "many"]) == 2
        capsys.readouterr()

    def test_unknown_inequality_is_usage(self, tmp_path, capsys):
        # the fuzz checks --which, so the parser needs no correlation module
        assert cli.main(["check-inequalities", "--which", "bogus",
                         "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert all(name in err for name in correlation.CHECKERS)
        assert not list(tmp_path.iterdir())

    def test_domain_error_is_usage(self, tmp_path, capsys):
        code = cli.main(["lt-study", "--depths", "0", "--outdir", str(tmp_path)])
        assert code == 2
        assert "depth" in capsys.readouterr().err

    def test_precondition_error_is_usage(self, tmp_path, capsys):
        code = cli.main(
            ["dyson-minimize", "--nodes", "50", "--outdir", str(tmp_path)]
        )
        assert code == 2
        capsys.readouterr()

    def test_resource_limit_is_exit_3(self, tmp_path, capsys):
        for nmax_list in ("2,40", "2,21"):
            code = cli.main(
                ["bogolubov-sharpness", "--nmax-list", nmax_list,
                 "--outdir", str(tmp_path)]
            )
            assert code == 3
            assert "cap" in capsys.readouterr().err
        # a fuzz cutoff far beyond the cap, past int64 too, is drawn exactly
        code = cli.main(["bogolubov-fuzz", "--trials", "3", "--nmax-hi", str(10**20),
                         "--outdir", str(tmp_path)])
        assert code == 3
        assert "exceeds cap" in capsys.readouterr().err

    def test_oversized_matrix_is_exit_3_before_allocating(self, tmp_path, capsys):
        # 10^6 x 10^6 doubles would be 7.3 TiB
        tracemalloc.start()
        try:
            code = cli.main(["matrixloc-ensemble", "--trials", "1", "--size", "1000000",
                             "--outdir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: matrix size 1000000 exceeds cap {matrixloc.SIZE_CAP}\n"
        assert peak < 2**20
        assert not list(tmp_path.iterdir())

    def test_oversized_grid_is_exit_3_before_allocating(self, tmp_path, capsys):
        # 10^15 nodes and weights would be 14.6 PiB
        tracemalloc.start()
        try:
            code = cli.main(["dyson-minimize", "--nodes", "1000000000000000",
                             "--outdir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert err == (f"error: 1000000000000000 grid nodes exceed cap "
                       f"{numerics.GRID_NODES_CAP}\n")
        assert peak < 2**20
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--q", "--n-electrons"])
    def test_counts_beyond_the_float_range_are_usage(self, flag, tmp_path, capsys):
        code = cli.main(["stability-bound", flag, str(10**400), "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag[2:].replace('-', '_')} has no finite float\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["check-inequalities"],
        ["bogolubov-fuzz"],
        ["trialstate", "--check", "berezin-lieb"],
        ["matrixloc-ensemble"],
    ], ids=lambda argv: " ".join(argv))
    def test_trials_beyond_the_cap_are_exit_3_before_allocating(self, argv, tmp_path, capsys):
        # 10^11 seed words alone would be 745 GiB
        tracemalloc.start()
        try:
            code = cli.main([*argv, "--trials", "100000000000", "--outdir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: 100000000000 trials exceed cap {numerics.SEED_WORDS_CAP}\n"
        assert peak < 2**20
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("depth, err", [
        ("1e4", f"error: 2515 negative eigenvalues exceed cap {spectral.LANE_CAP}\n"),
        ("1e6", f"error: channel sum not converged by ell = {spectral.ELL_CAP}: "
                f"channel {spectral.ELL_CAP} still binds\n"),
    ], ids=["lanes", "channels"])
    def test_deep_wells_are_exit_3_before_bisecting(self, depth, err, tmp_path, monkeypatch,
                                                    capsys):
        # the channel counts bound the work: 2515 eigenvalues took 7.6 s to
        # bisect, 123293 over 300 channels did not finish in 60 s
        calls = count_calls(monkeypatch, spectral, "tridiagonal_eigenvalues")
        code = cli.main(["lt-study", "--depths", f"50,{depth}", "--outdir", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == err
        assert not calls  # every well is counted before any is solved
        assert not list(tmp_path.iterdir())

    def test_inflated_occupation_fails_the_pair_identity(self, tmp_path, monkeypatch, capsys):
        # the pair energy is integrated from occupation_f, which minimizes the
        # bracket; 1.5 f in its place misses -J rho^(5/4)
        occupation = trialstate.occupation_f
        monkeypatch.setattr(trialstate, "occupation_f", lambda rho, p: 1.5 * occupation(rho, p))
        code = cli.main(["trialstate", "--check", "pair-energy", "--outdir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("check failed: pair energy")

    def test_non_finite_floats_are_usage(self, tmp_path, capsys):
        for argv in (["bogolubov-sharpness", "--t", "nan"],
                     ["stability-bound", "--c-lt", "inf"],
                     ["lt-study", "--depths", "50,inf"]):
            assert cli.main(argv + ["--outdir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_large_scale_ladder_passes(self, tmp_path, capsys, monkeypatch):
        argv = ["bogolubov-sharpness", "--t", "1e8", "--gplus", "1e-3",
                "--nmax-list", "2,4", "--outdir", str(tmp_path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        _, rows, _ = read_record(tmp_path / "bogolubov-sharpness.jsonl")
        assert all(r["holds"] for r in rows)
        # the bound is -5e-15 and the rounding allowance 1e-4 at this scale:
        # a ground energy below the bound but within the allowance passes
        model = bogolubov.BogolubovModel(1e8, 1e-3, 0.0)
        bound, tol = bogolubov.closed_form_bound(model), model.gap_tolerance
        monkeypatch.setattr(bogolubov, "ground_energy", lambda op: bound - 0.5 * tol)
        assert cli.main(argv) == 0
        monkeypatch.setattr(bogolubov, "ground_energy", lambda op: bound - 2.0 * tol)
        assert cli.main(argv) == 1
        capsys.readouterr()

    def test_tiny_scale_ladder_passes(self, tmp_path, capsys):
        # the bound is -2.68e-201; -s + sqrt(s^2 - g^2) gave -2e-200 here
        code = cli.main(["bogolubov-sharpness", "--t=1e-200", "--gplus=1e-200",
                         "--nmax-list=2,4", "--outdir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()

    def test_any_positive_finite_radius_passes_without_warning(self, tmp_path, capsys):
        # the bound places no nuclei, so no radius crowds or overflows them
        def row(*flags):
            assert cli.main(["stability-bound", *flags, "--outdir", str(tmp_path)]) == 0
            _, rows, summary = read_record(tmp_path / "stability-bound.jsonl")
            assert math.isfinite(summary["total"]) and rows[0]["holds"]
            return rows[0]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = row("--charges", "1,1", "--radius", "1e-14")
            row("--radius=1e308")
            row("--radius=1e200", "--charges", "1,1")
            one = row("--charges", "1", "--radius", "1e-14")
        assert capsys.readouterr().err == ""
        assert (pair["strength"], pair["radius"]) == (one["strength"], one["radius"])
        assert pair["v_integral"] == 2.0 * one["v_integral"]

    def test_charges_and_vacuum_strength_exclude_each_other(self, tmp_path, capsys):
        for argv in (["--vacuum-strength", "3", "--charges", "1,2"],
                     ["--charges", "1", "--vacuum-strength", "3"]):
            assert cli.main(["stability-bound", *argv, "--outdir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert "not allowed with argument" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_uncoupled_ladder_passes(self, tmp_path, capsys):
        code = cli.main(["bogolubov-sharpness", "--gplus", "0",
                         "--outdir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        _, rows, summary = read_record(tmp_path / "bogolubov-sharpness.jsonl")
        assert [r["ground_energy"] for r in rows] == [0.0] * 4
        assert summary["final_gap_fraction"] == 0.0

    def test_negative_seed_and_size_are_usage(self, tmp_path, capsys):
        for argv in (["bogolubov-fuzz", "--seed", "-1"],
                     ["check-inequalities", "--seed", "-1"],
                     ["trialstate", "--check", "berezin-lieb", "--seed", "-1"],
                     ["trialstate", "--check", "pair-energy", "--seed", "-1"],
                     ["matrixloc-ensemble", "--seed", "-1"],
                     ["verify", "--seed", "-1"],
                     ["matrixloc-ensemble", "--size", "-1"]):
            assert cli.main(argv + ["--outdir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_unwritable_output_is_usage(self, tmp_path, capsys):
        # an output base in a missing directory, an output directory that is a file
        afile = tmp_path / "afile"
        afile.write_text("")
        for flags in (["--outdir", str(tmp_path), "--output", "sub/x"],
                      ["--outdir", str(afile)]):
            assert cli.main(["foldy-j", *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write") and err.count("\n") == 1
            assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_unwritable_output_fails_before_the_check_runs(self, tmp_path, monkeypatch,
                                                             capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        monkeypatch.setattr(cli, "run_verification_suite",
                            lambda *a, **k: pytest.fail("the battery ran"))
        assert cli.main(["verify", "--quick", "--outdir", str(afile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_out_of_range_floats_are_usage(self, tmp_path, capsys):
        # each overflowed, divided by zero or failed a check before the
        # boundary rejected it
        for argv in (["stability-bound", "--charges", "1e124"],
                     ["stability-bound", "--radius=1e-308"],
                     ["sobolev-study", "--depths", "3e123"],
                     ["sobolev-study", "--depths", "1e-131"],
                     ["lt-study", "--depths", "1e-300"],
                     ["bogolubov-sharpness", "--t", "0", "--gplus", "1.35e154",
                      "--gminus", "1.35e154"],
                     ["bogolubov-sharpness", "--t", "0", "--gplus", "1.34e154",
                      "--gminus", "1.34e154"],
                     ["bogolubov-sharpness", "--t", "2.6e160", "--gplus", "1e-101",
                      "--nmax-list", "2,4"]):
            assert cli.main(argv + ["--outdir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_largest_and_smallest_in_range_floats_pass(self, tmp_path, capsys):
        for argv in (["stability-bound", "--charges", "1e123"],
                     ["sobolev-study", "--depths", "2e123"],
                     ["sobolev-study", "--depths", "1e-129"]):
            assert cli.main(argv + ["--outdir", str(tmp_path)]) == 0
            read_record(tmp_path / f"{argv[0]}.jsonl")
        capsys.readouterr()

    def test_unreadable_matrix_files_are_usage(self, tmp_path, capsys):
        psi = tmp_path / "psi.txt"
        matrixloc.write_vector(psi, np.ones(2))
        bad_header = tmp_path / "bad.txt"
        bad_header.write_text("x\n1 2\n3 4\n")
        for matrix in (tmp_path / "missing.txt", bad_header):
            code = cli.main(
                ["matrix-localize", "--matrix", str(matrix), "--psi", str(psi),
                 "--window", "1", "--outdir", str(tmp_path)]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    def test_failed_check_is_exit_1(self, tmp_path, monkeypatch, capsys):
        # the sensitivity canary: a wrong J must surface as a check failure
        j = foldy_j()
        monkeypatch.setattr(foldy, "foldy_j", lambda: j * (1 + 1e-3))
        code = cli.main(
            ["trialstate", "--check", "pair-energy", "--outdir", str(tmp_path)]
        )
        assert code == 1
        _, rows, _ = read_record(tmp_path / "trialstate.jsonl")
        assert not any(r["holds"] for r in rows)
        capsys.readouterr()

    def test_a_descent_cut_short_fails_dyson_minimize(self, tmp_path, monkeypatch, capsys,
                                                      fresh_minimum):
        monkeypatch.setattr(variational, "DESCENT_MAX_ITER", 3)
        assert cli.main(["dyson-minimize", "--outdir", str(tmp_path)]) == 1
        _, rows, _ = read_record(tmp_path / "dyson-minimize.jsonl")
        assert rows[0]["iterations"] == 3 and not rows[0]["holds"]
        capsys.readouterr()

    def test_low_mode_floor_fails_the_identity_and_the_ladder(self, tmp_path, monkeypatch,
                                                              capsys):
        # the local-energy identity and the Bogolubov bound share one floor, so
        # a floor 2e-6 low must fail both
        floor = bogolubov.mode_floor

        def low(t, g):
            return (1 - 2e-6) * floor(t, g)

        monkeypatch.setattr(bogolubov, "mode_floor", low)
        monkeypatch.setattr(foldy, "mode_floor", low)
        rows, _, _ = cli.run_identity_check()
        assert any(not r["holds"] for r in rows)
        assert cli.main(["bogolubov-sharpness", "--outdir", str(tmp_path)]) == 1
        assert "lower bound violated" in capsys.readouterr().err

    @pytest.mark.parametrize("xi, convex", [
        ("sqrt", lambda t: t**1.5),
        ("log1p", np.expm1),
        ("sqrt-pairing", lambda t: t * (t + 1.0)),
    ], ids=["sqrt", "log1p", "sqrt-pairing"])
    def test_convex_xi_fails_its_berezin_row(self, xi, convex, monkeypatch):
        # the inequality needs xi operator concave; a convex one in its place
        # reverses it
        monkeypatch.setitem(trialstate.XI_FUNCTIONS, xi, convex)
        rows, _, _ = cli.run_berezin(100, 1905)
        row = next(r for r in rows if r["check"] == f"berezin-{xi}")
        assert not row["holds"] and row["violations"] > 0

    def test_overdilated_condensate_fails_the_upper_bound(self, tmp_path, monkeypatch,
                                                          capsys):
        rescale = trialstate.rescale
        monkeypatch.setattr(trialstate, "rescale",
                            lambda profile, lam: rescale(profile, 1.01 * lam))
        argv = ["trialstate", "--check", "upper-bound", "--outdir", str(tmp_path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "assembled bound" in err and "differs" in err

    def test_flat_band_slope_fails_matrix_localization(self, monkeypatch):
        # with no budget growth per unit C, no finite C localizes
        monkeypatch.setattr(matrixloc, "_band_slope", lambda d, window: np.zeros(d.shape[:-1]))
        rows, summary, _ = cli.run_matrixloc_ensemble(100, 1905, 64, 8)
        assert summary["worst_c_required"] == math.inf
        assert not rows[0]["holds"]


class TestArgumentFile:
    @pytest.mark.parametrize("argv, code, params", [
        (["@run.args"], 0, {"seed": 11, "trials": 12}),
        (["@run.args", "--trials", "7"], 0, {"seed": 11, "trials": 7}),
        (["@missing.args"], 2, None),
    ], ids=["flags-apply", "explicit-flag-wins", "missing-file"])
    def test_flags_from_file(self, argv, code, params, tmp_path, monkeypatch, capsys):
        # one argument per line; the later flag wins
        monkeypatch.chdir(tmp_path)
        Path("run.args").write_text("--trials=12\n--seed\n11\n")
        assert cli.main(["bogolubov-fuzz", *argv, "--outdir", "out"]) == code
        if params is None:
            assert not Path("out").exists()
        else:
            header, _, _ = read_record(tmp_path / "out" / "bogolubov-fuzz.jsonl")
            assert {k: header["params"][k] for k in params} == params
        capsys.readouterr()


# sha256 of `verify --quick --seed 1905`'s verify.jsonl
VERIFY_QUICK_SHA256 = "5698001f1ba098be386612a204c29e9e4e5c803e969f5c9483d6308628843550"


class TestVerifySuite:
    def test_quick_suite_matches_the_pinned_digest(self, tmp_path, capsys):
        assert cli.main(["verify", "--quick", "--seed", "1905",
                         "--outdir", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "verify.jsonl").read_bytes()).hexdigest()
        assert digest == VERIFY_QUICK_SHA256, (
            f"verify --quick: sha256 {digest} != pinned {VERIFY_QUICK_SHA256}; a change "
            f"that alters the records on purpose updates the pin and names the changed "
            f"fields in CHANGES.md")
        capsys.readouterr()

    def test_suite_parses_with_the_parser_main_built(self, tmp_path, monkeypatch, capsys):
        parsers, parse = [], argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda self, *args: parsers.append(self) or parse(self, *args))
        assert cli.main(["verify", "--quick", "--outdir", str(tmp_path)]) == 0
        assert len(parsers) == 1 + len(cli.BATTERY)
        assert all(parser is parsers[0] for parser in parsers)
        capsys.readouterr()

    def test_quick_suite_repeats_no_solve(self, monkeypatch, fresh_minimum):
        # one descent per grid (dyson-minimize's 800 and 400 nodes; the
        # trial-state check reuses the 800), and one eigenvalue solve per
        # grid: lt-study's three depths as one stack, its two scale-pair
        # spectra and their two doubled grids, the coarse ground states taken
        # from the spectra.  lt-study is the suite's only spectral check.
        solves = count_calls(monkeypatch, variational, "minimize")
        bisections = count_calls(monkeypatch, spectral, "tridiagonal_eigenvalues")
        cli.run_verification_suite(1905, quick=True)
        assert [init.grid.n_nodes for (init,) in solves] == [800, 400]
        assert len(bisections) == 5

    def test_quick_suite_passes_and_is_deterministic(self, tmp_path, capsys):
        base = ["verify", "--quick", "--seed", "77", "--outdir", str(tmp_path)]
        assert cli.main(base + ["--output", "a"]) == 0
        assert cli.main(base + ["--output", "b"]) == 0
        assert cli.main(
            ["verify", "--quick", "--seed", "78", "--outdir", str(tmp_path),
             "--output", "c"]
        ) == 0
        bytes_a = (tmp_path / "a.jsonl").read_bytes()
        assert bytes_a == (tmp_path / "b.jsonl").read_bytes()
        assert bytes_a != (tmp_path / "c.jsonl").read_bytes()
        _, rows, summary = read_record(tmp_path / "a.jsonl")
        assert summary["passed"] is True and summary["failures"] == 0
        names = {r["check"] for r in rows}
        for expected in ("j-cross-route", "bogolubov-ladder", "inequality-onsager",
                         "dyson-virial", "trace-scaling-slope", "berezin-identity",
                         "matrix-localization", "lt-ratio"):
            assert expected in names
        capsys.readouterr()

    def test_injected_wrong_j_fails_suite(self, tmp_path, monkeypatch, capsys):
        j = foldy_j()
        monkeypatch.setattr(foldy, "foldy_j", lambda: j * (1 + 1e-3))
        code = cli.main(
            ["verify", "--quick", "--seed", "77", "--outdir", str(tmp_path),
             "--output", "bad"]
        )
        assert code == 1
        _, _, summary = read_record(tmp_path / "bad.jsonl")
        assert "pair-energy-identity" in summary["failed"]
        err = capsys.readouterr().err
        assert "pair-energy-identity" in err


def _src_env():
    """The environment with this checkout's package first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# Runs in a fresh interpreter and prints, as its last line, the modules of the
# package argv[2] (scipy, numpy.random) loaded after import and after the
# subcommands in argv[1], run in turn.
_STARTUP_PROBE = textwrap.dedent("""
    import json, sys, tempfile

    def loaded(package=sys.argv[2]):
        return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

    stages = {}
    from chargelab import cli
    stages["import"] = loaded()
    with tempfile.TemporaryDirectory() as outdir:
        for argv in json.loads(sys.argv[1]):
            assert cli.main([*argv, "--outdir", outdir]) == 0, argv
        stages["run"] = loaded()
    print(json.dumps(stages))
""")

# every subcommand: none needs scipy or numpy.random
_SCIPY_FREE = (
    ["foldy-j"],
    ["foldy-identity"],
    ["trialstate", "--check", "pair-energy"],
    ["stability-bound"],
    ["check-inequalities", "--trials", "20"],
    ["trialstate", "--check", "berezin-lieb", "--trials", "5"],
    ["matrixloc-ensemble", "--trials", "5"],
    ["bogolubov-fuzz", "--trials", "5"],
    ["bogolubov-sharpness", "--nmax-list", "2,4"],
    ["lt-study", "--depths", "20"],
    ["sobolev-study", "--depths", "5"],
    ["dyson-minimize"],
    ["trialstate", "--check", "trace-scaling"],
    ["trialstate", "--check", "upper-bound"],
)


# What each subcommand of _SCIPY_FREE loads beyond `import chargelab.cli`:
# the modules it runs and what they import.  foldy takes its mode floor from
# bogolubov; variational imports foldy; trialstate imports correlation, foldy
# and variational; matrixloc imports correlation.
_FOLDY = ("foldy", "bogolubov")
_VARIATIONAL = ("variational", *_FOLDY)
_TRIALSTATE = ("trialstate", "correlation", *_VARIATIONAL)
_RUN_MODULES = {
    "foldy-j": _FOLDY,
    "foldy-identity": _FOLDY,
    "trialstate": _TRIALSTATE,
    "stability-bound": ("spectral",),
    "check-inequalities": ("correlation",),
    "matrixloc-ensemble": ("matrixloc", "correlation"),
    "bogolubov-fuzz": ("bogolubov",),
    "bogolubov-sharpness": ("bogolubov",),
    "lt-study": ("spectral",),
    "sobolev-study": ("spectral",),
    "dyson-minimize": _VARIATIONAL,
}
# what `import chargelab.cli` loads: main needs numerics' solver_counters
_IMPORT_STAGE = ["chargelab", "chargelab.cli", "chargelab.errors", "chargelab.numerics"]


def _loaded_after(package, *argvs):
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, json.dumps(argvs), package],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Runs argv[1] in a fresh interpreter and prints, as its last line, the value
# OPENBLAS_THREAD_TIMEOUT had when numpy was first imported (or "unloaded").
_THREAD_TIMEOUT_PROBE = textwrap.dedent("""
    import json, os, runpy, sys

    class NumpyImport:
        seen = "unloaded"

        def find_spec(self, name, path=None, target=None):
            if name == "numpy" and NumpyImport.seen == "unloaded":
                NumpyImport.seen = os.environ.get("OPENBLAS_THREAD_TIMEOUT")

    sys.meta_path.insert(0, NumpyImport())
    try:
        exec(sys.argv[1])
    except SystemExit:
        pass
    print(json.dumps(NumpyImport.seen))
""")


def _thread_timeout_at_numpy_import(code, preset=None):
    env = _src_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)  # this process set it by importing cli
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    proc = subprocess.run([sys.executable, "-c", _THREAD_TIMEOUT_PROBE, code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_AS_MODULE = ("sys.argv = ['chargelab', '--help']; "
              "runpy.run_module('chargelab', run_name='__main__', alter_sys=True)")


class TestStartup:
    @pytest.mark.parametrize("code, preset, seen", [
        ("import chargelab.cli", None, "4"),
        (_AS_MODULE, None, "4"),
        ("import chargelab.cli", "30", "30"),
        ("import chargelab", None, "unloaded"),
    ], ids=["import-cli", "run-as-module", "preset-kept", "package-loads-no-numpy"])
    def test_thread_timeout_is_set_before_numpy_loads(self, code, preset, seen):
        # an idle OpenBLAS helper spins for 2^THREAD_TIMEOUT cycles; OpenBLAS
        # reads the setting once, when numpy loads it
        assert _thread_timeout_at_numpy_import(code, preset) == seen

    def test_subcommands_import_only_the_scipy_they_run(self):
        assert _loaded_after("scipy", *_SCIPY_FREE) == {"import": [], "run": []}

    def test_verify_loads_no_scipy(self):
        assert _loaded_after("scipy", ["verify", "--quick"]) == {"import": [], "run": []}

    def test_no_run_loads_numpy_random(self):
        # numpy.random (with OpenSSL) adds about 6 MB and 10 ms to start-up;
        # the seeded ensembles draw from numerics' SplitMix64 streams instead
        assert _loaded_after("numpy.random", *_SCIPY_FREE, ["verify", "--quick"]) == {
            "import": [], "run": []}

    def test_each_subcommand_loads_only_its_modules(self):
        for argv in _SCIPY_FREE:
            loaded = _loaded_after("chargelab", argv)
            assert loaded["import"] == _IMPORT_STAGE, argv
            expected = {*_IMPORT_STAGE, *(f"chargelab.{m}" for m in _RUN_MODULES[argv[0]])}
            assert loaded["run"] == sorted(expected), argv

    def test_verify_loads_every_module(self):
        package = Path(cli.__file__).resolve().parent
        every = {f"chargelab.{path.stem}" for path in package.glob("*.py")} - {
            "chargelab.__init__", "chargelab.__main__"}
        loaded = _loaded_after("chargelab", ["verify", "--quick"])
        assert loaded["import"] == _IMPORT_STAGE
        assert loaded["run"] == sorted({"chargelab", *every})

    def test_no_source_file_names_numpy_random(self):
        package = Path(cli.__file__).resolve().parent
        sources = sorted(package.rglob("*.py"))
        assert len(sources) >= 10
        named = [f"{path.name}:{number}"
                 for path in sources
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"np\.random|numpy\.random|default_rng", line)]
        assert named == []

    def test_no_source_file_imports_scipy(self):
        package = Path(cli.__file__).resolve().parent
        sources = sorted(package.rglob("*.py"))
        assert len(sources) >= 10
        importers = []
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name == "scipy" or name.startswith("scipy.") for name in names):
                    importers.append(f"{path.name}:{node.lineno}")
        assert importers == []

    def test_runs_as_a_module(self, tmp_path):
        for argv in (["--help"],
                     ["bogolubov-sharpness", "--nmax-list", "2,4", "--outdir", str(tmp_path)]):
            proc = subprocess.run([sys.executable, "-m", "chargelab", *argv], env=_src_env(),
                                  cwd=tmp_path, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        _, rows, _ = read_record(tmp_path / "bogolubov-sharpness.jsonl")
        assert [r["n_max"] for r in rows] == [2, 4]
        meta = json.loads((tmp_path / "bogolubov-sharpness.meta.json").read_text())
        assert meta["modules"] == sorted([*_IMPORT_STAGE, "chargelab.bogolubov"])


# Each variable switches the kernels of one process as on another class of
# x86-64 CPU: numpy's dispatch down to AVX2 (X86_V3), or OpenBLAS's AVX2
# kernels in place of its AVX-512 ones.
DISPATCH_VARIABLES = {
    "numpy-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}


class TestPortableRecords:
    @pytest.mark.parametrize("variant", DISPATCH_VARIABLES)
    def test_spectral_records_hold_under_another_dispatch(self, variant, tmp_path):
        # the spectra rest on inertia counts, whose + - * / round alike on
        # every SIMD tier, and on slopes that only pick where to count
        simd = cli._environment()["simd"]
        if variant == "openblas-haswell" and not {"X86_V4", "AVX512F"} & set(simd):
            pytest.skip(f"numpy finds no AVX-512 here ({simd}): OpenBLAS runs Haswell-class "
                        "kernels or older already")
        env = {**_src_env(), **DISPATCH_VARIABLES[variant]}
        for argv, pins in RECORD_PINS:
            if argv[0] not in ("lt-study", "sobolev-study"):
                continue
            out = tmp_path / argv[0]
            proc = subprocess.run([sys.executable, "-m", "chargelab", *argv, "--outdir", str(out)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            seen = json.loads((out / f"{argv[0]}.meta.json").read_text())["env"]["simd"]
            if variant == "numpy-avx2" and seen == simd:
                pytest.skip(f"numpy dispatches {simd} here with or without "
                            f"{DISPATCH_VARIABLES[variant]}")
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in out.iterdir() if p.suffix in (".jsonl", ".csv")}
            assert digests == pins, f"{' '.join(argv)} under {DISPATCH_VARIABLES[variant]}"


def _unnumbered(row):
    return {k: v for k, v in row.items() if k != "row"}


class TestParser:
    # header params of each subcommand at default flags
    GOLDEN = {
        ("foldy-j",): {},
        ("foldy-identity",): {},
        ("bogolubov-sharpness",): {"gminus": 0.0, "gplus": 1.0, "nmax_list": (2, 4, 8, 12),
                                   "t": 1.0},
        ("bogolubov-fuzz",): {"nmax_hi": 6, "nmax_lo": 2, "seed": 1905, "trials": 200},
        ("check-inequalities",): {"seed": 1905, "trials": 10_000, "which": "all"},
        ("dyson-minimize",): {"nodes": 800, "rmax": 25.0},
        # the unseeded trialstate checks record neither --seed nor --trials
        ("trialstate", "--check", "upper-bound"): {"check": "upper-bound"},
        ("matrix-localize", "--matrix", "a.txt", "--psi", "b.txt", "--window", "2"): {
            "budget_c": None, "matrix": "a.txt", "psi": "b.txt", "window": 2},
        ("matrixloc-ensemble",): {"seed": 1905, "size": 64, "trials": 1000, "window": 8},
        ("lt-study",): {"depths": (50.0, 100.0, 200.0)},
        ("sobolev-study",): {"depths": (5.0, 10.0, 20.0, 50.0)},
        ("stability-bound",): {"c_lt": 0.04, "charges": (1.0,), "n_electrons": 10, "q": 2,
                               "radius": None, "vacuum_strength": None},
        ("verify",): {"quick": False, "seed": 1905},
    }

    def test_default_params_per_subcommand(self):
        parser = cli.build_parser()
        assert sorted(argv[0] for argv in self.GOLDEN) == sorted(SUBCOMMANDS)
        for argv, expected in self.GOLDEN.items():
            assert cli._params(parser.parse_args(argv)) == expected, argv
        berezin = parser.parse_args(["trialstate", "--check", "berezin-lieb"])
        assert cli._params(berezin) == {"check": "berezin-lieb", "seed": 1905, "trials": 1000}

    def test_readme_lists_every_subcommand(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = readme.split("Subcommands:", 1)[1].split(".", 1)[0]
        action = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        assert re.findall(r"`([^`]+)`", listed) == list(action.choices)

    def test_battery_replays_as_subcommands(self, tmp_path, capsys):
        seed = 1905
        assert cli.main(["verify", "--quick", "--seed", str(seed),
                         "--outdir", str(tmp_path)]) == 0
        _, suite_rows, _ = read_record(tmp_path / "verify.jsonl")
        words = np.random.SeedSequence(seed).generate_state(len(cli.BATTERY), dtype=np.uint64)
        for (name, argv, trials), word in zip(cli.BATTERY, words):
            if trials is not None:
                argv += ("--trials", str(trials[1]), "--seed", str(word))
            assert cli.main([*argv, "--outdir", str(tmp_path), "--output", name]) == 0
            _, rows, summary = read_record(tmp_path / f"{name}.jsonl")
            end = next(i for i, r in enumerate(suite_rows) if r["check"] == f"{name}-result")
            assert [_unnumbered(r) for r in suite_rows[:end]] == [
                _unnumbered(r) for r in rows], name
            assert _unnumbered(suite_rows[end]) == {
                "check": f"{name}-result", "passed": True, **summary}
            suite_rows = suite_rows[end + 1:]
        assert suite_rows == []
        capsys.readouterr()


class TestHelpers:
    def test_float_list_parser(self):
        assert cli._float_list("1,2.5,3") == (1.0, 2.5, 3.0)
        with pytest.raises(Exception):
            cli._float_list("1,foo")

    def test_py_coercion(self):
        assert cli._py(np.float64(1.5)) == 1.5 and isinstance(cli._py(np.float64(1.5)), float)
        assert cli._py(np.int64(3)) == 3 and isinstance(cli._py(np.int64(3)), int)
        assert cli._py(np.bool_(True)) is True
        assert cli._py("text") == "text"
        assert [cli._py(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
        assert [cli._py(np.float64(v)) for v in (np.inf, -np.inf, np.nan)] == [
            "inf", "-inf", "nan"]


# every integer flag of the seeded ensembles, from a range that includes negatives
_INT = st.integers(-2, 6).map(str)
_ENSEMBLE_ARGV = st.one_of(
    st.tuples(st.just("bogolubov-fuzz"), st.just("--trials"), _INT, st.just("--seed"), _INT,
              st.just("--nmax-lo"), _INT, st.just("--nmax-hi"), _INT),
    st.tuples(st.just("check-inequalities"), st.just("--trials"), _INT,
              st.just("--seed"), _INT),
    st.tuples(st.just("trialstate"), st.just("--check"), st.just("berezin-lieb"),
              st.just("--trials"), _INT, st.just("--seed"), _INT),
    st.tuples(st.just("matrixloc-ensemble"), st.just("--trials"), _INT, st.just("--seed"), _INT,
              st.just("--size"), _INT, st.just("--window"), _INT),
)


# every float flag of three cheap subcommands over the whole finite range,
# negatives, zero and subnormals included; passed as --flag=value, since
# argparse would read a separate "-1e-05" as an option
def _float_flag(name):
    return st.floats(allow_nan=False, allow_infinity=False).map(
        lambda v: f"{name}={v!r}")


_FLOAT_ARGV = st.one_of(
    st.tuples(st.just("bogolubov-sharpness"), _float_flag("--t"), _float_flag("--gplus"),
              _float_flag("--gminus"), st.just("--nmax-list=2,4")),
    st.tuples(st.just("stability-bound"), _float_flag("--charges"),
              _float_flag("--c-lt"), _float_flag("--radius")),
    st.tuples(st.just("sobolev-study"), _float_flag("--depths")),
)


def _run_main(argv):
    """Exit code of main(argv) and whether it wrote a record, asserting the
    documented exit codes, no traceback and strict-JSON records."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--outdir", outdir])
        records = list(Path(outdir).glob("*.jsonl"))
        for record in records:
            read_record(record)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code, bool(records)


class TestBoundaryProperty:
    @settings(max_examples=100, deadline=None)
    @given(argv=_ENSEMBLE_ARGV)
    def test_integer_flags_map_to_exit_codes(self, argv):
        code, wrote = _run_main(argv)
        assert wrote == (code in (0, 1))

    @settings(max_examples=100, deadline=None)
    @given(argv=_FLOAT_ARGV)
    def test_float_flags_map_to_exit_codes(self, argv):
        # a failed consistency check exits 1 without a record
        code, wrote = _run_main(argv)
        assert not (wrote and code in (2, 3))
