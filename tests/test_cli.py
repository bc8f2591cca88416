"""Command-line layer: records, determinism, exit codes, argument files."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
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

from chargelab import bogolubov, cli, matrixloc
from chargelab.foldy import foldy_j


SUBCOMMANDS = (
    "foldy-j", "foldy-identity", "bogolubov-sharpness", "bogolubov-fuzz",
    "check-inequalities", "dyson-minimize", "trialstate", "matrix-localize",
    "matrixloc-ensemble", "lt-study", "sobolev-study", "stability-bound", "verify",
)


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def read_record(path):
    """Header, rows and summary of a record; fails on anything but strict JSON."""
    lines = [json.loads(ln, parse_constant=_reject_constant)
             for ln in path.read_text().splitlines()]
    header, summary = lines[0], lines[-1]["summary"]
    rows = lines[1:-1]
    return header, rows, summary


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
        rows_a, summary_a, tables_a = cli.run_bogolubov_fuzz(25, 31)
        rows_b, summary_b, tables_b = cli.run_bogolubov_fuzz(25, 31)
        assert rows_a == rows_b
        assert tables_a["models"][1] == tables_b["models"][1]
        assert summary_a["violations"] == 0
        assert summary_a["min_gap"] >= -1e-9

    def test_inequality_fuzz_all(self):
        rows, summary, tables = cli.run_inequality_fuzz("all", 150, 5)
        assert [r["check"] for r in rows] == [
            "inequality-onsager", "inequality-baxter", "inequality-positivity",
        ]
        assert summary["violations"] == 0
        assert len(tables["trials"][1]) == 450

    def test_single_checker_selection(self):
        rows, _, tables = cli.run_inequality_fuzz("baxter", 40, 5)
        assert len(rows) == 1 and rows[0]["check"] == "inequality-baxter"
        assert len(tables["trials"][1]) == 40

    def test_dyson_rows(self):
        rows, summary, tables = cli.run_dyson()
        by_name = {r["check"]: r for r in rows}
        assert by_name["dyson-minimize"]["energy"] <= -0.05
        assert by_name["dyson-virial"]["holds"]
        assert by_name["dyson-grid-agreement"]["rel_change"] <= 1e-4
        assert summary["e_star"] == by_name["dyson-minimize"]["energy"]
        assert len(tables["profile"][1]) == 800

    def test_pair_identity(self):
        rows, summary, _ = cli.run_pair_identity()
        assert [r["rho"] for r in rows] == [1e-2, 1.0, 1e2, 1e4]
        assert summary["worst_rel_err"] <= 1e-6

    def test_trace_scaling_short_ladder(self):
        rows, summary, _ = cli.run_trace_scaling(n_list=(1_000, 100_000))
        assert abs(summary["slope"] - 0.6) <= 0.01
        assert rows[-1]["holds"]

    def test_upper_bound(self):
        rows, summary, _ = cli.run_upper_bound(n_list=(1, 32))
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
        assert len(tables["instances"][1]) == 200

    def test_matrixloc_ensemble(self):
        rows, summary, _ = cli.run_matrixloc_ensemble(50, 8)
        assert rows[0]["holds"]
        assert summary["worst_c_required"] <= 50.0

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


# sha256 of the .jsonl and of every CSV each argv writes
RECORD_PINS = (
    (("foldy-j",), {
        "foldy-j.jsonl": "9c7f7fbb11cc137ad63d425d3afe122ae13c90b3767cf3be555598e2412ef04d"}),
    (("foldy-identity",), {
        "foldy-identity.jsonl":
            "e06d092f6c6ce5a42598b51898b6915f8393b9cdb847c58a20216d9e386bede2",
        "foldy-identity-points.csv":
            "aa8e3a9859f7ea3c9c4ac4906cd89a8c9418e129fd83d4e218948d4a38eb11bc"}),
    (("bogolubov-sharpness",), {
        "bogolubov-sharpness.jsonl":
            "071d3af70b4338296e5b15083f81103f969aed77896a810c0e214380af706bfd",
        "bogolubov-sharpness-ladder.csv":
            "cb5e5b166a9109dd5cd7a147e80686e1875cd03e1f0991298f9edc5706e84775"}),
    (("dyson-minimize",), {
        "dyson-minimize.jsonl":
            "0f555a07d13ec5e1f8212de4f85c230f84a366d684fb8a9e05f9507e603dface",
        "dyson-minimize-profile.csv":
            "ceec96cf7cd03f52c3220f4dd9eed5932ed6026c702c5c2d256c32ac07a669fe"}),
    (("lt-study",), {
        "lt-study.jsonl": "2aa4646c185a8246b34910a9f2206667f71e954fd193a5c10d1788e8a97d6c68",
        "lt-study-ratios.csv":
            "bde3047e018f4e8123aab86586c3de1df94fb0fa08c0071e7b088f715efba3e9"}),
    (("sobolev-study",), {
        "sobolev-study.jsonl":
            "e6098a765a39d2b99e0b22d575479d8da90ec9a15fffeb1ef7426a7116292d3f",
        "sobolev-study-ratios.csv":
            "0be11355bdf9ba720be9231c96cad703f755879aef896d1eb3399bb6d99a0c05"}),
    (("bogolubov-fuzz", "--trials", "25", "--seed", "1905"), {
        "bogolubov-fuzz.jsonl":
            "d4d560f996df420b3d6de60383c4dfaaffdfd8f7791bce7513b47c11c12b9456",
        "bogolubov-fuzz-models.csv":
            "70440d374f78319a5e838d93e64ded8d45010ad9631d0b70613dd2d4dee744f5"}),
    (("trialstate", "--check", "pair-energy"), {
        "trialstate.jsonl": "e2e2d3f15140ab4e8cf257f96da5ecaef0dd25babcfe065d09e1096f0db41966"}),
    (("trialstate", "--check", "trace-scaling"), {
        "trialstate.jsonl": "5d6cceb0daff64a2b538213dae4b8d07ee7fbe58548126e05f857305be518428",
        "trialstate-traces.csv":
            "dd21e787b01685cdedbcce27a99e3478cfc8fe933ac6ec67c94ad4d38cd907ae"}),
    (("trialstate", "--check", "upper-bound"), {
        "trialstate.jsonl": "b01eec1aa52997ca1c6415fffb3d794f3efa77e6059ea21e8028190838a394f5"}),
    (("trialstate", "--check", "berezin-lieb", "--trials", "20"), {
        "trialstate.jsonl": "363c5e249d676b25ade957af445fc365f86281530bda0c70316c11c48c99f9d3",
        "trialstate-instances.csv":
            "6cfcfa3c7f4ddeb0cad7dc17a7890f7b2639ec2825e94e7b04ccd2258ef2e6d8"}),
    (("matrixloc-ensemble", "--trials", "20"), {
        "matrixloc-ensemble.jsonl":
            "f98ba5336af71a27b98b2c6978c3a14564f684d843058cee138a4730adb078c4",
        "matrixloc-ensemble-instances.csv":
            "022a3f30cf6ec680c38d304918b61be3614aed5882852c4b2ce8d47a992b9aab"}),
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
        assert "checks" not in meta

    def test_verify_sidecar_times_each_check(self, tmp_path):
        assert cli.main(["verify", "--quick", "--outdir", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "verify.meta.json").read_text())
        assert set(meta) == {"schema", "duration_s", "written_at", "checks"}
        checks = meta["checks"]
        assert sorted(checks) == sorted(name for name, _argv, _trials in cli.BATTERY)
        for seconds in checks.values():
            assert type(seconds) is float and math.isfinite(seconds) and seconds >= 0

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
                "2f3ddf22a5f252a6125f6181c2a706c40b1213493b6ed23722c218ef9032a452",
            "check-inequalities-trials.csv":
                "2dd4cdfa0a0957ad31fc657cb5fcdec835c5db1c8de226cf2ffff715a3be453b",
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
        assert set(meta) == {"schema", "duration_s", "written_at"}

    def test_failed_write_keeps_the_earlier_files(self, tmp_path, monkeypatch):
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
        with pytest.raises(OSError):
            cli.main(argv[:-2] + ["--seed", "2", *argv[-2:]])
        with pytest.raises(OSError):
            cli.write_table(tmp_path, "bogolubov-fuzz", "models", ("a",), [(1,)])
        monkeypatch.undo()
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
        monkeypatch.setattr(cli, "foldy_j", lambda: j * (1 + 1e-3))
        code = cli.main(
            ["trialstate", "--check", "pair-energy", "--outdir", str(tmp_path)]
        )
        assert code == 1
        _, rows, _ = read_record(tmp_path / "trialstate.jsonl")
        assert not any(r["holds"] for r in rows)
        capsys.readouterr()


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
VERIFY_QUICK_SHA256 = "ee0f722424c6873d86f0364aff49a80a7ebaa93ebb7ab2e54dde877ff883a08f"


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
        monkeypatch.setattr(cli, "foldy_j", lambda: j * (1 + 1e-3))
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


# Runs in a fresh interpreter and prints, as its last line, the scipy modules
# loaded after import and after the subcommands in argv[1], run in turn.
_STARTUP_PROBE = textwrap.dedent("""
    import json, sys, tempfile

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    stages = {}
    from chargelab import cli
    stages["import"] = scipy_modules()
    with tempfile.TemporaryDirectory() as outdir:
        for argv in json.loads(sys.argv[1]):
            assert cli.main([*argv, "--outdir", outdir]) == 0, argv
        stages["run"] = scipy_modules()
    print(json.dumps(stages))
""")

# subcommands that need no scipy at all
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
)


def _scipy_after(*argvs):
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, json.dumps(argvs)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartup:
    def test_subcommands_import_only_the_scipy_they_run(self):
        assert _scipy_after(*_SCIPY_FREE) == {"import": [], "run": []}

    def test_verify_loads_no_scipy_beyond_linalg(self):
        loaded = _scipy_after(["verify", "--quick"])["run"]
        unused = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse")
        assert [m for m in loaded if m.startswith(unused)] == []

    def test_runs_as_a_module(self, tmp_path):
        for argv in (["--help"],
                     ["bogolubov-sharpness", "--nmax-list", "2,4", "--outdir", str(tmp_path)]):
            proc = subprocess.run([sys.executable, "-m", "chargelab", *argv], env=_src_env(),
                                  cwd=tmp_path, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        _, rows, _ = read_record(tmp_path / "bogolubov-sharpness.jsonl")
        assert [r["n_max"] for r in rows] == [2, 4]


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
        ("trialstate", "--check", "upper-bound"): {"check": "upper-bound", "seed": 1905,
                                                   "trials": 1000},
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
            args = parser.parse_args(argv)
            params = {k: v for k, v in vars(args).items() if k not in cli._PLUMBING_KEYS}
            assert params == expected, argv

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
