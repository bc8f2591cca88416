"""chargelab benchmark: real CLI invocations, one fresh interpreter each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from its
``src/``.  Processes run one at a time and the benchmark starts no threads.

Workloads (each repetition is one user-visible job):

* ``verify-quick`` -- ``chargelab verify --quick --seed N``: every check of
  the battery, with its default thread pool, on 10x smaller ensembles, so
  ``trace_gamma`` quadrature dominates.  It shows quadrature and
  ``Tr Gamma`` work at full strength and should barely move when only
  ensembles change.
* ``studies`` -- five subcommand processes (Bogolubov fuzz and sharpness,
  inequality fuzz, Berezin-Lieb, matrix localization).  Dense eigensolves
  and the ensembles dominate; it is the only workload writing CSV tables,
  pays set-up five times per repetition, and runs no trace scaling.

The full battery (``verify`` without ``--quick``) runs the code paths of
``verify-quick`` with the ensemble sizes of ``studies``; at 14 s a
repetition it is left out, because a run could hold only two or three
repetitions and the medians did not settle on a shared machine.

A run repeats its workload, with the same inputs, until ``--seconds`` is
spent, and reports medians over repetitions.  It starts another repetition
only if, by the mean so far, that ends within half a repetition and at most
``MAX_OVERRUN_S`` past ``--seconds``.

On a shared two-CPU machine, runs minutes apart differ by up to a quarter
in every time metric, because the machine's speed drifts for minutes at a
time; longer runs do not remove that, so compare timings between commits
only from runs made in one session, alternating the commits.

``--trace 0`` reports end-to-end metrics: ``wall_s`` (spawn to exit, summed
over a repetition's processes), ``setup_s`` (spawn to the end of
``import chargelab.cli``, median over every process of the run), ``cpu_s``
(user plus system CPU of a repetition's processes) and ``peak_rss_mb``
(largest child max-RSS of a repetition).

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of `targets.LAYER_METRICS` from the traced ones, plus
``trace.overhead_frac`` (traced over untraced median wall, minus one).

Every invocation is checked: exit code 0, a PASS verdict line, a strictly
parseable ``.jsonl`` whose asserted rows all hold and whose summary does not
report a failure, tagged CSV tables, and the same ``.jsonl`` bytes in every
repetition, traced or not.  ``attempted`` and ``failed`` in the result count
chargelab processes; ``failed_frac`` is their ratio.  The last stdout line
is the result object; the line before it, also saved as
``.perfbench/report-<workload>-<seed>-<trace>.json``, holds the environment
(versions and BLAS build from `environment.py`, run once after the
measurements; CPU count; load averages at start and end), ``.jsonl`` sha256
digests, ``failed_frac`` and failure reasons, per-process samples, and the
per-layer metrics that could not be measured, with why.
"""
from __future__ import annotations

import argparse
import collections
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

HARD_LIMIT_S = 170.0  # a run must end within 180 s whatever the machine does
MAX_OVERRUN_S = 5.0  # a run may end this far past --seconds to fit one more repetition
TABLE_TAG = "# schema: chargelab.table/1"
RECORD_SCHEMA = "chargelab.report/1"


def _studies(seed: str):
    return [
        ["bogolubov-fuzz", "--trials", "300", "--seed", seed],
        ["bogolubov-sharpness", "--nmax-list", "2,4,8,12"],
        ["check-inequalities", "--trials", "3000", "--seed", seed],
        ["trialstate", "--check", "berezin-lieb", "--trials", "300", "--seed", seed],
        ["matrixloc-ensemble", "--trials", "300", "--seed", seed],
    ]


WORKLOADS = {
    "verify-quick": lambda seed: [["verify", "--quick", "--seed", seed]],
    "studies": _studies,
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# metrics derived from a counter; absent when that counter could not be read
COUNT_DERIVED = ("evals", "pairs", "dim_sum", "dim_max", "iterations", "rows", "us_per_trial")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CHARGELAB_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv, log_path: Path, deadline: float) -> dict:
    """Run one process to completion; time it and read its rusage.

    The timeout is a SIGALRM interval timer, so waiting needs neither a
    polling loop nor a thread.
    """
    status = usage = None
    timed_out = False
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Timeout:
        pass
    finally:
        if status is None:
            timed_out = True
            try:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status) if status is not None else -1
    return {
        "started": started,
        "wall_s": ended - started,
        "cpu_s": usage.ru_utime + usage.ru_stime if usage else 0.0,
        "rss_mb": usage.ru_maxrss / 1024.0 if usage else 0.0,
        "returncode": proc.returncode,
        "timed_out": timed_out,
    }


def launch(slot: str, cli_args, deadline: float, trace: bool = False) -> dict:
    """One launch.py process in a fresh directory `WORK/slot`."""
    base = WORK / "work" / slot
    shutil.rmtree(base, ignore_errors=True)
    outdir = base / "out"
    outdir.mkdir(parents=True)
    stamp, spans = base / "stamp.json", base / "spans.json"
    argv = [sys.executable, str(HERE / "launch.py"), "--stamp", str(stamp)]
    if trace:
        argv += ["--trace", str(spans)]
    argv += ["--", *cli_args, "--outdir", str(outdir)]
    proc = spawn(argv, base / "log.txt", deadline)
    proc.update(slot=slot, args=list(cli_args), traced=trace)
    try:
        record = json.loads(stamp.read_text())
        proc["setup_s"] = record["imported"] - proc["started"]
        proc["package"] = record["package"]
    except (OSError, ValueError, KeyError):
        proc["setup_s"] = None
    proc["reason"] = _failure(proc, base, outdir)
    if trace and spans.exists() and proc["reason"] is None:
        proc["spans"] = json.loads(spans.read_text())
    return proc


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _strict_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def environment(deadline: float) -> dict:
    """Versions and BLAS build, from a process of their own."""
    base = WORK / "work" / "environment"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    proc = spawn([sys.executable, str(HERE / "environment.py")], base / "log.txt", deadline)
    try:
        return json.loads((base / "log.txt").read_text().splitlines()[-1])
    except (OSError, ValueError, IndexError) as exc:
        return {"error": f"exit code {proc['returncode']}: {exc}"}


def _failure(proc: dict, base: Path, outdir: Path) -> str | None:
    """None when the invocation did what it should, else the reason."""
    if proc["timed_out"]:
        return "timed out"
    if proc["returncode"] != 0:
        return f"exit code {proc['returncode']}"
    if proc.get("setup_s") is None:
        return "no set-up stamp"
    if not Path(proc["package"]).resolve().is_relative_to(SRC.resolve()):
        return f"imported chargelab from {proc['package']}, not from {SRC}"
    sub = proc["args"][0]
    lines = (base / "log.txt").read_text(errors="replace").splitlines()
    if not lines or not lines[-1].startswith(f"{sub}: PASS"):
        return "no PASS verdict line"
    jsonl = outdir / f"{sub}.jsonl"
    try:
        data = jsonl.read_bytes()
        records = [json.loads(line, parse_constant=_strict_constant)
                   for line in data.decode().splitlines()]
    except (OSError, ValueError) as exc:
        return f"{jsonl.name} does not parse: {exc}"
    proc["sha256"] = hashlib.sha256(data).hexdigest()
    if len(records) < 2 or records[0].get("schema") != RECORD_SCHEMA:
        return f"{jsonl.name} lacks the {RECORD_SCHEMA} header"
    summary = records[-1].get("summary")
    if not isinstance(summary, dict):
        return f"{jsonl.name} lacks a summary line"
    if summary.get("passed", True) is not True or summary.get("failures", 0) != 0:
        return f"summary reports failure: {summary}"
    for row in records[1:-1]:
        if row.get("holds", True) is not True or row.get("passed", True) is not True:
            return f"row {row.get('row')} ({row.get('check')}) does not hold"
    for table in sorted(outdir.glob("*.csv")):
        with table.open(newline="") as fh:
            if not fh.readline().startswith(f"{TABLE_TAG} table="):
                return f"{table.name} lacks its schema tag"
            if sum(1 for _ in csv.reader(fh)) < 2:
                return f"{table.name} has no data rows"
    return None


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.invocations = WORKLOADS[workload](str(seed))
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.procs: list[dict] = []
        self.reps: list[dict] = []

    def rep(self, trace: bool) -> dict:
        procs = [launch(f"p{i}", args, self.deadline, trace=trace)
                 for i, args in enumerate(self.invocations)]
        self.procs.extend(procs)
        rep = {
            "traced": trace,
            "wall_s": sum(p["wall_s"] for p in procs),
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "rss_mb": max(p["rss_mb"] for p in procs),
            "ok": all(p["reason"] is None for p in procs),
            "procs": procs,
        }
        self.reps.append(rep)
        return rep

    def measure(self, trace: bool) -> None:
        """Repeat until the time is spent: a step is one repetition, or an
        untraced and a traced one when tracing."""
        steps = []
        while True:
            t0 = time.monotonic()
            ok = self.rep(False)["ok"]
            if trace:
                ok = self.rep(True)["ok"] and ok
            steps.append(time.monotonic() - t0)
            if not ok:
                return
            step = statistics.fmean(steps)
            now = time.monotonic()
            overrun = min(step / 2, MAX_OVERRUN_S)
            if now - self.start + step > self.seconds + overrun or now + 1.5 * step > self.deadline:
                return


def end_to_end(run: Run) -> dict:
    setups = [p["setup_s"] for p in run.procs if p.get("setup_s") is not None]
    reps = run.reps
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(run: Run, report: dict) -> dict:
    import targets
    import tracer

    traced = [r for r in run.reps if r["traced"]]
    absent, errors, rebound = {}, {}, {}
    samples = collections.defaultdict(list)
    for rep in traced:
        stats = collections.defaultdict(tracer.Stats)
        for proc in rep["procs"]:
            dump = proc.get("spans") or {}
            for name, part in tracer.aggregate(dump.get("spans", ())).items():
                stats[name].merge(part)
            absent.update(dump.get("absent", {}))
            errors.update(dump.get("errors", {}))
            rebound.update(dump.get("rebound", {}))
        for name, _unit, _span, value in targets.LAYER_METRICS:
            samples[name].append(value(stats))
    metrics, missing = {}, {}
    for name, unit, span, _value in targets.LAYER_METRICS:
        if span in absent:
            missing[name] = absent[span]
        elif span in errors and name.rsplit(".", 1)[1] in COUNT_DERIVED:
            missing[name] = errors[span]
        value = statistics.median(samples[name]) if samples[name] else 0.0
        metrics[name] = {"value": 0.0 if name in missing else value, "unit": unit}
    walls = {flag: [r["wall_s"] for r in run.reps if r["traced"] is flag] for flag in (False, True)}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0,
        "unit": "frac",
    }
    report.update(absent_metrics=missing, trace_errors=errors, rebound=rebound)
    return metrics


def consistent_digests(run: Run) -> dict:
    """One .jsonl digest per invocation slot, or None where repetitions differ."""
    digests = {}
    for proc in run.procs:
        if "sha256" in proc:
            seen = digests.setdefault(proc["slot"], proc["sha256"])
            if seen != proc["sha256"]:
                digests[proc["slot"]] = None
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "chargelab" / "cli.py").is_file():
        print(f"error: no chargelab sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    shutil.rmtree(WORK / "work", ignore_errors=True)
    load_start = loadavg()
    run = Run(args.workload, args.seed, args.seconds)
    run.measure(trace=bool(args.trace))
    seconds_used = time.monotonic() - run.start
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            **environment(run.deadline),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": loadavg(),
        },
        "repetitions": len(run.reps),
        "seconds_used": seconds_used,
    }
    attempted = len(run.procs)
    failures = [{"slot": p["slot"], "args": p["args"], "traced": p["traced"],
                 "reason": p["reason"]}
                for p in run.procs if p["reason"] is not None]
    digests = consistent_digests(run)
    correct = not failures and bool(run.reps) and None not in digests.values()
    metrics = {}
    if run.reps:
        metrics = per_layer(run, report) if args.trace else end_to_end(run)
    report.update(
        failed_frac=len(failures) / attempted,
        failures=failures,
        jsonl_sha256=digests,
        samples=[{k: p.get(k) for k in ("slot", "args", "traced", "wall_s", "cpu_s",
                                         "rss_mb", "setup_s", "sha256", "reason")}
                 for p in run.procs],
    )
    WORK.mkdir(exist_ok=True)
    (WORK / f"report-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({k: v for k, v in report.items() if k != "samples"}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
