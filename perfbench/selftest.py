"""Self-test of the benchmark's tracer and counters.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The span arithmetic and the per-thread parent rule are checked on synthetic
nested and threaded calls; the last test runs ``chargelab verify --quick``
traced twice with one seed and requires every counter to repeat exactly.
"""
from __future__ import annotations

import json
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import targets  # noqa: E402
from tracer import Target, Tracer, aggregate, covered  # noqa: E402


def _package(name: str, sources: dict[str, str]) -> dict[str, types.ModuleType]:
    """Register an in-memory package `name` whose submodules run `sources`
    in order, so a later module can import names from an earlier one."""
    pkg = types.ModuleType(name)
    pkg.__path__ = []
    sys.modules[name] = pkg
    modules = {}
    for sub, code in sources.items():
        module = types.ModuleType(f"{name}.{sub}")
        module.__package__ = name
        sys.modules[module.__name__] = module
        setattr(pkg, sub, module)
        exec(code, vars(module))
        modules[sub] = module
    return modules


class _Script:
    """A fake clock returning preset readings in order."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([(1, 4), (1, 4)], 0, 10) == 3


def test_self_time_subtracts_union_of_concurrent_children():
    # suite [0, 10] with two checks on pool threads, overlapping in [2, 6]
    spans = [
        (0, "suite", 0.0, 10.0, 1, None, None, None),
        (1, "check", 1.0, 6.0, 2, 0, 4.0, None),
        (2, "check", 2.0, 8.0, 3, 0, 1.5, None),
        (3, "leaf", 2.0, 3.0, 2, 1, None, 7),
        (4, "leaf", 4.0, 4.5, 2, 1, None, 9),
    ]
    stats = aggregate(spans)
    assert stats["suite"].self_s == 3.0  # 10 - |[1, 8]|
    assert stats["suite"].child_s == 11.0  # overlap 11 / 10
    assert stats["check"].calls == 2
    assert stats["check"].self_s == 11.0 - 1.5
    assert stats["check"].wait_s == (5.0 - 4.0) + (6.0 - 1.5)
    assert stats["leaf"].count_sum == 16 and stats["leaf"].count_max == 9


def test_nested_calls_with_scripted_clocks():
    mods = _package("fakenest", {"work": (
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + inner()\n"
    )})
    # outer starts at 0, inner runs [1, 3] and [4, 6], outer ends at 10;
    # outer's thread CPU goes 0 -> 7, so it waited 3 of its 10 seconds
    t = Tracer("fakenest", clock=_Script(0.0, 1.0, 3.0, 4.0, 6.0, 10.0),
               cpu_clock=_Script(0.0, 7.0))
    t.install([Target("work:outer", cpu=True), Target("work:inner")])
    assert mods["work"].outer() == 2
    stats = aggregate(t.spans)
    assert stats["work.outer"].self_s == 6.0
    assert stats["work.outer"].wait_s == 3.0
    assert stats["work.inner"].self_s == 4.0
    assert stats["work.inner"].calls == 2


def test_pool_thread_spans_take_the_main_threads_open_span_as_parent():
    mods = _package("fakepool", {"work": (
        "import time\n"
        "def leaf():\n    time.sleep(0.05)\n"
        "def check():\n    leaf()\n    time.sleep(0.05)\n"
        "def suite(pool):\n"
        "    futures = [pool.submit(check) for _ in range(2)]\n"
        "    return [f.result() for f in futures]\n"
    )})
    t = Tracer("fakepool")
    t.install([Target("work:suite"), Target("work:check", cpu=True), Target("work:leaf")])
    with ThreadPoolExecutor(max_workers=2) as pool:
        mods["work"].suite(pool)
    by_name = {}
    for span in t.spans:
        by_name.setdefault(span[1], []).append(span)
    (suite,) = by_name["work.suite"]
    checks, leaves = by_name["work.check"], by_name["work.leaf"]
    assert all(c[5] == suite[0] for c in checks)
    assert {leaf[5] for leaf in leaves} == {c[0] for c in checks}
    stats = aggregate(t.spans)
    # the two checks overlap, so the suite's self time is far below its
    # wall minus the summed check time would suggest
    assert stats["work.suite"].self_s < 0.05
    assert stats["work.suite"].child_s / stats["work.suite"].total_s > 1.5
    assert 0.09 < stats["work.check"].wait_s <= stats["work.check"].total_s
    assert abs(stats["work.check"].self_s - 2 * 0.05) < 0.04


def test_every_binding_is_rebound_and_missing_names_are_absent():
    mods = _package("fakebind", {
        "base": "def kernel(x):\n    return x + 1\n",
        "user": "from fakebind.base import kernel\ndef use():\n    return kernel(1)\n",
    })
    t = Tracer("fakebind")
    t.install([
        Target("base:kernel", count=lambda c: c.arg("x") * 10),
        Target("base:gone"),
        Target("nosuch:thing"),
    ])
    assert mods["user"].use() == 2
    assert mods["base"].kernel(4) == 5
    assert t.rebound["base.kernel"] == ["fakebind.base.kernel", "fakebind.user.kernel"]
    assert set(t.absent) == {"base.gone", "nosuch.thing"}
    assert aggregate(t.spans)["base.kernel"].count_sum == 50


def test_a_failing_counter_is_reported_not_raised():
    mods = _package("fakecount", {"m": (
        "def f():\n    return None\n"
        "def g(x):\n    raise KeyError(x)\n"
    )})
    t = Tracer("fakecount")
    t.install([Target("m:f", count=lambda c: c.result.evaluations),
               Target("m:g", count=lambda c: c.result.evaluations)])
    assert mods["m"].f() is None
    assert "AttributeError" in t.errors["m.f"]
    try:
        mods["m"].g(3)
    except KeyError:
        pass
    else:
        raise AssertionError("the traced call must re-raise")
    # a call that raised has a span but no count, and is not a counter error
    assert [span[7] for span in t.spans] == [None, None]
    assert "m.g" not in t.errors


def test_no_binding_of_a_wrapped_chargelab_function_is_left_unwrapped():
    sys.path.insert(0, str(run.SRC))
    import chargelab.cli  # noqa: F401  (imports every module the CLI uses)

    t = Tracer("chargelab")
    originals = [t._resolve(target)[2] for target in targets.TARGETS]
    t.install(targets.TARGETS)
    assert not t.absent
    for name, module in list(sys.modules.items()):
        if name.startswith("chargelab"):
            for key, value in vars(module).items():
                assert not any(value is o for o in originals), f"{name}.{key}"
    assert "chargelab.trialstate.integrate_1d" in t.rebound["numerics.integrate_1d"]


def test_metric_table_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ours = {name: unit for name, unit, _span, _fn in targets.LAYER_METRICS}
    ours["trace.overhead_frac"] = "frac"
    assert per_layer == ours
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    wrapped = {t.name for t in targets.TARGETS}
    assert {span for _name, _unit, span, _fn in targets.LAYER_METRICS} <= wrapped


def test_counters_repeat_exactly_for_one_seed():
    import signal

    signal.signal(signal.SIGALRM, run._alarm)
    deadline = time.monotonic() + 150.0
    args = ["verify", "--quick", "--seed", "11"]
    counts = []
    for i in range(2):
        proc = run.launch(f"selftest{i}", args, deadline, trace=True)
        assert proc["reason"] is None, proc["reason"]
        assert not proc["spans"]["absent"] and not proc["spans"]["errors"]
        stats = aggregate(proc["spans"]["spans"])
        values = {name: fn(stats) for name, _u, span, fn in targets.LAYER_METRICS
                  if name in targets.COUNTERS and span in stats}
        counts.append((values, proc["sha256"]))
    assert counts[0] == counts[1]
    for name in ("numerics.integrate_1d.evals", "variational.minimize.iterations",
                 "bogolubov.ground_energy.dim_sum", "bogolubov.ground_energy.dim_max",
                 "correlation.random_configuration.pairs"):
        assert counts[0][0][name] > 0, name


if __name__ == "__main__":
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok   {name}")
            except Exception as exc:
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
