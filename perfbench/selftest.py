"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload on its smallest input, untraced and traced, and checks
that each metric of BENCHMARK.json is printed with its unit, that outputs
are correct and their digest repeats, that an operation given a deliberately
wrong reference (or raising) is counted in failed_frac without aborting the
batch, and that the benchmark refuses to run without the package sources.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_benchmark_json(spec):
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    wanted = {k: u for k, (u, _) in metrics.END_TO_END.items()}
    check(e2e == wanted, "end_to_end matches metrics.py")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    wanted = {n: (u, b) for n, u, b, *_ in metrics.per_layer()}
    check(layers == wanted, "per_layer matches metrics.py")
    names = {w["name"] for w in spec["workloads"]}
    check(names <= set(WORKLOADS), "workloads exist in workloads.py")
    check(e2e.get("setup_s") == "s", "setup_s is an end-to-end metric in seconds")


def check_smoke_runs(spec):
    for name in WORKLOADS:
        digests = []
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench("--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label} exits 0: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} result keys")
            check(result["correct"] and result["failed"] == 0,
                  f"{label} correct with no failed op")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == {m["name"]: m["unit"] for m in wanted},
                  f"{label} prints every metric with its unit")
            text = "\n".join(lines[:-1])
            names = [*metrics.END_TO_END, *metrics.REPORTED]
            check(all(n in text for n in names), f"{label} report lines name {', '.join(names)}")
            path = os.path.join(ROOT, ".bench_out", f"report-{name}-seed7-trace{trace}.json")
            with open(path) as fh:
                report = json.load(fh)
            digests.append(report["outputs_digest"])
            if trace:
                check_trace_gate(report["trace"], label)
        check(len(set(digests)) == 1, f"{name} outputs digest repeats across runs")


def check_trace_gate(tr, label):
    """A traced run is correct only if its spans are consistent; break each check once."""
    main = {"batches": [{"wall": 1.0, "latencies": [1.0], "kinds": ["k"], "ok": [True],
                         "errors": [], "digest": "d"}],
            "setup_s": 0.0, "peak_rss_mb": 0.0, "inputs_digest": "", "environment": {}}
    broken = {
        "missing entry point": {"missing_entry_points": ["triple.vector_of"]},
        "negative self time": {"negative_self_times": 1},
        "spans outside the traced wall": {
            "metrics": {**tr["metrics"], "trace.untraced_remainder_s": -1e-3}
        },
        "span outside its parent": {"nesting_violations": 1},
    }
    check(run.summarize("x", [{**main, "trace": tr}], [], 1)[3], f"{label} trace checks pass")
    for what, change in broken.items():
        correct = run.summarize("x", [{**main, "trace": {**tr, **change}}], [], 1)[3]
        check(not correct, f"{label} {what} makes the run incorrect")


def check_failed_ops_counted():
    worker.import_package()
    wl = WORKLOADS["window-lift"](7, smoke=True)
    wl.setup()
    # op 0 is a passing configuration: expecting a designed failure is a wrong reference
    wl.configs[0] = (*wl.configs[0][:4], True)
    ops = wl.batch()

    def boom():
        raise RuntimeError("injected")

    ops[1].run = boom
    wl.batch = lambda: ops
    batch = worker.run_batch(wl)
    check(batch["ok"][:2] == [False, False] and all(batch["ok"][2:]),
          "wrong reference and raising op fail, the rest pass")
    main = {"batches": [batch], "setup_s": 0.0, "peak_rss_mb": 0.0,
            "inputs_digest": "", "environment": {}}
    report, attempted, failed, correct = run.summarize("window-lift", [main], [], 0)
    check(attempted == len(ops) and failed == 2 and not correct,
          "failed ops are counted, not fatal")
    check(report["reported"]["failed_frac"] == 2 / len(ops), "failed_frac = failed / attempted")


def check_odometer_power():
    worker.import_package()
    from afspectral import isometry as iso

    wl = WORKLOADS["window-lift"](7, smoke=True)
    wl.setup()
    n = wl.cantor_depth
    mine = iso.leaf_permutation_array(wl._beta(("odometer", 1), wl.filts["cantor"]), n)
    ref = iso.leaf_permutation_array(iso.odometer_portrait(n), n)
    check(list(mine) == list(ref), "odometer power 1 equals the odometer portrait")


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "rigidity", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout, "refuses to run without src/")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_benchmark_json(spec)
    check_failed_ops_counted()
    check_odometer_power()
    check_refuses_without_sources()
    check_smoke_runs(spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
