"""afspectral benchmark: one seeded workload, measured in fresh processes.

    python3 perfbench/run.py --workload cantor-split --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each process is a closed loop with one client and BLAS pinned to one thread.
The ``--seconds`` budget is shared by a few measuring processes, run one
after another; each repeats the workload's batch of operations while another
whole batch fits in its share (at least one) and checks every operation
against its reference.  Before, between and after them, set-up-only
processes run.  Set-up time is the median over all these processes, each
timed from process start through import and building every triple and
window the workload needs, so its samples span the whole run.  With
``--trace 1`` one process runs one batch untraced and the same batch traced
and per-layer metrics are reported instead.

The last line of standard output is the JSON result; the full report
(environment, digests, per-kind latencies, trace checks) is written to
``.bench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "afspectral")
sys.path.insert(0, HERE)

from metrics import END_TO_END, REPORTED, per_layer, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A shared machine's speed can drift in spells of tens of seconds; one set-up
# sample takes a fraction of a second, so samples taken together agree with
# each other and not with the rest of the run.  Probes at several moments of
# the run make the set-up median span it, as the measuring workers do.
MEASURING_WORKERS = 3  # share the --seconds budget, one after another, while it lasts
PROBES_PER_GAP = 3  # set-up-only processes before, between and after them
CHILD_TIMEOUT = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args):
    """Run a worker to completion and return its JSON result."""
    env = dict(os.environ, **PINNED)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload, mains, probes, trace):
    batches = [b for m in mains for b in m["batches"]]
    latencies = [x for b in batches for x in b["latencies"]]
    ok = [x for b in batches for x in b["ok"]]
    attempted, failed = len(ok), ok.count(False)
    kinds = {}
    for b in batches:
        for kind, lat in zip(b["kinds"], b["latencies"]):
            kinds.setdefault(kind, []).append(lat)
    setup = [p["setup_s"] for p in probes + mains]
    end_to_end = {
        "setup_s": statistics.median(setup),
        # The shortest batch, not the median.  On a shared machine a core's
        # speed for identical work can swing 2x in spells of seconds to tens
        # of seconds, so a run's median batch mostly tells which spells the
        # run fell in.  Over ten seeds the median's spread (quartile distance
        # over median) reached 0.26 on window-lift and cantor-split, against
        # 0.02 and 0.17 for the shortest batch of the same runs.
        "wall_s": min(b["wall"] for b in batches),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": max(m["peak_rss_mb"] for m in mains),
    }
    t = tail(latencies)
    reported = {
        "op_tail_ms": None if t is None else 1e3 * t[1],
        "op_tail_percentile": None if t is None else t[0],
        "op_count": len(latencies),
        "failed_frac": failed / attempted,
    }
    digests = {b["digest"] for b in batches}
    report = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "workers": len(mains),
        "batches": len(batches),
        "ops_per_batch": len(batches[0]["latencies"]),
        "end_to_end": end_to_end,
        "reported": reported,
        "setup_samples_s": setup,
        "batch_walls_s": [b["wall"] for b in batches],
        "wall_median_s": statistics.median(b["wall"] for b in batches),
        "kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(kinds.items())},
        "inputs_digest": mains[0]["inputs_digest"],
        "inputs_digest_stable": len({p["inputs_digest"] for p in probes + mains}) == 1,
        "outputs_digest": sorted(digests)[0],
        "outputs_digest_stable": len(digests) == 1,
        "errors": [e for b in batches for e in b["errors"]][:20],
        "environment": mains[0]["environment"],
    }
    correct = failed == 0 and report["outputs_digest_stable"] and report["inputs_digest_stable"]
    if trace:
        tr = mains[0]["trace"]
        report["trace"] = tr
        report["attempted"] = attempted = attempted + len(batches[0]["ok"])
        failed += tr["traced_failed"]
        correct = (
            correct
            and tr["traced_failed"] == 0
            and tr["digest_matches_untraced"]
            and tr["nesting_violations"] == 0
            and tr["negative_self_times"] == 0
            and tr["metrics"]["trace.untraced_remainder_s"] >= -1e-9
            and not tr["missing_entry_points"]
        )
    report["correct"] = correct
    return report, attempted, failed, correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest input (self-test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        sys.stderr.write(f"no afspectral sources under {SRC}; run from a checkout root\n")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    probe = [*common, "--setup-only"]
    workers = 1 if args.trace else MEASURING_WORKERS
    probes, mains, used = [], [], 0.0
    for i in range(workers):
        if mains and used >= args.seconds:  # a slow program: keep the run within its time
            break
        probes += [spawn(probe) for _ in range(PROBES_PER_GAP)]
        share = (args.seconds - used) / (workers - i)
        traced = ["--trace"] if args.trace else []
        mains.append(spawn([*common, "--seconds", repr(share), *traced]))
        used += mains[-1].get("elapsed_s", 0.0)
    probes += [spawn(probe) for _ in range(PROBES_PER_GAP)]
    report, attempted, failed, correct = summarize(args.workload, mains, probes, args.trace)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  "
          f"batches {report['batches']}  correct {correct}  report {os.path.relpath(path, ROOT)}")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<14} {value:12.4f} {END_TO_END[name][0]}")
    rep = report["reported"]
    if rep["op_tail_ms"] is None:
        print(f"  {'op_tail_ms':<14} n/a (fewer than 20 ops)")
    else:
        print(f"  {'op_tail_ms':<14} {rep['op_tail_ms']:12.4f} {REPORTED['op_tail_ms']}"
              f"  (p{rep['op_tail_percentile']:.1f} of {rep['op_count']} ops)")
    print(f"  {'failed_frac':<14} {rep['failed_frac']:12.4f} {REPORTED['failed_frac']}")
    if args.trace:
        tr = report["trace"]
        print(f"  tracing overhead {tr['metrics']['trace.overhead_s']:.4f} s "
              f"({100 * tr['overhead_frac']:.1f}%), {tr['spans']} spans")
        metrics = {
            name: {"value": tr["metrics"][name], "unit": unit}
            for name, unit, *_ in per_layer()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name][0]}
            for name, value in report["end_to_end"].items()
        }
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
