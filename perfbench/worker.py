"""One workload in one fresh process: import, set up, run batches, report JSON.

Started by ``run.py`` with BLAS pinned to one thread in its environment.
``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so the reported set-up time includes interpreter start and import.
With ``--setup-only`` the process exits after set-up.  With ``--trace`` it
sets up under tracing, runs one untraced batch and then the same batch
traced, and writes the spans under ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_package():
    sys.path.insert(0, SRC)
    import afspectral

    if not os.path.abspath(afspectral.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"afspectral imported from {afspectral.__file__}, not {SRC}")


def run_batch(workload, tracer=None):
    """Closed loop over one batch: each op starts when the previous one ends.

    With a tracer, only the ops run traced; the reference checks do not.  An
    op that raises or fails its reference check is counted, not fatal.
    """
    from workloads import digest

    ops = workload.batch()
    outputs, latencies, errors = [], [], []
    if tracer is not None:
        tracer.install()
    t_batch = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # boundary: record and keep measuring
            out = None
            errors.append(f"op {i} ({op.kind}): {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
    wall = time.perf_counter() - t_batch
    if tracer is not None:
        tracer.uninstall()
        tracer.op = None
    verdicts = workload.check(outputs)
    for i, ok in enumerate(verdicts):
        if not ok and outputs[i] is not None:
            errors.append(f"op {i} ({ops[i].kind}): reference check failed: {outputs[i]}")
    return {
        "wall": wall,
        "latencies": latencies,
        "kinds": [op.kind for op in ops],
        "ok": [bool(v) for v in verdicts],
        "errors": errors,
        "digest": digest([out if out is not None else {"error": True} for out in outputs]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
    t_setup = time.perf_counter()
    workload.setup()
    setup_end = time.perf_counter()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "inputs_digest": digest(workload.inputs)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if tracer is None:
        batches = []
        t_start = time.perf_counter()
        while True:
            batches.append(run_batch(workload))
            elapsed = time.perf_counter() - t_start
            # start another batch only if it should end within the budget
            if elapsed + batches[-1]["wall"] > args.seconds:
                break
        result["batches"] = batches
        result["elapsed_s"] = elapsed
    else:
        tracer.uninstall()
        tracer.op = None
        setup_spans = len(tracer.spans)
        untraced = run_batch(workload)
        traced = run_batch(workload, tracer)
        result["batches"] = [untraced]
        result["trace"] = trace_summary(tracer, setup_spans, setup_end - t_setup, untraced, traced)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(tracer.export(t_setup), fh, separators=(",", ":"))
        result["trace"]["spans_file"] = os.path.relpath(path, ROOT)
    result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def environment():
    """Machine, toolchain and source version of this run; src_lines is recorded, not gated."""
    import numpy as np

    pkg = os.path.join(SRC, "afspectral")
    sha = hashlib.sha256()
    lines = 0
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            data = fh.read()
        sha.update(name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit,
        "src_lines": lines,
        "src_sha256": sha.hexdigest(),
        "loop": "closed, one client",
    }


def trace_summary(tracer, setup_spans, setup_wall, untraced, traced):
    """Per-layer metrics of the traced set-up and batch, with consistency checks.

    Self times add up to the top-level span time by construction, so the
    checks that can fail are: spans nest, no self time is negative, the
    top-level spans fit in the traced wall (remainder >= 0) and no entry
    point is missing.
    """
    from metrics import COUNTERS, SPAN_MAP

    selfs = tracer.self_times()
    calls, self_s = {}, {}
    for span, own in zip(tracer.spans, selfs):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + own
    traced_wall = setup_wall + traced["wall"]
    covered = tracer.top_level_time()
    remainder = traced_wall - covered
    metrics = {}
    for name in SPAN_MAP:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    counts = tracer.counts
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    starts = counts.get("metric.ascent.starts", 0)
    metrics["metric.ascent.useful_ratio"] = (
        counts.get("metric.ascent.useful_starts", 0) / starts if starts else 0.0
    )
    metrics["trace.overhead_s"] = traced["wall"] - untraced["wall"]
    metrics["trace.untraced_remainder_s"] = remainder

    # hot spots: largest self times over the batch and per op kind
    by_kind = {}
    for span, own in zip(tracer.spans[setup_spans:], selfs[setup_spans:]):
        kind = traced["kinds"][span[4]] if isinstance(span[4], int) else "setup"
        table = by_kind.setdefault(kind, {})
        table[span[0]] = table.get(span[0], 0.0) + own
    hot = {
        kind: sorted(table.items(), key=lambda kv: -kv[1])[:4] for kind, table in by_kind.items()
    }
    return {
        "metrics": metrics,
        "untraced_wall_s": untraced["wall"],
        "traced_wall_s": traced["wall"],
        "overhead_frac": traced["wall"] / untraced["wall"] - 1.0,
        "spans": len(tracer.spans),
        "nesting_violations": tracer.nesting_violations(),
        "negative_self_times": sum(own < -1e-9 for own in selfs),
        "traced_setup_s": setup_wall,
        "hot_spots": hot,
        "missing_entry_points": tracer.missing,
        "digest_matches_untraced": traced["digest"] == untraced["digest"],
        "traced_failed": traced["ok"].count(False),
    }


if __name__ == "__main__":
    sys.exit(main())
