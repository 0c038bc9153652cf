"""Metric definitions of the benchmark and the statistics that produce them.

``END_TO_END`` are gated per workload; ``per_layer()`` lists what the traced
run reports.  Each per-layer row records, before any optimisation is measured, the
end-to-end metric it should move, the workloads where it should move, and
the workloads where the prediction is no change.  This module is the only
copy of that layer -> metric -> workload map.

``matched-distance`` is not in BENCHMARK.json, so a prediction that names it
is checked only by running that workload by name; every row that should move
names a benchmarked workload too, except ``metric.ascent.max_iter_hits``
(no cantor-split start reaches ``max_iter``).
"""

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Reported by every run, not gated: op_tail_ms is undefined below 20 ops per
# run, and failed_frac is 0 at a correct program (it is `failed`/`attempted`).
REPORTED = {"op_tail_ms": "ms", "failed_frac": "ratio"}

DISTANCE = "matched-distance, cantor-split"

# span name -> (should move, on workload, predicted unchanged on)
SPAN_MAP = {
    "algebra.materialize": ("wall_s", "rigidity, cantor-split", "matched-distance"),
    "algebra.from_matrix": ("wall_s", "rigidity", "cantor-split"),
    "algebra.multiply": ("wall_s", "rigidity", DISTANCE),
    "algebra.state_value": ("op_p50_ms", DISTANCE, "window-lift"),
    "triple.build_triple": ("setup_s, peak_rss_mb", "rigidity", "cantor-split"),
    "triple.represent": ("wall_s, op_p50_ms", "rigidity", "cantor-split"),
    "triple.vector_of": ("wall_s", "rigidity", DISTANCE),
    "triple.commutator": ("op_p50_ms", DISTANCE, "rigidity"),
    "triple.commutator_norm": ("op_p50_ms", DISTANCE, "window-lift"),
    "linalg.operator_norm": ("wall_s", "window-lift, rigidity", "cantor-split"),
    "metric.distance": ("wall_s", "cantor-split", "rigidity, window-lift"),
    "metric.reduce_search_level": ("op_p50_ms", DISTANCE, "rigidity"),
    "metric.norm_kernel": ("wall_s, op_p50_ms", DISTANCE, "rigidity, window-lift"),
    "isometry.iso_check": ("wall_s", "rigidity, window-lift", DISTANCE),
    "isometry.apply_automorphism": ("wall_s", "rigidity", DISTANCE),
    "isometry.automorphism_residual": ("wall_s", "rigidity", DISTANCE),
    "isometry.filtration_check": ("wall_s", "rigidity", DISTANCE),
    "isometry.implementing_unitary": ("wall_s, op_p50_ms", "rigidity, window-lift", DISTANCE),
    "crossed.build_lifted": ("setup_s, peak_rss_mb", "window-lift", "all others"),
    "crossed.represent_crossed": ("wall_s", "window-lift", "all others"),
    "crossed.lifted_unitary": ("wall_s", "window-lift", "all others"),
    "crossed.lift_commutation_check": ("wall_s", "window-lift", "all others"),
    "crossed.covariance_check": ("wall_s", "window-lift", "all others"),
}

# counter name -> (unit, better, should move, on workload, predicted unchanged on)
COUNTERS = {
    "metric.constraint_stack.bytes_computed": (
        "B", "lower", "peak_rss_mb", DISTANCE, "rigidity"
    ),
    "metric.ascent.iterations": ("count", "lower", "wall_s", DISTANCE, "rigidity"),
    "metric.ascent.max_iter_hits": (
        "count", "lower", "wall_s", "matched-distance (not benchmarked)", "rigidity"
    ),
    "metric.ascent.useful_ratio": ("ratio", "higher", "wall_s", DISTANCE, "rigidity"),
    "metric.errors": ("count", "lower", "failed_frac", DISTANCE, "n/a"),
    "isometry.errors": ("count", "lower", "failed_frac", "rigidity", "n/a"),
    "crossed.doubled_dirac.bytes_computed": (
        "B", "lower", "peak_rss_mb", "window-lift", "all others"
    ),
    # harness figures: traced minus untraced batch wall, traced wall outside any span
    "trace.overhead_s": ("s", "lower", "none", "all", "n/a"),
    "trace.untraced_remainder_s": ("s", "lower", "none", "all", "n/a"),
}


def per_layer():
    """(name, unit, better, moves, on, unchanged_on) for every per-layer metric."""
    rows = []
    for span, (moves, on, same) in SPAN_MAP.items():
        rows.append((f"{span}.calls", "count", "lower", moves, on, same))
        rows.append((f"{span}.self_s", "s", "lower", moves, on, same))
    for name, (unit, better, moves, on, same) in COUNTERS.items():
        rows.append((name, unit, better, moves, on, same))
    return rows


TAIL_BEYOND = 10  # ops that must lie above the reported tail percentile
TAIL_MIN_OPS = 20  # fewer ops per run: no tail is reported


def tail(values):
    """Highest percentile with at least TAIL_BEYOND ops above it.

    Returns (percentile, value) or None below TAIL_MIN_OPS ops.  The value is
    the order statistic with exactly TAIL_BEYOND larger samples.
    """
    n = len(values)
    if n < TAIL_MIN_OPS:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return 100.0 * rank / n, sorted(values)[rank - 1]
