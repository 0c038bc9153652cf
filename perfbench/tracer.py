"""Span tracing of afspectral layer entry points, from outside the package.

``Tracer.install`` rebinds each entry point to a wrapper that records a span
(name, start, end, parent span, op id) and counts at the same boundary;
``uninstall`` restores the originals.  Functions are rebound wherever a
package module holds them as a global, which also catches names imported
with ``from .linalg import operator_norm``; methods are rebound on their
class.  Spans stay in memory until the run ends.

``metric.norm_kernel`` is defined by ancestry: a numpy.linalg decomposition
(svd, eigh, eigvalsh) whose nearest wrapped ancestor is ``metric.distance``.
Elsewhere those calls are not spans, so their time is the caller's self time.
"""

import sys
import time
from collections import Counter

import numpy as np

FUNCTIONS = {
    "algebra.from_matrix": ("algebra", "from_matrix"),
    "algebra.multiply": ("algebra", "multiply"),
    "triple.build_triple": ("triple", "build_triple"),
    "linalg.operator_norm": ("linalg", "operator_norm"),
    "metric.distance": ("metric", "distance"),
    "metric.reduce_search_level": ("metric", "reduce_search_level"),
    "isometry.iso_check": ("isometry", "iso_check"),
    "isometry.apply_automorphism": ("isometry", "apply_automorphism"),
    "isometry.automorphism_residual": ("isometry", "automorphism_residual"),
    "isometry.filtration_check": ("isometry", "filtration_check"),
    "isometry.implementing_unitary": ("isometry", "implementing_unitary"),
    "crossed.build_lifted": ("crossed", "build_lifted"),
    "crossed.represent_crossed": ("crossed", "represent_crossed"),
    "crossed.lifted_unitary": ("crossed", "lifted_unitary"),
    "crossed.lift_commutation_check": ("crossed", "lift_commutation_check"),
    "crossed.covariance_check": ("crossed", "covariance_check"),
}
METHODS = {
    "algebra.materialize": ("algebra", "AlgebraElement", "materialize"),
    "triple.represent": ("triple", "TruncatedTriple", "represent"),
    "triple.vector_of": ("triple", "TruncatedTriple", "vector_of"),
    "triple.commutator": ("triple", "TruncatedTriple", "commutator"),
    "triple.commutator_norm": ("triple", "TruncatedTriple", "commutator_norm"),
}
KERNELS = ("svd", "eigh", "eigvalsh")
MODULES = ("algebra", "linalg", "triple", "metric", "isometry", "crossed")
NESTING_SLACK_S = 1e-9  # clock resolution allowed when checking that spans nest


def _all_subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_all_subclasses(sub)]
    return out


def _mod(short):
    return sys.modules[f"afspectral.{short}"]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.missing = []
        self._patches = []
        self._max_iter = None

    # -- installation ------------------------------------------------------

    def install(self):
        self.missing = []
        modules = [sys.modules["afspectral"], *(_mod(m) for m in MODULES)]
        self._max_iter = _mod("metric").SolverConfig().max_iter
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(_mod(mod), attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapped)
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(_mod(mod), cls_name, None)
            orig = None if cls is None else cls.__dict__.get(attr)
            if orig is None:
                self.missing.append(name)
                continue
            self._patch(cls, attr, self._wrap(name, orig))
        for cls in _all_subclasses(_mod("algebra").State):
            if "value" in cls.__dict__:
                self._patch(cls, "value", self._wrap("algebra.state_value", cls.__dict__["value"]))
        for attr in KERNELS:
            self._patch(np.linalg, attr, self._kernel(getattr(np.linalg, attr)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr, new):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        layer = name.split(".")[0]
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = time.perf_counter()
                self._count_error(layer, exc)
                raise
            finally:
                self.stack.pop()
            span[2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _kernel(self, fn):
        inner = self._wrap("metric.norm_kernel", fn)

        def dispatch(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == "metric.distance":
                return inner(*args, **kwargs)
            return fn(*args, **kwargs)

        dispatch.__wrapped__ = fn
        return dispatch

    def _count_error(self, layer, exc):
        if layer == "metric":
            counted = True
        elif layer == "isometry":
            errors = _mod("errors")
            counted = isinstance(exc, (errors.AmbiguousVerdictError, errors.InvalidInputError))
        else:
            return
        # count each exception once per layer, however many wrappers it escapes
        seen = exc.__dict__.setdefault("_perfbench_layers", set())
        if counted and layer not in seen:
            seen.add(layer)
            self.counts[f"{layer}.errors"] += 1

    # -- counts taken at the span boundaries -----------------------------------

    def _after_metric_distance(self, args, result):
        diag = result.diagnostics
        if "per_start" not in diag:
            return
        problem = args[0]
        d = problem.triple.filtration.dim(diag["search_level"])
        self.counts["metric.constraint_stack.bytes_computed"] += diag["parameters"] * d * d * 16
        starts = [s for s in diag["per_start"] if s["start"] != "polish"]
        best = max(s["objective"] for s in starts)
        self.counts["metric.ascent.iterations"] += sum(s["iterations"] for s in diag["per_start"])
        self.counts["metric.ascent.max_iter_hits"] += sum(
            s["iterations"] >= self._max_iter for s in starts
        )
        self.counts["metric.ascent.starts"] += len(starts)
        self.counts["metric.ascent.useful_starts"] += sum(
            s["objective"] >= best - 1e-6 * abs(best) for s in starts
        )

    def _after_crossed_build_lifted(self, args, result):
        self.counts["crossed.doubled_dirac.bytes_computed"] += result.dim**2 * 16

    # -- analysis --------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def nesting_violations(self):
        """Spans that do not lie inside their parent's interval."""
        bad = 0
        for s in self.spans:
            if s[3] >= 0:
                p = self.spans[s[3]]
                bad += not (p[1] - NESTING_SLACK_S <= s[1] <= s[2] <= p[2] + NESTING_SLACK_S)
            bad += s[2] < s[1]
        return bad

    def top_level_time(self):
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def export(self, t0):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent", "op"],
            "spans": [
                [index[s[0]], round((s[1] - t0) * 1e6), round((s[2] - t0) * 1e6), s[3], s[4]]
                for s in self.spans
            ],
        }
