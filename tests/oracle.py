"""Brute-force reference for the distance solver, over at most 4 parameters.

A dense scan of unit directions followed by a shrinking local refinement,
scored by the same norm kernel the solver uses.  It certifies nothing: the
value it returns is a lower bound on the maximum that the scan happens to
reach, which the tests compare against the solver's certified bounds.
"""

import numpy as np

from afspectral import metric as mt
from afspectral.errors import UnsupportedError
from afspectral.linalg import TOL


def brute_force_core(c: np.ndarray, B: np.ndarray, points: int = 10000, seed: int = 12345) -> float:
    """Dense direction scan plus shrinking local refinement over <= 4 parameters."""
    c = np.asarray(c, dtype=float)
    p = len(c)
    if p > 4:
        raise UnsupportedError(f"brute force supports <= 4 parameters, got {p}")
    if np.linalg.norm(c) < TOL.zero_norm:
        return 0.0

    if p == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif p == 2:
        ang = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(seed)
        n = points if p == 3 else 20 * points
        dirs = rng.normal(size=(n, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    cons = mt._ConstraintMap(B)
    cons.check_bounded(c)

    def batch_value(ts):
        s = cons.norms(ts)
        num = ts @ c
        bad = s < TOL.zero_norm
        return np.where(bad, 0.0, np.abs(num) / np.where(bad, 1.0, s))

    vals = batch_value(dirs)
    best = int(np.argmax(vals))
    best_val, best_t = float(vals[best]), dirs[best]

    rng = np.random.default_rng(seed + 1)
    sigma = 0.3
    for _ in range(30):
        cand = best_t[None, :] + sigma * rng.normal(size=(300, p))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cv = batch_value(cand)
        j = int(np.argmax(cv))
        if cv[j] > best_val:
            best_val, best_t = float(cv[j]), cand[j]
        sigma *= 0.7
    return best_val


def brute_force_distance(problem: mt.DistanceProblem) -> float:
    """The brute-force value on a distance problem's search space."""
    if problem.search_level == 0:
        return 0.0
    c, B, _ = mt._search_space(problem)
    return brute_force_core(c, B)
