#!/usr/bin/env python3
"""Which automorphisms are unitarily rigid, and which merely preserve distances.

Rigidity means: implemented on the representation space by a unitary that
commutes with the Dirac operator.  With strictly increasing eigenvalues this
forces preservation of every filtration level and of the reference state.
The demos below walk the verdicts, enumerate the full rigid group of the
binary tree, certify that on the Cantor set it is the whole group of
distance-preserving automorphisms, certify that slot switches change
distances, and show the two-point flip preserving every distance while
failing rigidity.
"""

import numpy as np

from afspectral import (
    TraceState,
    UniformState,
    build_triple,
    cantor,
    cantor_coincidence,
    dirac_explicit,
    dirac_power,
    enumerate_cantor_iso,
    flip_demo,
    iso_check,
    shift_inequality_check,
    switch,
    switch_iso_violation,
    uhf,
)
from afspectral.algebra import AlgebraElement
from afspectral.isometry import random_local_automorphism

rng = np.random.default_rng(1)

# -- verdicts ------------------------------------------------------------------

f3 = uhf(2, 3)
t3 = build_triple(f3, TraceState(), dirac_explicit([1.0, 2.0, 4.0]))

for name, spec in [
    ("tensor of local unitaries", random_local_automorphism(f3, rng)),
    ("slot switch 1 <-> 2", switch(1, 2, 3)),
]:
    v = iso_check(t3, spec)
    print(
        f"{name}: rigid={v.in_iso}, state preserved={v.state_preserved}, "
        f"levels preserved={v.filtration_levels_preserved}"
    )

t_tied = build_triple(f3, TraceState(), dirac_explicit([1.0, 1.0, 2.0]))
v = iso_check(t_tied, switch(1, 2, 3))
print(f"slot switch with tied lambda_1 = lambda_2: rigid={v.in_iso} (block absorbs it)")

# -- the rigid group of the binary tree ----------------------------------------

for depth, lam in ((2, [1.0, 2.0]), (3, [1.0, 2.0, 4.0])):
    tc = build_triple(cantor(depth), UniformState(), dirac_explicit(lam))
    rep = enumerate_cantor_iso(tc, mode="exhaustive")
    print(
        f"depth {depth}: {rep['passing']} of {rep['scanned']} leaf permutations "
        f"commute with D; tree portraits predict {rep['group_order']} "
        f"(match: {rep['matches_portraits']})"
    )

# -- rigid = distance preserving on the Cantor set -------------------------------

print("\ncertified split-level distances f(m) of the Cantor set, gamma = 1/3:")
for depth in (3, 4, 5):
    rep = cantor_coincidence(1 / 3, depth)
    intervals = ", ".join(
        f"f({m}) in [{c['lower_bound']:.6f}, {c['upper_bound']:.6f}]" for m, c in rep["classes"].items()
    )
    print(f"  depth {depth}: {intervals}")
    print(
        f"    {rep['generators']} node flips commute with D: {rep['generators_commute']}; "
        f"intervals disjoint: {rep['intervals_disjoint']}; rigid = distance preserving: {rep['coincide']}"
    )

# -- switches do change distances ----------------------------------------------

print("\nslot switch 1 <-> k+1 moves the matched state, lambda = (1,2,4):")
for k in (1, 2):
    rep = switch_iso_violation(t3, k)
    print(
        f"  k={k}: d before {rep['d_before']['upper_bound']:.4f}, "
        f"after {rep['d_after']['upper_bound']:.4f}, certified gap {rep['gap']:.4f}"
    )

# -- the flip: distance preserving but not rigid --------------------------------

rep = flip_demo(n_pairs=50, n_elements=50)
print(
    f"\ntwo-point flip with D = diag(0, 1): spectral commutator norm "
    f"{rep['commutator_operator_norm']:.4f} (not rigid), max distance deviation "
    f"over 50 state pairs {rep['max_distance_deviation']:.2e}"
)

# -- shift stretching ------------------------------------------------------------

t_pow = build_triple(f3, TraceState(), dirac_power(3.0, 3))
x = AlgebraElement(f3, 1, rng.normal(size=4))
rep = shift_inequality_check(t_pow, x, 1, 2.0)
print(
    f"\nshift stretching (lambda_m = 3^(m-1), c=2): ||[D, x]|| = {rep['lhs']:.4f} "
    f"<= {rep['rhs']:.4f} = bound from ||[D, shift(x)]||"
)
