#!/usr/bin/env python3
"""State-space distances: certified solver, exact bounds, and the Cantor metric.

The distance between two states maximizes |s1(a) - s2(a)| over elements with
Dirac commutator norm at most one.  The solver returns a feasible witness, so
every reported value is a true lower bound; for matched vector states the
grade-block structure also pins an exact upper bound 1/lambda_{n+1}.
"""

import itertools

import numpy as np

from afspectral import (
    CharacterState,
    DistanceProblem,
    UniformState,
    build_triple,
    cantor,
    car_golden_case,
    dirac_geometric,
    distance,
    reduce_search_level,
)

np.set_printoptions(precision=6, suppress=True)

# -- matched vector states against the trace ---------------------------------

print("distance of shifted matched vector states from the trace, lambda = (1,2,4):")
for n in (0, 1, 2):
    rec = car_golden_case([1.0, 2.0, 4.0], n, 3)
    print(
        f"  n={n}: lower {rec['lower_bound']:.8f}, upper {rec['upper_bound']:.8f}"
        f"  (search level {rec['search_level']})"
    )
print("the supremum sits on the shifted Pauli word scaled to unit commutator norm")

# -- the Cantor metric table ---------------------------------------------------

gamma, depth = 1.0 / 3.0, 3
filt = cantor(depth)
triple = build_triple(filt, UniformState(), dirac_geometric(gamma, depth))
leaves = list(itertools.product((0, 1), repeat=depth))


def split_level(x, y):
    return next(i for i, (a, b) in enumerate(zip(x, y), start=1) if a != b)


print(f"\npoint distances at depth {depth}, lambda_n = {gamma}^(1-n):")
table = {}
for x, y in itertools.combinations(leaves, 2):
    problem = reduce_search_level(DistanceProblem(triple, CharacterState(x), CharacterState(y)))
    table.setdefault(split_level(x, y), []).append(distance(problem).lower_bound)

for m in sorted(table):
    vals = np.array(table[m])
    print(
        f"  first split at coordinate {m}: {len(vals):2d} pairs, "
        f"value {vals.mean():.8f} (spread {np.ptp(vals):.1e})"
    )
print("values depend only on the first splitting coordinate, as tree symmetry demands")
