"""Automorphism classification against the graded Dirac triple.

An automorphism is *unitarily rigid* for a triple when it is implemented on
the representation space by a unitary commuting with the Dirac operator.
For pairwise distinct eigenvalues this holds exactly when the automorphism
preserves every filtration level and the reference state; with tied
eigenvalues only the merged level blocks need to be preserved.  This module
decides membership, enumerates the full tree-automorphism group of the
binary Cantor triple, certifies that on the Cantor set this group is the
whole metric-isometry group, and runs the quantitative experiments that
separate unitary rigidity from plain distance preservation: tensor-slot switches
shift the distance-to-trace of matched vector states, the two-point flip
preserves all distances without commuting with the Dirac operator, and the
one-sided shift stretches commutator norms by an explicit eigenvalue ratio.
"""

import sys
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from . import algebra as al
from . import metric as mt
from . import triple as tr
from .errors import (
    AmbiguousVerdictError,
    InvalidInputError,
    NoUnitaryError,
    PreconditionError,
    UnsupportedError,
)
from .linalg import TOL, norm_exceeds, operator_norm, random_unitary

SWITCH_GAP_MIN = 1e-12  # |1/lambda_1 - 1/lambda_{k+1}| above which a slot switch moves a distance
SHIFT_LAMBDA_SLACK = 1e-12  # rounding allowed in the shift precondition (c+1) lambda_n <= lambda_{n+1}
SHIFT_NORM_SLACK = 1e-9  # rounding allowed between the two sides of a shift commutator-norm bound

# ---------------------------------------------------------------------------
# automorphism specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlotAutomorphism:
    """Tensor-slot permutation, followed by local and block unitaries.

    ``perm[i-1]`` is the destination slot of factor i.  ``locals_`` holds one
    k x k unitary per slot (or None), ``blocks`` a list of (start_slot, U)
    pairs with U unitary on the contiguous group starting there.  Acts as
    conjugation by (block product) (tensor of locals) (permutation operator).
    """

    perm: tuple
    locals_: tuple = None
    blocks: tuple = ()

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise InvalidInputError("perm must be a permutation of 1..N")


def switch(i: int, j: int, n_slots: int) -> SlotAutomorphism:
    """Transposition of tensor factors i and j."""
    if not (1 <= i <= n_slots and 1 <= j <= n_slots):
        raise InvalidInputError(f"switch slots must lie in 1..{n_slots}, got {i} and {j}")
    p = list(range(1, n_slots + 1))
    p[i - 1], p[j - 1] = p[j - 1], p[i - 1]
    return SlotAutomorphism(tuple(p))


@dataclass(frozen=True)
class TreePortrait:
    """Swap bit per internal node of the depth-N binary tree, BFS order."""

    depth: int
    bits: tuple

    def __post_init__(self):
        if len(self.bits) != 2**self.depth - 1:
            raise InvalidInputError(f"portrait needs {2 ** self.depth - 1} bits")
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidInputError("portrait bits must be 0/1")


def odometer_portrait(depth: int) -> TreePortrait:
    """Add-one-with-carry from the first coordinate, as a tree portrait."""
    bits = [0] * (2**depth - 1)
    for g in range(depth):
        node = (1,) * g
        bits[2**g - 1 + al.leaf_index(node)] = 1
    return TreePortrait(depth, tuple(bits))


@dataclass(frozen=True)
class LeafPermutation:
    """Arbitrary permutation of the depth-N leaves (adversarial inputs)."""

    depth: int
    perm: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(2**self.depth)):
            raise InvalidInputError("not a permutation of the leaves")


@dataclass(frozen=True)
class ComposedAutomorphism:
    """Apply ``inner`` first, then ``outer``."""

    outer: object
    inner: object


# -- concrete actions --------------------------------------------------------


def slot_permutation_operator(k: int, perm) -> np.ndarray:
    """Unitary W moving tensor factor i to slot perm[i] on (C^k)^N.

    W permutes the product basis: the digit of factor i moves to digit
    perm[i], which is one transpose of the (k,)*N index grid.
    """
    n = len(perm)
    grid = np.arange(k**n).reshape((k,) * n)
    return np.eye(k**n)[np.transpose(grid, np.argsort(np.asarray(perm) - 1)).reshape(-1)]


def global_unitary(spec: SlotAutomorphism, filtration: al.Filtration) -> np.ndarray:
    """The conjugating unitary V of a slot automorphism at full depth.  Only a
    unitary V makes x -> V x V^H a *-automorphism, so any other is refused."""
    k, n = filtration.k, filtration.depth
    if len(spec.perm) != n:
        raise InvalidInputError("perm length does not match the depth")
    v = slot_permutation_operator(k, spec.perm)
    if spec.locals_ is not None:
        locs = [np.asarray(u, dtype=complex) for u in spec.locals_]
        if len(locs) != n or any(u.shape != (k, k) for u in locs):
            shapes = [u.shape for u in locs]
            raise InvalidInputError(f"spec locals must be {n} {k}x{k} unitaries, got shapes {shapes}")
        loc = np.eye(1, dtype=complex)
        for u in locs:
            loc = np.kron(loc, u)
        v = loc @ v
    for start, u in spec.blocks:
        u = np.asarray(u, dtype=complex)
        width = round(np.log(u.shape[0]) / np.log(k))
        if k**width != u.shape[0] or start < 1 or start + width - 1 > n:
            raise InvalidInputError("block unitary does not fit the slot range")
        emb = np.kron(
            np.kron(np.eye(k ** (start - 1), dtype=complex), u),
            np.eye(k ** (n - start - width + 1), dtype=complex),
        )
        v = emb @ v
    resid = np.max(np.abs(np.conj(v).T @ v - np.eye(len(v))))
    if not resid <= TOL.structural:  # a NaN residual fails too
        raise InvalidInputError(f"spec is not a *-automorphism (residual {resid:.2e})")
    return v


def leaf_permutation_array(spec, depth: int) -> np.ndarray:
    """Materialize a cantor automorphism spec as a permutation of leaf indices."""
    if isinstance(spec, LeafPermutation):
        if spec.depth != depth:
            raise InvalidInputError("leaf permutation depth mismatch")
        return np.asarray(spec.perm)
    if isinstance(spec, TreePortrait):
        if spec.depth != depth:
            raise InvalidInputError("portrait depth mismatch")
        # digit g of a leaf (most significant first) flips by the bit of its depth-g ancestor
        leaves = np.arange(2**depth)
        bits = np.asarray(spec.bits, dtype=int)
        out = leaves.copy()
        for g in range(depth):
            out ^= bits[2**g - 1 + (leaves >> (depth - g))] << (depth - 1 - g)
        return out
    if isinstance(spec, ComposedAutomorphism):
        a = leaf_permutation_array(spec.outer, depth)
        b = leaf_permutation_array(spec.inner, depth)
        return a[b]
    raise InvalidInputError(f"{type(spec).__name__} is not a cantor automorphism spec")


def act(spec, filtration: al.Filtration, mats: np.ndarray) -> np.ndarray:
    """Images of a stack of materialized full-depth elements under the automorphism."""
    if isinstance(spec, ComposedAutomorphism):
        return act(spec.outer, filtration, act(spec.inner, filtration, mats))
    if filtration.family == "uhf":
        if not isinstance(spec, SlotAutomorphism):
            raise InvalidInputError(f"{type(spec).__name__} does not act on uhf filtrations")
        v = global_unitary(spec, filtration)
        return v @ mats @ np.conj(v).T
    g = leaf_permutation_array(spec, filtration.depth)
    out = np.empty_like(mats)
    out[..., g] = mats  # new function value at g(p) is the old value at p
    return out


def apply_automorphism(spec, x: al.AlgebraElement) -> al.AlgebraElement:
    """Image of an element under the automorphism, at full depth."""
    filt = x.filtration
    n = filt.depth
    image = act(spec, filt, x.materialize(n)[None])
    return al.AlgebraElement(filt, n, al.decompose(filt, n, image)[0])


def compose(outer, inner):
    """Structural composition (outer after inner); two portraits compose to a portrait."""
    out = ComposedAutomorphism(outer, inner)
    if isinstance(outer, TreePortrait) and isinstance(inner, TreePortrait):
        n = outer.depth
        return portrait_from_leaf_permutation(leaf_permutation_array(out, n), n)
    return out


def portrait_from_leaf_permutation(perm, depth: int) -> TreePortrait:
    """Recover the portrait of a tree-automorphism permutation; raises otherwise.

    The bit of the j-th depth-g node is digit g of the image of its leftmost leaf.
    """
    arr = np.asarray(perm)
    bits = tuple(
        (int(arr[j << (depth - g)]) >> (depth - 1 - g)) & 1 for g in range(depth) for j in range(2**g)
    )
    cand = TreePortrait(depth, bits)
    if not np.array_equal(leaf_permutation_array(cand, depth), arr):
        raise InvalidInputError("permutation is not a tree automorphism")
    return cand


def invert(spec):
    """Structural inverse of an automorphism spec."""
    if isinstance(spec, TreePortrait):
        inv = np.argsort(leaf_permutation_array(spec, spec.depth))
        return portrait_from_leaf_permutation(inv, spec.depth)
    if isinstance(spec, LeafPermutation):
        inv = np.argsort(np.asarray(spec.perm))
        return LeafPermutation(spec.depth, tuple(int(v) for v in inv))
    if isinstance(spec, SlotAutomorphism):
        ident = tuple(range(1, len(spec.perm) + 1))
        # forward action conjugates by (blocks)(locals)(perm); the inverse
        # conjugates by the adjoint, i.e. blocks first, locals, then perm
        out = SlotAutomorphism(tuple(int(i) + 1 for i in np.argsort(spec.perm)))
        if spec.locals_ is not None:
            adj_locals = tuple(np.conj(np.asarray(u)).T for u in spec.locals_)
            out = ComposedAutomorphism(out, SlotAutomorphism(ident, adj_locals))
        if spec.blocks:
            adj_blocks = tuple((s, np.conj(np.asarray(u)).T) for s, u in reversed(spec.blocks))
            out = ComposedAutomorphism(out, SlotAutomorphism(ident, None, adj_blocks))
        return out
    raise InvalidInputError(f"cannot invert {type(spec).__name__}")


# ---------------------------------------------------------------------------
# verification and verdicts
# ---------------------------------------------------------------------------


def _pair_products(filtration: al.Filtration):
    """The basis pairs (i, j) the residual samples and the coefficients of e_i e_j.

    All pairs when there are at most 400, else 40 seeded random pairs.
    """
    n = filtration.depth
    dim = filtration.dim(n)
    if dim * dim <= 400:
        pairs = [(i, j) for i in range(dim) for j in range(dim)]
    else:
        rng = np.random.default_rng(0)
        pairs = [tuple(rng.integers(0, dim, size=2)) for _ in range(40)]
    i, j = np.array(pairs).T
    stack = al.basis_stack(filtration, n)
    return i, j, al.decompose(filtration, n, al.mat_product(filtration, stack[i], stack[j]))


def automorphism_residual(a: np.ndarray, filtration: al.Filtration):
    """Largest defect of multiplicativity on basis pairs and of *-preservation.

    ``a`` is the coefficient-image matrix of :func:`coefficient_images`; the
    images alpha(e_j) are read back from it.  Multiplicativity is checked on
    all pairs when there are at most 400, else on 40 seeded random pairs;
    *-preservation, ``2 max|Im A|``, on every column.  Verdicts need no
    residual: their specs are *-automorphisms by construction.
    """
    i, j, products = _pair_products(filtration)
    n = filtration.depth
    # alpha(e_i e_j) by linearity through A, against alpha(e_i) alpha(e_j)
    lhs = products @ a.T
    img_i, img_j = (np.tensordot(a.T[idx], al.basis_stack(filtration, n), axes=1) for idx in (i, j))
    rhs = al.decompose(filtration, n, al.mat_product(filtration, img_i, img_j))
    # the basis is self-adjoint, so images must be too: |conj(A) - A| = 2 |Im A|
    # (np.maximum, unlike Python's max, passes a NaN term through)
    return float(np.maximum(np.max(np.abs(lhs - rhs)), 2 * np.max(np.abs(a.imag))))


def coefficient_images(filtration: al.Filtration, image: np.ndarray) -> np.ndarray:
    """Matrix A with column j the canonical coefficients of alpha(e_j), from the
    automorphism's image of the basis stack, ``act(spec, filtration, basis_stack)``."""
    return al.decompose(filtration, filtration.depth, image).T


def filtration_check(a: np.ndarray, filtration: al.Filtration):
    """Per-level truth of "the automorphism maps the level into itself", levels 1..N.

    ``a`` is the coefficient-image matrix of :func:`coefficient_images`.  The
    basis is grade-major, so level lev spans the first m = dim(lev) basis
    elements and its leak is the block ``a[m:, :m]``.
    """
    dims = [filtration.dim(lev) for lev in range(1, filtration.depth + 1)]
    return [bool(np.max(np.abs(a[m:, :m]), initial=0.0) <= TOL.structural) for m in dims]


def implementing_unitary(triple: tr.TruncatedTriple, u: np.ndarray) -> np.ndarray:
    """Unitary sending b xi to alpha(b) xi; exists iff the state is preserved.

    ``u`` is the automorphism's GNS coordinate matrix, ``gns.coordinates(act(
    spec, filtration, gns.stack))``; on the trace and uniform references, whose
    GNS basis is the canonical one, it is :func:`coefficient_images`.  When no
    imaginary part exceeds ``TOL.structural``, as on those self-adjoint bases,
    the unitary is the real part and its checks run in real arithmetic.
    """
    if np.max(np.abs(u.imag)) <= TOL.structural:
        u = u.real.copy()  # contiguous, and the complex array is freed
    eye = np.eye(triple.dim)
    # b_0 is the identity, so row 0 holds ref(alpha(b_j)), which must be ref(b_j) = delta_0j
    if np.max(np.abs(u[0] - eye[0])) > TOL.structural:
        raise NoUnitaryError("automorphism does not preserve the reference state")
    gram = np.conj(u).T @ u
    gram -= eye
    if norm_exceeds(gram, TOL.structural):
        raise NoUnitaryError("induced map is not a unitary")
    return u


@dataclass
class IsoVerdict:
    state_preserved: bool
    filtration_levels_preserved: list
    implementing_unitary: np.ndarray | None
    commutator_residual: float | None
    in_iso: bool

    def to_dict(self):
        return {
            "state_preserved": self.state_preserved,
            "filtration_levels_preserved": self.filtration_levels_preserved,
            "has_unitary": self.implementing_unitary is not None,
            "commutator_residual": self.commutator_residual,
            "in_iso": self.in_iso,
        }


def iso_check(triple: tr.TruncatedTriple, spec) -> IsoVerdict:
    """Decide unitary rigidity of an automorphism for the triple.

    Specs are *-automorphisms by construction (:func:`global_unitary` checks
    a conjugator; leaf permutations and portraits are checked when built), so
    a verdict takes no residual.  One coefficient matrix A per verdict gives
    the level check and, on the trace and uniform references, the real
    implementing unitary; a product-state reference takes the GNS coordinates
    of its own image for the unitary.
    """
    filt, gns = triple.filtration, triple.gns
    a = coefficient_images(filt, act(spec, filt, al.basis_stack(filt, filt.depth)))
    levels = filtration_check(a, filt)
    if isinstance(gns.state, al.ProductState):  # its GNS basis is not the canonical one
        a = gns.coordinates(act(spec, filt, gns.stack))
    try:
        u = implementing_unitary(triple, a)
    except NoUnitaryError:
        return IsoVerdict(False, levels, None, None, False)
    del a
    d = triple.d_diag
    resid = operator_norm(d[:, None] * u - u * d[None, :])
    if TOL.iso_residual < resid < TOL.iso_ambiguous:
        raise AmbiguousVerdictError(
            f"commutation residual {resid:.3e} falls in the guard band",
            float(resid),
            (TOL.iso_residual, TOL.iso_ambiguous),
        )
    return IsoVerdict(True, levels, u, float(resid), resid <= TOL.iso_residual)


def required_levels(dirac: tr.DiracSpec):
    """Levels whose preservation unitary rigidity demands: ends of equal-eigenvalue runs."""
    lam = dirac.lambdas
    out = []
    for n in range(1, len(lam)):
        if n == len(lam) - 1 or lam[n + 1] != lam[n]:
            out.append(n)
    return out


def iso_prediction(triple: tr.TruncatedTriple, verdict: IsoVerdict) -> bool:
    """Membership predicted from state and block-level preservation alone."""
    req = required_levels(triple.dirac)
    return verdict.state_preserved and all(
        verdict.filtration_levels_preserved[n - 1] for n in req
    )


# ---------------------------------------------------------------------------
# group enumeration on the Cantor triple
# ---------------------------------------------------------------------------


def _commuting_leaf_permutations(triple: tr.TruncatedTriple, perms, progress: bool = False):
    """The leaf permutations among ``perms`` whose action commutes with D, and the count scanned.

    D is rotated to the normalized leaf-indicator basis, where a leaf
    permutation g acts by permuting rows and columns; with ``progress`` the
    running count goes to stderr.
    """
    n = triple.depth
    v = al._haar_stack(n).T / np.sqrt(2**n)  # unitary: coefficients -> scaled leaf values
    d_leaf = v @ np.diag(triple.d_diag) @ v.T
    passing, scanned = [], 0
    for scanned, perm in enumerate(perms, start=1):
        g = np.asarray(perm)
        if float(np.max(np.abs(d_leaf[np.ix_(g, g)] - d_leaf))) <= TOL.iso_residual:
            passing.append(perm)
        if progress and scanned % 5040 == 0:
            print(f"scanned {scanned} permutations, {len(passing)} passing", file=sys.stderr)
    return passing, scanned


def _node_flips(depth: int) -> list:
    """Leaf permutations of the 2^depth - 1 node flips (one-bit portraits); they generate the portraits."""
    bit_rows = np.eye(2**depth - 1, dtype=int).tolist()
    return [leaf_permutation_array(TreePortrait(depth, tuple(bits)), depth) for bits in bit_rows]


def enumerate_cantor_iso(
    triple: tr.TruncatedTriple, mode: str = "portraits", progress: bool = False
) -> dict:
    """Count and verify the rigid automorphisms of the Cantor triple.

    ``portraits`` checks that each of the ``generators`` (2^N - 1 node flips,
    depth <= 8) commutes with the Dirac operator, so every one of the
    ``group_order`` portraits does; ``exhaustive`` scans all leaf
    permutations (depth <= 3) and reports how many commute with the Dirac
    operator, which must be exactly the portraits.  With ``progress`` the
    leaf scan reports its count on stderr.
    """
    filt = triple.filtration
    if filt.family != "cantor":
        raise InvalidInputError("enumeration applies to cantor triples")
    n = filt.depth
    report = {"depth": n, "mode": mode, "group_order": 2 ** (2**n - 1)}

    if mode == "portraits":
        if n > 8:
            raise UnsupportedError("portrait enumeration capped at depth 8")
        passing, generators = _commuting_leaf_permutations(triple, _node_flips(n))
        report.update(
            generators=generators,
            passing=len(passing),
            all_pass=len(passing) == generators,
        )
        return report

    if mode == "exhaustive":
        if n > 3:
            raise UnsupportedError("exhaustive leaf scan capped at depth 3")
        passing, scanned = _commuting_leaf_permutations(
            triple, permutations(range(2**n)), progress
        )
        portraits = {
            tuple(leaf_permutation_array(TreePortrait(n, bits), n).tolist())
            for bits in product((0, 1), repeat=2**n - 1)
        }
        report.update(
            scanned=scanned,
            passing=len(passing),
            matches_portraits=set(passing) == portraits,
            elements=sorted(passing),
        )
        return report

    raise InvalidInputError(f"unknown mode {mode!r}")


def cantor_coincidence(gamma: float, depth: int) -> dict:
    """Certify that the rigid group of the Cantor triple is its metric-isometry group.

    On the depth-N triple with D geometric in ``gamma``, portraits ⊆ rigid ⊆
    metric-isometric ⊆ portraits closes when each of the ``generators``, the
    2^N - 1 node flips, commutes with D (``generators_commute``) and the N
    certified ``classes[m]`` intervals are pairwise disjoint
    (``intervals_disjoint``); ``coincide`` says both.  Portraits act
    transitively on the leaf pairs that first differ at coordinate m, so
    their distance is one f(m), certified on 0...0 against the unit word e_m.
    With the f(m) apart, a leaf permutation that keeps distances keeps split
    levels: it is a portrait.  From depth 9 the first distance's commutator
    stack is refused (:class:`UnsupportedError`) before any solve.
    """
    triple = tr.build_triple(al.cantor(depth), al.UniformState(), tr.dirac_geometric(gamma, depth))
    origin = al.CharacterState((0,) * depth)
    classes = {}
    for m in range(1, depth + 1):
        unit = al.CharacterState(tuple(int(i == m - 1) for i in range(depth)))
        res = mt.distance(mt.reduce_search_level(mt.DistanceProblem(triple, origin, unit)))
        classes[m] = {"lower_bound": res.lower_bound, "upper_bound": res.upper_bound}
    passing, generators = _commuting_leaf_permutations(triple, _node_flips(depth))
    intervals = sorted((c["lower_bound"], c["upper_bound"]) for c in classes.values())
    disjoint = all(hi < lo for (_, hi), (lo, _) in zip(intervals, intervals[1:]))
    commute = len(passing) == generators
    return {
        "gamma": gamma,
        "depth": depth,
        "classes": classes,
        "generators": generators,
        "generators_commute": commute,
        "intervals_disjoint": disjoint,
        "coincide": commute and disjoint,
    }


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def switch_iso_violation(triple: tr.TruncatedTriple, k: int, l: int = 3) -> dict:
    """Certified distance gap showing the slot switch 1 <-> k+1 moves a state.

    For v the matched vector of Bloch label ``l`` (:func:`metric.car_vector`),
    d(trace, omega_v) = 1/lambda_1 while d(trace, omega_v o switch) =
    d(trace, omega_{shifted v}) = 1/lambda_{k+1} (``d_before``, ``d_after``:
    certified bounds); a nonzero gap certifies the switch changes a distance.
    """
    filt = triple.filtration
    if filt.family != "uhf" or filt.k != 2:
        raise PreconditionError("switch experiment runs on the uhf k=2 family")
    if not triple.dirac.pairwise_distinct:
        raise PreconditionError("switch experiment requires pairwise distinct eigenvalues")
    if k < 0 or triple.depth < k + 1:
        raise PreconditionError(f"need depth >= {k + 1}")
    lam = triple.lambdas
    before = mt.car_golden_case([float(x) for x in lam[1:]], 0, l)
    after = mt.car_golden_case([float(x) for x in lam[1:]], k, l)
    gap = abs(1.0 / lam[1] - 1.0 / lam[k + 1])
    certified = all(mt.closed(d["upper_bound"], d["lower_bound"]) for d in (before, after))
    return {
        "k": k,
        "label": l,
        "d_before": {key: before[key] for key in ("lower_bound", "upper_bound")},
        "d_after": {key: after[key] for key in ("lower_bound", "upper_bound")},
        "gap": float(gap),
        "violation_certified": bool(certified and gap > SWITCH_GAP_MIN),
    }


def flip_demo(
    d1: float = 0.0,
    d2: float = 1.0,
    n_pairs: int = 100,
    n_elements: int = 100,
    seed: int = 0,
) -> dict:
    """Two-point demo: the flip preserves every distance yet moves the Dirac.

    The algebra is M_2 acting on C^2 with D = diag(d1, d2).  The flip unitary
    U swaps the two basis vectors; [D, U*aU] = -U*[D, a]U holds exactly, so
    conjugation by U preserves all state distances, while [D, U] != 0 keeps
    it outside the unitarily rigid group.  On state pairs with matching
    diagonal parts (the only pairs at finite distance for this Dirac) the
    distance is |c|/|d2 - d1|, c the sigma_1, sigma_2 part of the Bloch
    difference, and :func:`metric.solve` certifies it before and after the
    flip.  ``all_closed``: each pair's two intervals span one
    :func:`metric.closed` interval; ``max_distance_deviation``: the widest
    such span; ``max_bound_vs_analytic``: the largest relative miss of a bound.
    """
    if d1 == d2:
        raise PreconditionError("needs two distinct Dirac eigenvalues")
    rng = np.random.default_rng(seed)
    d = np.diag([d1, d2]).astype(complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    comm = d @ flip - flip @ d

    sigma = al.slot_basis(2)[:3]  # sigma_1, sigma_2, sigma_3
    b_stack = np.stack([d @ s - s @ d for s in sigma[:2]])

    identity_residual = 0.0
    for _ in range(n_elements):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = d @ (np.conj(flip).T @ a @ flip) - (np.conj(flip).T @ a @ flip) @ d
        rhs = -np.conj(flip).T @ (d @ a - a @ d) @ flip
        identity_residual = max(identity_residual, float(np.max(np.abs(lhs - rhs))))

    max_dev = max_rel = 0.0
    all_closed = True
    for _ in range(n_pairs):
        bloch = rng.normal(size=(2, 3))
        bloch /= np.maximum(np.linalg.norm(bloch, axis=1, keepdims=True), 1.0) * 1.001
        bloch[1, 2] = bloch[0, 2]  # equal diagonal parts keep the distance finite
        c = bloch[0] - bloch[1]
        c_flip = c * np.array([1.0, -1.0, -1.0])  # Bloch action of the flip
        bounds = []
        for v in (c, c_flip):
            value, _, upper, _ = mt.solve(v[:2], b_stack)
            bounds += [value, upper]
        lo, hi = min(bounds), max(bounds)
        max_dev = max(max_dev, hi - lo)
        all_closed = all_closed and mt.closed(hi, lo)
        analytic = float(np.hypot(c[0], c[1]) / abs(d2 - d1))
        max_rel = max(max_rel, max(abs(b - analytic) for b in bounds) / analytic)

    return {
        "d1": d1,
        "d2": d2,
        "commutator_operator_norm": operator_norm(comm),
        "commutator_frobenius_norm": float(np.linalg.norm(comm)),
        "flip_outside_rigid_group": operator_norm(comm) > 0.1,
        "identity_residual": identity_residual,
        "n_pairs": n_pairs,
        "max_distance_deviation": max_dev,
        "all_closed": all_closed,
        "max_bound_vs_analytic": max_rel,
    }


def shift_inequality_check(
    triple: tr.TruncatedTriple, x: al.AlgebraElement, n: int, c: float
) -> dict:
    """Commutator stretching under the one-sided shift.

    Whenever (c+1) lambda_n <= lambda_{n+1}, every level-1 element obeys
    ||[D, x]|| <= lambda_1 / (c lambda_n) * ||[D, shift^n(x)]||.
    """
    lam = triple.lambdas
    if c <= 0:
        raise PreconditionError("c must be positive")
    if n < 1 or triple.depth < n + 1:
        raise PreconditionError(f"need depth >= {n + 1}")
    if (c + 1.0) * lam[n] > lam[n + 1] + SHIFT_LAMBDA_SLACK:
        raise PreconditionError("(c+1) lambda_n <= lambda_{n+1} fails")
    if x.level > 1:
        raise InvalidInputError("x must live at level 1")
    lhs = triple.commutator_norm(x)
    shifted = al.shift_embed(x, n)
    rhs = (lam[1] / (c * lam[n])) * triple.commutator_norm(shifted)
    report = {
        "n": n,
        "c": c,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "holds": bool(lhs <= rhs + SHIFT_NORM_SLACK),
    }
    if n == 1 and 2 * lam[1] < lam[2]:
        factor = (lam[2] - lam[1]) / lam[1]
        lhs1 = triple.commutator_norm(al.shift_embed(x, 1))
        report["special_case"] = {
            "factor": float(factor),
            "holds": bool(lhs1 >= factor * lhs - SHIFT_NORM_SLACK),
        }
    return report


# ---------------------------------------------------------------------------
# state pullback and random spec generators (shared by tests, demos, CLI)
# ---------------------------------------------------------------------------


class PulledBackState(al.State):
    """The state x -> base(alpha(x)).

    alpha(e_j) has the coefficient column A[:, j], so the full-depth values
    are the base state's full-depth values times A, from one image of the
    basis stack; a shallower level's values are their prefix.
    """

    def __init__(self, base: al.State, spec):
        self.base = base
        self.spec = spec

    def basis_values(self, filtration, level):
        n = filtration.depth
        a = coefficient_images(filtration, act(self.spec, filtration, al.basis_stack(filtration, n)))
        return (self.base.basis_values(filtration, n) @ a)[: filtration.dim(level)]


def random_local_automorphism(
    filtration: al.Filtration, rng, permute: bool = False
) -> SlotAutomorphism:
    """Random per-slot unitaries; with ``permute`` a random slot shuffle first."""
    n, k = filtration.depth, filtration.k
    perm = (
        tuple(int(v) + 1 for v in rng.permutation(n)) if permute else tuple(range(1, n + 1))
    )
    locs = tuple(random_unitary(k, rng) for _ in range(n))
    return SlotAutomorphism(perm, locs)


def random_block_automorphism(filtration: al.Filtration, rng, width: int = 2) -> SlotAutomorphism:
    """Conjugation by a Haar unitary on a random contiguous slot group."""
    n, k = filtration.depth, filtration.k
    width = min(width, n)
    start = int(rng.integers(1, n - width + 2))
    u = random_unitary(k**width, rng)
    return SlotAutomorphism(tuple(range(1, n + 1)), None, ((start, u),))


def random_portrait(depth: int, rng) -> TreePortrait:
    return TreePortrait(depth, tuple(int(b) for b in rng.integers(0, 2, size=2**depth - 1)))


def random_leaf_permutation(depth: int, rng) -> LeafPermutation:
    return LeafPermutation(depth, tuple(int(v) for v in rng.permutation(2**depth)))
