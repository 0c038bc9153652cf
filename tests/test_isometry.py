from itertools import permutations, product

import numpy as np
import pytest

from afspectral import algebra as al
from afspectral import crossed as cx
from afspectral import isometry as iso
from afspectral import metric as mt
from afspectral import triple as tr
from afspectral.errors import InvalidInputError, NoUnitaryError, PreconditionError
from afspectral.linalg import operator_norm, random_unitary

from conftest import random_element

F2 = al.uhf(2, 2)
F3 = al.uhf(2, 3)
C3 = al.cantor(3)


def _unitary(triple, spec):
    """implementing_unitary on the GNS coordinates of the automorphism's image of the GNS stack."""
    image = iso.act(spec, triple.filtration, triple.gns.stack)
    return iso.implementing_unitary(triple, triple.gns.coordinates(image))


def _images(spec, filt):
    """coefficient_images on the automorphism's image of the basis stack."""
    return iso.coefficient_images(filt, iso.act(spec, filt, al.basis_stack(filt, filt.depth)))


# ---------------------------------------------------------------------------
# implementing unitaries
# ---------------------------------------------------------------------------


def test_identity_implements_identity(uhf3):
    u = _unitary(uhf3, iso.SlotAutomorphism((1, 2, 3)))
    assert operator_norm(u - np.eye(uhf3.dim)) < 1e-12


def test_local_unitaries_implemented(uhf3, rng):
    spec = iso.random_local_automorphism(F3, rng)
    u = _unitary(uhf3, spec)
    assert operator_norm(np.conj(u).T @ u - np.eye(uhf3.dim)) < 1e-10
    # cyclic vector fixed: the identity element is the first basis vector
    assert np.allclose(u[:, 0], np.eye(uhf3.dim)[0], atol=1e-10)
    # intertwines the representation
    for _ in range(10):
        a = random_element(F3, 2, rng)
        lhs = u @ uhf3.represent(a) @ np.conj(u).T
        rhs = uhf3.represent(iso.apply_automorphism(spec, a))
        assert operator_norm(lhs - rhs) < 1e-9


def test_state_breaking_automorphism_has_no_unitary(rng):
    rho = np.array([[0.8, 0.0], [0.0, 0.2]])
    t = tr.build_triple(F2, al.ProductState([rho, rho]), tr.dirac_explicit([1.0, 2.0]))
    flip_first = iso.SlotAutomorphism(
        (1, 2), (al.slot_basis(2)[0], np.eye(2, dtype=complex))
    )
    with pytest.raises(NoUnitaryError):
        _unitary(t, flip_first)
    verdict = iso.iso_check(t, flip_first)
    assert not verdict.state_preserved and not verdict.in_iso
    assert verdict.implementing_unitary is None


def _slot_permutation_loop(k, perm):
    """Reference W: entry (dst, src) is 1 when factor i of src lands in slot perm[i] of dst."""
    n = len(perm)
    w = np.zeros((k**n, k**n))
    for src in product(range(k), repeat=n):
        dst = [0] * n
        for i in range(n):
            dst[perm[i] - 1] = src[i]
        r = 0
        for d in dst:
            r = k * r + d
        s = 0
        for d in src:
            s = k * s + d
        w[r, s] = 1.0
    return w


@pytest.mark.parametrize("k", [2, 3])
def test_slot_permutation_operator_matches_loop(k):
    for n in range(1, 5):
        for perm in permutations(range(1, n + 1)):
            ref = _slot_permutation_loop(k, perm)
            assert np.array_equal(iso.slot_permutation_operator(k, perm), ref), perm


@pytest.mark.parametrize("i, j", [(0, 1), (1, 9), (-1, 2)])
def test_switch_refuses_slots_outside_range(i, j):
    with pytest.raises(InvalidInputError, match=r"switch slots must lie in 1\.\.3"):
        iso.switch(i, j, 3)


# ---------------------------------------------------------------------------
# rigidity verdicts
# ---------------------------------------------------------------------------


def test_switch_not_rigid_with_distinct_eigenvalues(uhf3):
    verdict = iso.iso_check(uhf3, iso.switch(1, 2, 3))
    assert verdict.state_preserved
    assert verdict.filtration_levels_preserved == [False, True, True]
    assert not verdict.in_iso
    assert verdict.commutator_residual > 0.1


def test_local_tensor_automorphism_rigid(uhf3, rng):
    verdict = iso.iso_check(uhf3, iso.random_local_automorphism(F3, rng))
    assert verdict.in_iso
    assert all(verdict.filtration_levels_preserved)


def test_switch_rigid_with_tied_eigenvalues():
    t = tr.build_triple(F3, al.TraceState(), tr.dirac_explicit([1.0, 1.0, 2.0]))
    verdict = iso.iso_check(t, iso.switch(1, 2, 3))
    assert verdict.in_iso
    assert iso.required_levels(t.dirac) == [2, 3]
    assert iso.iso_prediction(t, verdict)


@pytest.mark.parametrize(
    "lam,inside,outside",
    [((1.0, 1.0, 2.0), (1, 2), (2, 3)), ((1.0, 2.0, 2.0), (2, 3), (1, 2))],
)
def test_tied_eigenvalue_patterns(lam, inside, outside):
    t = tr.build_triple(F3, al.TraceState(), tr.dirac_explicit(list(lam)))
    v_in = iso.iso_check(t, iso.switch(*inside, 3))
    v_out = iso.iso_check(t, iso.switch(*outside, 3))
    assert v_in.in_iso and not v_out.in_iso
    assert iso.iso_prediction(t, v_in) and not iso.iso_prediction(t, v_out)


def test_round_trip_equivalence(uhf3, cantor3, rng):
    """Rigidity <=> (state preserved and required levels preserved), mixed sample."""
    cases = []
    for _ in range(12):
        cases.append((uhf3, iso.random_local_automorphism(F3, rng)))
        cases.append((uhf3, iso.random_local_automorphism(F3, rng, permute=True)))
        cases.append((cantor3, iso.random_portrait(3, rng)))
        cases.append((cantor3, iso.random_leaf_permutation(3, rng)))
    for _ in range(4):
        cases.append((uhf3, iso.random_block_automorphism(F3, rng, width=2)))
        cases.append((uhf3, iso.random_block_automorphism(F3, rng, width=3)))
    mismatches = 0
    for triple, spec in cases:
        verdict = iso.iso_check(triple, spec)
        if verdict.in_iso != iso.iso_prediction(triple, verdict):
            mismatches += 1
    assert mismatches == 0


def test_filtration_check_portraits_and_leafperms(cantor3, rng):
    assert all(iso.filtration_check(_images(iso.random_portrait(3, rng), C3), C3))
    assert iso.filtration_check(_images(iso.switch(1, 2, 3), F3), F3) == [False, True, True]
    # leaf permutations: compare against an independent span test
    for _ in range(10):
        spec = iso.random_leaf_permutation(3, rng)
        reported = iso.filtration_check(_images(spec, C3), C3)
        g = iso.leaf_permutation_array(spec, 3)
        for lev, ok in enumerate(reported, start=1):
            # brute subspace check: images of depth-lev indicators must be
            # constant on depth-lev cylinders
            block = 2 ** (3 - lev)
            fine = True
            for cyl in range(2**lev):
                vals = np.zeros(8)
                vals[cyl * block : (cyl + 1) * block] = 1.0
                img = np.empty(8)
                img[g] = vals
                fine &= all(
                    len(set(img[c * block : (c + 1) * block])) == 1 for c in range(2**lev)
                )
            assert ok == fine


def test_invalid_permutation_rejected():
    with pytest.raises(InvalidInputError):
        iso.LeafPermutation(2, (0, 1, 1, 3))


def test_non_finite_spec_fails_automorphism_gate(uhf3):
    # every comparison with NaN is False, so the gate must not read "resid > tol"
    nan = np.full((2, 2), np.nan, dtype=complex)
    eye = np.eye(2, dtype=complex)
    spec = iso.SlotAutomorphism((1, 2, 3), (nan, eye, eye))
    with pytest.raises(InvalidInputError, match=r"not a \*-automorphism"):
        iso.iso_check(uhf3, spec)


def _act_users(spec):
    """Every path that acts with an automorphism spec, on uhf(2, 2)."""
    x = al.basis_element(F2, 2, (1, 2))
    base = tr.build_triple(F2, al.TraceState(), tr.dirac_explicit([1.0, 2.0]))
    lifted = cx.build_lifted(base, cx.TrivialAction(), 3)
    coc = cx.Cocycle(1.0)
    return {
        "apply_automorphism": lambda: iso.apply_automorphism(spec, x),
        "pullback": lambda: iso.PulledBackState(al.TraceState(), spec).basis_values(F2, 2),
        "lifted_unitary": lambda: cx.lifted_unitary(lifted, coc, spec, check_rigidity=False),
        "covariance_check": lambda: cx.covariance_check(
            lifted, coc, spec, "id", cx.CrossedElement({0: x}), check_rigidity=False
        ),
    }


@pytest.mark.parametrize("user", ["apply_automorphism", "pullback", "lifted_unitary",
                                  "covariance_check"])
def test_every_user_of_act_refuses_a_non_automorphism(user):
    # conjugation by 2*identity scales by 4: not multiplicative, so not an automorphism
    spec = iso.SlotAutomorphism((1, 2), None, ((1, 2.0 * np.eye(4)),))
    with pytest.raises(InvalidInputError, match=r"not a \*-automorphism"):
        _act_users(spec)[user]()


@pytest.mark.parametrize(
    "locals_", [(np.eye(3), np.eye(2)), (np.eye(2),)], ids=["3x3-local", "one-local-two-slots"]
)
def test_global_unitary_refuses_locals_that_do_not_fit(locals_):
    spec = iso.SlotAutomorphism((1, 2), locals_)
    with pytest.raises(InvalidInputError, match=r"spec locals must be 2 2x2 unitaries"):
        iso.global_unitary(spec, F2)


def test_group_closure_portraits(cantor3, rng):
    for _ in range(10):
        p1, p2 = iso.random_portrait(3, rng), iso.random_portrait(3, rng)
        assert iso.iso_check(cantor3, iso.compose(p1, p2)).in_iso
        assert iso.iso_check(cantor3, iso.invert(p1)).in_iso


def test_group_closure_slot_automorphisms(uhf3, rng):
    a = iso.random_local_automorphism(F3, rng)
    b = iso.random_local_automorphism(F3, rng)
    assert iso.iso_check(uhf3, iso.compose(a, b)).in_iso
    assert iso.iso_check(uhf3, iso.invert(a)).in_iso
    # inverse actually inverts
    x = random_element(F3, 3, rng)
    back = iso.apply_automorphism(iso.invert(a), iso.apply_automorphism(a, x))
    assert np.max(np.abs(back.coeffs - x.coeffs)) < 1e-10


def test_single_slot_algebras_preserved_by_rigid_autos(uhf3, rng):
    """Rigid automorphisms with distinct eigenvalues respect each tensor slot."""
    idxs = al.canonical_basis(F3, 3)
    for _ in range(20):
        spec = iso.random_local_automorphism(F3, rng)
        assert iso.iso_check(uhf3, spec).in_iso
        a = _images(spec, F3)
        for slot in range(1, 4):
            cols = [
                i
                for i, ix in enumerate(idxs)
                if all(lab == 4 for j, lab in enumerate(ix.word, start=1) if j != slot)
            ]
            rows = [i for i in range(len(idxs)) if i not in cols]
            leak = np.max(np.abs(a[np.ix_(rows, cols)]), initial=0.0)
            assert leak < 1e-10


def test_normalizer_conjugation_leaves_rigid_group():
    """Block-level rigidity is not normal: conjugating a rigid in-block swap by a
    boundary-crossing swap lands outside the rigid group."""
    f4 = al.uhf(2, 4)
    t = tr.build_triple(f4, al.TraceState(), tr.dirac_explicit([1.0, 1.0, 2.0, 2.0]))
    alpha = iso.switch(3, 4, 4)  # inside the second eigenvalue block
    beta = iso.switch(2, 3, 4)  # crosses the block boundary
    assert iso.iso_check(t, alpha).in_iso
    conj = iso.compose(iso.compose(beta, alpha), iso.invert(beta))
    verdict = iso.iso_check(t, conj)
    assert not verdict.in_iso


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_depth2():
    t = tr.build_triple(al.cantor(2), al.UniformState(), tr.dirac_explicit([1.0, 2.0]))
    rep = iso.enumerate_cantor_iso(t, mode="exhaustive")
    assert rep["passing"] == 8 == rep["group_order"]
    assert rep["scanned"] == 24
    assert rep["matches_portraits"]
    identity = tuple(range(4))
    assert identity in set(rep["elements"])


def test_enumeration_portraits_depth3(cantor3):
    rep = iso.enumerate_cantor_iso(cantor3, mode="portraits")
    assert rep["generators"] == 7 == rep["passing"] and rep["group_order"] == 128
    assert rep["all_pass"]


@pytest.mark.parametrize("depth", [2, 3])
def test_composition_and_semidirect_checks(depth):
    """Deepest-level swaps form a normal subgroup complemented by shallower portraits."""
    rng = np.random.default_rng(0)
    n_deep = 2 ** (depth - 1)
    n_shallow = 2 ** (depth - 1) - 1
    for _ in range(25):
        deep = iso.TreePortrait(depth, (0,) * n_shallow + tuple(rng.integers(0, 2, size=n_deep)))
        any_p = iso.TreePortrait(depth, tuple(rng.integers(0, 2, size=2**depth - 1)))
        conj = iso.compose(iso.compose(any_p, deep), iso.invert(any_p))
        assert all(b == 0 for b in conj.bits[:n_shallow])
        # the quotient projection (forget deepest bits) must be a homomorphism
        prod = iso.compose(any_p, deep)
        assert prod.bits[:n_shallow] == any_p.bits[:n_shallow]


def test_portrait_from_leaf_permutation_roundtrip(rng):
    p = iso.random_portrait(3, rng)
    g = iso.leaf_permutation_array(p, 3)
    assert iso.portrait_from_leaf_permutation(g, 3) == p
    # swapping two leaves under different parents is not a tree automorphism
    with pytest.raises(InvalidInputError):
        iso.portrait_from_leaf_permutation((2, 1, 0, 3, 4, 5, 6, 7), 3)


def _portrait_leaf_loop(p):
    """Reference: walk each leaf word down the tree, flipping by the bit of each node visited."""
    out = []
    for word in product((0, 1), repeat=p.depth):
        node, image = (), []
        for w in word:
            image.append(w ^ p.bits[2 ** len(node) - 1 + al.leaf_index(node)])
            node += (w,)
        out.append(al.leaf_index(image))
    return np.array(out)


def test_portrait_leaf_arrays_match_word_loop(rng):
    portraits = [iso.TreePortrait(n, bits) for n in (1, 2, 3)
                 for bits in product((0, 1), repeat=2**n - 1)]
    portraits += [iso.random_portrait(4, rng) for _ in range(50)]
    for p in portraits:
        g = iso.leaf_permutation_array(p, p.depth)
        assert np.array_equal(g, _portrait_leaf_loop(p)), p
        assert iso.portrait_from_leaf_permutation(g, p.depth) == p


# ---------------------------------------------------------------------------
# switch violation experiment
# ---------------------------------------------------------------------------


def test_switch_violation_gaps(uhf3):
    rep1 = iso.switch_iso_violation(uhf3, 1)
    assert rep1["gap"] == pytest.approx(0.5)
    assert rep1["violation_certified"]
    rep2 = iso.switch_iso_violation(uhf3, 2)
    assert rep2["gap"] == pytest.approx(0.75)
    assert rep2["violation_certified"]
    rep0 = iso.switch_iso_violation(uhf3, 0)
    assert rep0["gap"] == 0.0 and not rep0["violation_certified"]


def test_switch_violation_needs_distinct_eigenvalues():
    t = tr.build_triple(F3, al.TraceState(), tr.dirac_explicit([1.0, 1.0, 2.0]))
    with pytest.raises(PreconditionError):
        iso.switch_iso_violation(t, 1)


def test_switch_violation_rejects_bad_label(uhf3):
    for label in (0, 4):
        with pytest.raises(InvalidInputError, match="label must be 1, 2 or 3"):
            iso.switch_iso_violation(uhf3, 1, label)


# ---------------------------------------------------------------------------
# flip demo
# ---------------------------------------------------------------------------


def test_flip_demo_report():
    rep = iso.flip_demo(n_pairs=60, n_elements=60)
    assert rep["commutator_operator_norm"] == pytest.approx(1.0, abs=1e-12)
    assert rep["commutator_frobenius_norm"] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep["flip_outside_rigid_group"]
    assert rep["identity_residual"] < 1e-14
    assert rep["max_distance_deviation"] <= 1e-6
    assert rep["all_closed"]
    assert rep["max_bound_vs_analytic"] <= 1e-12


def test_flip_demo_other_eigenvalues():
    rep = iso.flip_demo(d1=-1.5, d2=2.0, n_pairs=30, n_elements=30)
    assert rep["commutator_operator_norm"] == pytest.approx(3.5, abs=1e-12)
    assert rep["max_distance_deviation"] <= 1e-6
    assert rep["all_closed"]
    assert rep["max_bound_vs_analytic"] <= 1e-12


@pytest.mark.parametrize("d2", [1e-3, 1e4])
def test_flip_demo_bounds_hold_across_scales(d2):
    """Both certified bounds of every pair, before and after the flip, lie
    within 1e-12 (relative) of |c|/|d2 - d1|, also where the distances are of
    order 1e3 or 1e-4."""
    rep = iso.flip_demo(d1=0.0, d2=d2, n_pairs=30, n_elements=30)
    assert rep["commutator_operator_norm"] == pytest.approx(d2, rel=1e-12)
    assert rep["all_closed"]
    assert rep["max_bound_vs_analytic"] <= 1e-12


def test_flip_demo_rejects_equal_eigenvalues():
    with pytest.raises(PreconditionError):
        iso.flip_demo(d1=1.0, d2=1.0)


# ---------------------------------------------------------------------------
# shift inequality
# ---------------------------------------------------------------------------


def test_shift_inequality_random_elements(rng):
    t = tr.build_triple(F3, al.TraceState(), tr.dirac_power(3.0, 3))
    for n in (1, 2):
        for _ in range(50):
            x = random_element(F3, 1, rng)
            rep = iso.shift_inequality_check(t, x, n, 2.0)
            assert rep["holds"]
            if n == 1:
                assert rep["special_case"]["holds"]


def test_shift_inequality_identity_trivial():
    t = tr.build_triple(F3, al.TraceState(), tr.dirac_power(3.0, 3))
    one = al.identity_element(F3, 0).embed(1)
    rep = iso.shift_inequality_check(t, one, 1, 2.0)
    assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0 and rep["holds"]


def test_shift_inequality_admissibility_guard():
    t = tr.build_triple(F3, al.TraceState(), tr.dirac_explicit([1.0, 2.0, 4.0]))
    x = al.basis_element(F3, 1, (3,))
    with pytest.raises(PreconditionError):
        iso.shift_inequality_check(t, x, 1, 2.0)  # (2+1)*1 > 2


# ---------------------------------------------------------------------------
# certified Cantor coincidence
# ---------------------------------------------------------------------------


def test_m_invariance_depth2():
    rep = iso.cantor_coincidence(1 / 3, 2)
    assert sorted(rep["classes"]) == [1, 2]
    assert rep["generators"] == 3 and rep["generators_commute"]
    assert rep["intervals_disjoint"] and rep["coincide"]
    assert all(mt.closed(c["upper_bound"], c["lower_bound"]) for c in rep["classes"].values())
    assert rep["classes"][2]["upper_bound"] < rep["classes"][1]["lower_bound"]


def test_near_tied_eigenvalues_raise_ambiguity():
    # residuals between the pass threshold and the fail band must not be classified
    t = tr.build_triple(F2, al.TraceState(), tr.dirac_explicit([1.0, 1.0 + 1e-5]))
    with pytest.raises(iso.AmbiguousVerdictError):
        iso.iso_check(t, iso.switch(1, 2, 2))


def test_enumeration_caps():
    t4 = tr.build_triple(al.cantor(4), al.UniformState(), tr.dirac_power(2.0, 4))
    with pytest.raises(iso.UnsupportedError):
        iso.enumerate_cantor_iso(t4, mode="exhaustive")
    rep = iso.enumerate_cantor_iso(t4, mode="portraits")
    assert rep["generators"] == 15 and rep["all_pass"] and rep["group_order"] == 2**15
    # the node flips generate every portrait, so no depth needs sampling
    t5 = tr.build_triple(al.cantor(5), al.UniformState(), tr.dirac_power(2.0, 5))
    rep = iso.enumerate_cantor_iso(t5, mode="portraits")
    assert rep["generators"] == 31 and rep["all_pass"] and rep["group_order"] == 2**31
    t9 = tr.build_triple(al.cantor(9), al.UniformState(), tr.dirac_power(2.0, 9))
    with pytest.raises(iso.UnsupportedError, match="capped at depth 8"):
        iso.enumerate_cantor_iso(t9, mode="portraits")


# ---------------------------------------------------------------------------
# batched automorphism action against single-element application
# ---------------------------------------------------------------------------


def _product_triple():
    rho = np.array([[0.7, 0.0], [0.0, 0.3]])
    return tr.build_triple(F2, al.ProductState([rho, rho]), tr.dirac_explicit([1.0, 2.0]))


def _diagonal_phases(filtration, rng):
    """Local diagonal unitaries: they fix every product state with diagonal densities."""
    n = filtration.depth
    locs = tuple(np.diag(np.exp(2j * np.pi * rng.uniform(size=2))) for _ in range(n))
    return iso.SlotAutomorphism(tuple(range(1, n + 1)), locs)


def _batched_case(case, uhf3, cantor3, rng):
    if case == "trace-local":
        return uhf3, iso.random_local_automorphism(F3, rng, permute=True)
    if case == "product-phases":
        t = _product_triple()
        return t, _diagonal_phases(t.filtration, rng)
    if case == "cantor-portrait":
        return cantor3, iso.random_portrait(3, rng)
    return cantor3, iso.random_leaf_permutation(3, rng)


BATCHED_CASES = ["trace-local", "product-phases", "cantor-portrait", "cantor-leafperm"]


@pytest.mark.parametrize("case", BATCHED_CASES)
def test_implementing_unitary_intertwines(case, uhf3, cantor3, rng):
    """u pi(a) u* = pi(alpha(a)), and column j of u is alpha(b_j) xi."""
    triple, spec = _batched_case(case, uhf3, cantor3, rng)
    filt = triple.filtration
    u = _unitary(triple, spec)
    assert operator_norm(np.conj(u).T @ u - np.eye(triple.dim)) < 1e-10
    basis = al.decompose(filt, filt.depth, triple.gns.stack)
    for j, b in enumerate(al.AlgebraElement(filt, filt.depth, c) for c in basis):
        column = triple.vector_of(iso.apply_automorphism(spec, b))
        assert np.max(np.abs(u[:, j] - column)) < 1e-10
    for _ in range(5):
        a = random_element(filt, filt.depth, rng)
        lhs = u @ triple.represent(a) @ np.conj(u).T
        rhs = triple.represent(iso.apply_automorphism(spec, a))
        assert operator_norm(lhs - rhs) < 1e-10


@pytest.mark.parametrize("case", BATCHED_CASES)
def test_coefficient_images_match_single_elements(case, uhf3, cantor3, rng):
    triple, spec = _batched_case(case, uhf3, cantor3, rng)
    filt = triple.filtration
    n = filt.depth
    a = _images(spec, filt)
    for j, e in enumerate(np.eye(filt.dim(n))):
        image = iso.apply_automorphism(spec, al.AlgebraElement(filt, n, e))
        assert np.max(np.abs(a[:, j] - image.coeffs)) < 1e-10


@pytest.mark.parametrize("filt", [F2, al.cantor(2)], ids=["uhf", "cantor"])
def test_automorphism_residual_flags_non_automorphisms(filt, rng):
    """Batched residual against the element-by-element defect of multiplicativity."""
    n = filt.depth
    if filt.family == "uhf":
        # conjugation by 2*identity scales by 4, so alpha(ab) = alpha(a) alpha(b) / 4;
        # act refuses that conjugator, so the map and its coefficient matrix are built here
        spec = iso.SlotAutomorphism((1, 2), None, ((1, 2.0 * np.eye(4)),))
        a = 4.0 * np.eye(filt.dim(n), dtype=complex)

        def alpha(x):
            return x * 4.0
    else:
        spec = iso.random_portrait(2, rng)
        a = _images(spec, filt)

        def alpha(x):
            return iso.apply_automorphism(spec, x)
    units = [al.AlgebraElement(filt, n, e) for e in np.eye(filt.dim(n))]
    images = [alpha(e) for e in units]
    expected = 0.0
    for i, x in enumerate(units):
        for j, y in enumerate(units):
            defect = alpha(x * y) - images[i] * images[j]
            expected = max(expected, float(np.max(np.abs(defect.coeffs))))
    for img in images:
        expected = max(expected, float(np.max(np.abs((img.adjoint() - img).coeffs))))
    residual = iso.automorphism_residual(a, filt)
    assert residual == pytest.approx(expected, abs=1e-10)
    if filt.family == "uhf":
        assert expected > 1.0
        with pytest.raises(InvalidInputError):
            iso.iso_check(tr.build_triple(filt, al.TraceState(), tr.dirac_explicit([1.0, 2.0])), spec)


# ---------------------------------------------------------------------------
# one image per verdict against the separately called checks
# ---------------------------------------------------------------------------


def _specs(filt, rng):
    """Portrait and leafperm specs (cantor); local, permuted-local, switch and global-block (uhf)."""
    n = filt.depth
    if filt.family == "cantor":
        return {"portrait": iso.random_portrait(n, rng), "leafperm": iso.random_leaf_permutation(n, rng)}
    return {
        "local": iso.random_local_automorphism(filt, rng),
        "permuted-local": iso.random_local_automorphism(filt, rng, permute=True),
        "switch": iso.switch(1, 2, n),
        "global-block": iso.SlotAutomorphism(
            tuple(range(1, n + 1)), None, ((1, random_unitary(filt.k ** min(n, 3), rng)),)
        ),
    }


@pytest.mark.parametrize("name", ["uhf3", "cantor3", "uhf4", "product-phases"])
def test_iso_check_equals_separate_checks_bitwise(name, request, rng):
    """iso_check's one image gives bit for bit what the four public checks give alone."""
    triple = _product_triple() if name == "product-phases" else request.getfixturevalue(name)
    filt = triple.filtration
    specs = _specs(filt, rng)
    if name == "product-phases":
        specs["phases"] = _diagonal_phases(filt, rng)
    for kind, spec in specs.items():
        verdict = iso.iso_check(triple, spec)
        a = _images(spec, filt)
        assert iso.automorphism_residual(a, filt) <= 1e-10, kind
        assert verdict.filtration_levels_preserved == iso.filtration_check(a, filt), kind
        try:
            u = _unitary(triple, spec)
        except NoUnitaryError:
            assert verdict.implementing_unitary is None and not verdict.state_preserved, kind
            continue
        assert np.array_equal(verdict.implementing_unitary, u), kind
        d = triple.d_diag
        resid = operator_norm(d[:, None] * u - u * d[None, :])
        assert verdict.commutator_residual == resid, kind


def test_star_check_covers_every_column(rng):
    """A non-self-adjoint image outside every sampled pair and product is caught."""
    i, j, products = iso._pair_products(F3)
    sampled = set(i) | set(j) | set(np.flatnonzero(np.abs(products).max(axis=0) > 0))
    col = min(set(range(F3.dim(3))) - sampled)
    a = np.real(_images(iso.random_local_automorphism(F3, rng), F3)) + 0j
    assert iso.automorphism_residual(a, F3) <= 1e-10
    a[:, col] += 1e-6j
    assert iso.automorphism_residual(a, F3) >= 2e-6


@pytest.mark.parametrize("name", ["uhf3", "cantor3", "uhf4", "product-phases"])
def test_implementing_unitary_is_real_on_self_adjoint_bases(name, request, rng):
    """Real unitaries on the trace and uniform bases; the commutation residual
    agrees with the one taken from the complex coordinate matrix."""
    triple = _product_triple() if name == "product-phases" else request.getfixturevalue(name)
    filt, d = triple.filtration, triple.d_diag
    specs = {"phases": _diagonal_phases(filt, rng)} if name == "product-phases" else _specs(filt, rng)
    for kind, spec in specs.items():
        verdict = iso.iso_check(triple, spec)
        if verdict.implementing_unitary is None:
            continue
        u = verdict.implementing_unitary
        assert u.dtype == (complex if name == "product-phases" else np.float64), kind
        coords = triple.gns.coordinates(iso.act(spec, filt, triple.gns.stack))
        ref = operator_norm(d[:, None] * coords - coords * d[None, :])
        r = verdict.commutator_residual
        assert abs(r - ref) <= 1e-14 * max(1.0, r), kind


@pytest.mark.parametrize(
    "filt", [F2, F3, al.uhf(2, 4), al.uhf(3, 2), C3, al.cantor(4)],
    ids=["uhf2", "uhf3", "uhf4", "uhf3x2", "cantor3", "cantor4"],
)
def test_pair_products_are_basis_products(filt):
    i, j, products = iso._pair_products(filt)
    for first, again in zip((i, j, products), iso._pair_products(filt)):
        assert np.array_equal(first, again)  # seeded: the same pairs on every call
    n = filt.depth
    assert len(i) == (filt.dim(n) ** 2 if filt.dim(n) ** 2 <= 400 else 40)
    # each row is the coefficient vector of the product of two basis elements
    for row in range(0, len(i), max(1, len(i) // 10)):
        ei = al.AlgebraElement(filt, n, np.eye(filt.dim(n))[i[row]])
        ej = al.AlgebraElement(filt, n, np.eye(filt.dim(n))[j[row]])
        assert np.max(np.abs((ei * ej).coeffs - products[row])) < 1e-12
