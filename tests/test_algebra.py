import numpy as np
import pytest

from afspectral import algebra as al
from afspectral.errors import InvalidInputError

from conftest import random_element

F1 = al.uhf(2, 1)
F2 = al.uhf(2, 2)
F3 = al.uhf(2, 3)
C2 = al.cantor(2)
C3 = al.cantor(3)


# ---------------------------------------------------------------------------
# canonical bases
# ---------------------------------------------------------------------------


def test_uhf_level1_grades():
    idxs = al.canonical_basis(F1, 1)
    assert [ix.grade for ix in idxs] == [0, 1, 1, 1]
    assert idxs[0].word == ()


def test_uhf_level2_counts():
    idxs = al.canonical_basis(F2, 2)
    assert len(idxs) == 16
    # oracle: words whose last non-identity slot is 2
    expected = sum(
        1
        for a in range(1, 5)
        for b in range(1, 5)
        if b != 4
    )
    assert sum(1 for ix in idxs if ix.grade == 2) == expected == 12


def test_cantor_level2_structure():
    idxs = al.canonical_basis(C2, 2)
    assert len(idxs) == 4
    assert [ix.grade for ix in idxs] == [0, 1, 2, 2]
    assert idxs[1].word == ()  # wavelet at the root
    assert {ix.word for ix in idxs if ix.grade == 2} == {(0,), (1,)}


def test_basis_is_prefix_across_levels():
    assert al.canonical_basis(F3, 2) == al.canonical_basis(F2, 2)
    small = al.canonical_basis(F3, 2)
    assert al.canonical_basis(F3, 3)[: len(small)] == small


def test_basis_orthonormal_under_reference():
    stack = al._uhf_stack(2, 2)
    gram = np.einsum("iab,jab->ij", np.conj(stack), stack) / 4.0
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12
    h = al._haar_stack(3)
    gram_h = h @ h.T / 8.0
    assert np.max(np.abs(gram_h - np.eye(8))) < 1e-12


def test_slot_basis_k3_orthonormal():
    s = al.slot_basis(3)
    gram = np.einsum("iab,jab->ij", np.conj(s), s) / 3.0
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12
    for m in s:
        assert np.max(np.abs(m - np.conj(m).T)) < 1e-12


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_pauli_relation():
    s1 = al.basis_element(F1, 1, (1,))
    s2 = al.basis_element(F1, 1, (2,))
    s3 = al.basis_element(F1, 1, (3,))
    prod = s1 * s2
    assert np.allclose(prod.coeffs, 1j * s3.coeffs, atol=1e-14)


def test_identity_neutral(rng):
    a = random_element(F2, 2, rng)
    out = al.identity_element(F2, 0) * a
    assert np.allclose(out.coeffs, a.coeffs, atol=1e-14)


def test_multiply_matches_dense_product(rng):
    a = random_element(F2, 2, rng)
    b = random_element(F2, 2, rng)
    dense = a.materialize() @ b.materialize()
    assert np.max(np.abs((a * b).materialize() - dense)) < 1e-12


def test_multiply_associative(rng):
    a, b, c = (random_element(F2, 2, rng) for _ in range(3))
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10


def test_multiply_filtration_mismatch():
    a = al.identity_element(F2, 0)
    b = al.identity_element(C2, 0)
    with pytest.raises(InvalidInputError):
        al.multiply(a, b)


def test_grade_additivity(rng):
    a = random_element(F3, 2, rng)
    b = random_element(F3, 3, rng)
    assert (a * b).grade <= max(a.grade, b.grade)


def test_cantor_multiplication_pointwise(rng):
    f = random_element(C3, 3, rng)
    g = random_element(C3, 3, rng)
    assert np.max(np.abs((f * g).materialize() - f.materialize() * g.materialize())) < 1e-12


def test_cantor_indicators_idempotent():
    # depth-n indicators multiply diagonally: 1_U 1_V = delta_{UV} 1_U
    inds = [al.from_values(C2, 2, np.eye(4)[i]) for i in range(4)]
    for i, p in enumerate(inds):
        for j, q in enumerate(inds):
            prod = (p * q).materialize()
            expected = np.eye(4)[i] if i == j else np.zeros(4)
            assert np.max(np.abs(prod - expected)) < 1e-12


def test_wavelets_integrate_to_zero():
    idxs = al.canonical_basis(C3, 3)
    mu = al.UniformState()
    for pos, ix in enumerate(idxs):
        e = al.AlgebraElement(C3, 3, np.eye(8, dtype=complex)[pos])
        val = mu.value(e)
        assert abs(val - (1.0 if ix.grade == 0 else 0.0)) < 1e-14


# ---------------------------------------------------------------------------
# conditional expectation and shift
# ---------------------------------------------------------------------------


def test_conditional_expectation_kills_deep_words():
    x = al.basis_element(F2, 2, (3, 3))
    assert np.max(np.abs(al.conditional_expectation(x, 1).coeffs)) == 0.0


def test_conditional_expectation_keeps_shallow_words():
    x = al.basis_element(F2, 2, (3,))
    out = al.conditional_expectation(x, 1)
    assert out.level == 1
    assert np.allclose(out.coeffs, al.basis_element(F2, 1, (3,)).coeffs)


def test_conditional_expectation_trace_preserving(rng):
    x = random_element(F3, 3, rng)
    tr_state = al.TraceState()
    assert tr_state.value(al.conditional_expectation(x, 2)) == pytest.approx(
        tr_state.value(x), abs=1e-14
    )


def test_conditional_expectation_idempotent_unital(rng):
    x = random_element(F3, 3, rng)
    e2 = al.conditional_expectation(x, 2)
    again = al.conditional_expectation(e2.embed(3), 2)
    assert np.allclose(e2.coeffs, again.coeffs)
    one = al.identity_element(F3, 0).embed(3)
    assert np.allclose(al.conditional_expectation(one, 1).coeffs,
                       al.identity_element(F3, 0).embed(1).coeffs)


def test_conditional_expectation_positive(rng):
    for _ in range(20):
        x = random_element(F2, 2, rng)
        sq = x.adjoint() * x
        e = al.conditional_expectation(sq, 1)
        w = np.linalg.eigvalsh(e.materialize())
        assert w.min() > -1e-10


def test_conditional_expectation_level_error(rng):
    with pytest.raises(InvalidInputError):
        al.conditional_expectation(random_element(F2, 1, rng), 2)


def test_shift_embed_basics():
    s3 = al.basis_element(F2, 1, (3,))
    shifted = al.shift_embed(s3, 1)
    assert shifted.level == 2
    idxs = al.canonical_basis(F2, 2)
    nz = np.nonzero(np.abs(shifted.coeffs) > 1e-14)[0]
    assert len(nz) == 1 and idxs[nz[0]].word == (4, 3)
    same = al.shift_embed(s3, 0)
    assert np.allclose(same.coeffs, s3.coeffs)


def test_shift_embed_trace_invariant(rng):
    x = random_element(F3, 1, rng)
    tr_state = al.TraceState()
    assert tr_state.value(al.shift_embed(x, 2)) == pytest.approx(tr_state.value(x), abs=1e-14)


def test_shift_embed_overflow():
    with pytest.raises(InvalidInputError):
        al.shift_embed(al.basis_element(F2, 1, (3,)), 2)


def test_shift_embed_cantor_tiles_values(rng):
    f = random_element(C3, 1, rng)
    shifted = al.shift_embed(f, 2)
    assert np.allclose(shifted.materialize(), np.tile(f.materialize(), 4))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_matched_vector_state_pattern():
    v = al.from_matrix(F1, 1, np.array([[0.0, np.sqrt(2.0)], [0.0, 0.0]]))
    phi = al.VectorState(v)
    values = [phi.value(al.basis_element(F1, 1, (j,))) for j in (1, 2, 3)]
    assert abs(values[0]) < 1e-12 and abs(values[1]) < 1e-12
    assert values[2] == pytest.approx(1.0, abs=1e-12)
    assert phi.value(al.identity_element(F1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_trace_kills_positive_grades():
    t = al.TraceState()
    for word in ((1,), (3,), (4, 2)):
        lev = len(word)
        assert abs(t.value(al.basis_element(F2, lev, word))) < 1e-14


def test_character_on_cylinder_indicator():
    ch = al.CharacterState((0, 1))
    u0 = al.from_values(C2, 1, [1.0, 0.0])
    assert ch.value(u0) == pytest.approx(1.0)
    u1 = al.from_values(C2, 1, [0.0, 1.0])
    assert ch.value(u1) == pytest.approx(0.0)


def test_character_rejects_uhf():
    with pytest.raises(InvalidInputError):
        al.CharacterState((0, 1)).value(al.identity_element(F2, 0))


def test_vector_state_normalization_enforced():
    v = al.from_matrix(F1, 1, np.array([[0.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        al.VectorState(v)


def test_shifted_vector_state_matches_switch_pullback(rng):
    """omega_{shift^k v} = omega_v o (slot switch 1 <-> k+1) on random elements."""
    from afspectral import isometry as iso

    k = 1
    v = random_element(F3, 1, rng)
    nrm = al.TraceState().value(v.adjoint() * v)
    v = v * (1.0 / np.sqrt(nrm.real))
    shifted_state = al.VectorState(al.shift_embed(v, k))
    base_state = al.VectorState(v)
    sw = iso.switch(1, k + 1, 3)
    for _ in range(50):
        x = random_element(F3, 3, rng)
        lhs = shifted_state.value(x)
        rhs = base_state.value(iso.apply_automorphism(sw, x))
        assert abs(lhs - rhs) < 1e-10


def test_states_positive_on_squares(rng):
    rho = np.array([[0.6, 0.1 + 0.05j], [0.1 - 0.05j, 0.4]])
    states = [
        (al.TraceState(), F2, 2),
        (al.VectorState(al.basis_element(F2, 1, (3,))), F2, 2),
        (al.ProductState([rho, rho]), F2, 2),
        (al.UniformState(), C3, 3),
        (al.CharacterState((0, 1, 1)), C3, 3),
    ]
    for state, filt, lev in states:
        for _ in range(100):
            x = random_element(filt, lev, rng)
            val = state.value(x.adjoint() * x)
            assert val.real >= -1e-12 and abs(val.imag) < 1e-12


def test_en_contraction_of_state_pairing(rng):
    """|tr(x) - phi_v(x)| is unchanged by the level-n expectation, v at level n."""
    v = random_element(F3, 2, rng)
    nrm = al.TraceState().value(v.adjoint() * v)
    phi = al.VectorState(v * (1.0 / np.sqrt(nrm.real)))
    t = al.TraceState()
    for _ in range(20):
        x = random_element(F3, 3, rng)
        ex = al.conditional_expectation(x, 2)
        assert abs(t.value(x) - phi.value(x)) == pytest.approx(
            abs(t.value(ex) - phi.value(ex)), abs=1e-10
        )


# ---------------------------------------------------------------------------
# embed and adjoint
# ---------------------------------------------------------------------------


def test_adjoint_is_conjugation(rng):
    x = random_element(F2, 2, rng)
    assert np.allclose(x.adjoint().coeffs, np.conj(x.coeffs))
    assert np.max(np.abs(x.adjoint().materialize() - np.conj(x.materialize()).T)) < 1e-12


def test_vanishing_levels():
    assert al.vanishing_level(al.TraceState(), F3) == 0
    v = al.from_matrix(F3, 1, np.array([[0.0, np.sqrt(2.0)], [0.0, 0.0]]))
    assert al.vanishing_level(al.VectorState(v), F3) == 1
    # a unitary conjugation of the trace is the trace again: level 0
    assert al.vanishing_level(al.VectorState(al.basis_element(F3, 1, (3,))), F3) == 0
    assert al.vanishing_level(al.CharacterState((0, 0, 0)), C3) == 3


# ---------------------------------------------------------------------------
# basis values: one evaluation path for every state
# ---------------------------------------------------------------------------

RHO_A = np.array([[0.6, 0.1 + 0.05j], [0.1 - 0.05j, 0.4]])
RHO_B = np.array([[0.3, -0.2j], [0.2j, 0.7]])


def _unit_vector(filt, level, rng):
    v = random_element(filt, level, rng)
    ref = al.TraceState() if filt.family == "uhf" else al.UniformState()
    return v * (1.0 / np.sqrt(ref.value(v.adjoint() * v).real))


def _dense_pair(v, x):
    """v and x materialized at the deeper of their levels, deficit slots filled with the identity."""
    lev = max(v.level, x.level)
    return v.materialize(lev), x.materialize(lev)


def _dense_vector_uhf(v):
    def value(x):
        vm, xm = _dense_pair(v, x)
        return np.trace(np.conj(vm).T @ xm @ vm) / len(vm)

    return value


def _dense_vector_cantor(v):
    def value(x):
        vm, xm = _dense_pair(v, x)
        return np.mean(np.abs(vm) ** 2 * xm)

    return value


def _dense_character(word):
    return lambda x: x.materialize()[al.leaf_index(word[: x.level])]


def _dense_product(densities):
    def value(x):
        rho = np.eye(1)
        for d in densities[: x.level]:
            rho = np.kron(rho, d)
        return np.trace(rho @ x.materialize())

    return value


def _dense_pullback(filt, spec, base_dense):
    """base(alpha(x)) with alpha(x) from the conjugating unitary or the leaf permutation."""
    from afspectral import isometry as iso

    n = filt.depth

    def value(x):
        xm = x.materialize(n)
        if filt.family == "uhf":
            u = iso.global_unitary(spec, filt)
            image = u @ xm @ np.conj(u).T
        else:
            image = np.empty_like(xm)
            image[iso.leaf_permutation_array(spec, n)] = xm
        return base_dense(al.AlgebraElement(filt, n, al.decompose(filt, n, image)))

    return value


def _state_cases(rng):
    """(name, state, filtration, dense definition of its value)."""
    from afspectral import isometry as iso

    v_uhf = _unit_vector(F3, 2, rng)
    v_cantor = _unit_vector(C3, 2, rng)
    base = al.VectorState(v_uhf)
    spec_uhf = iso.random_local_automorphism(F3, rng, permute=True)
    spec_cantor = iso.random_portrait(3, rng)
    return [
        ("trace", al.TraceState(), F3, lambda x: np.trace(x.materialize()) / 2**x.level),
        ("uniform", al.UniformState(), C3, lambda x: np.mean(x.materialize())),
        ("vector-uhf", al.VectorState(v_uhf), F3, _dense_vector_uhf(v_uhf)),
        ("vector-cantor", al.VectorState(v_cantor), C3, _dense_vector_cantor(v_cantor)),
        ("character", al.CharacterState((1, 0, 1)), C3, _dense_character((1, 0, 1))),
        ("product", al.ProductState([RHO_A, RHO_B, RHO_A]), F3,
         _dense_product([RHO_A, RHO_B, RHO_A])),
        ("pullback-uhf", iso.PulledBackState(base, spec_uhf), F3,
         _dense_pullback(F3, spec_uhf, _dense_vector_uhf(v_uhf))),
        ("pullback-cantor", iso.PulledBackState(al.CharacterState((0, 1, 1)), spec_cantor), C3,
         _dense_pullback(C3, spec_cantor, _dense_character((0, 1, 1)))),
    ]


def test_state_values_match_dense_definitions(rng):
    for name, state, filt, dense in _state_cases(rng):
        for level in range(filt.depth + 1):
            for _ in range(3):
                x = random_element(filt, level, rng)
                got, want = state.value(x), complex(dense(x))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, level)


def test_basis_values_are_prefixes(rng):
    for name, state, filt, _ in _state_cases(rng):
        values = [state.basis_values(filt, level) for level in range(filt.depth + 1)]
        for level, vals in enumerate(values):
            assert vals.dtype == complex and vals.shape == (filt.dim(level),), name
            for deeper in values[level:]:
                assert np.max(np.abs(deeper[: len(vals)] - vals)) <= 1e-14, (name, level)


def test_state_evaluation_errors(rng):
    v = _unit_vector(F3, 1, rng)
    cases = [
        (al.TraceState(), C3, 1, "trace applies to uhf filtrations"),
        (al.UniformState(), F3, 1, "uniform measure applies to cantor filtrations"),
        (al.VectorState(v), F2, 1, "filtration mismatch"),
        (al.CharacterState((0, 1)), F3, 1, "characters apply to cantor filtrations"),
        (al.CharacterState((0, 1)), C3, 3, "character word of length 2 cannot evaluate level 3"),
        (al.ProductState([RHO_A]), C3, 1, "product states apply to uhf filtrations"),
        (al.ProductState([RHO_A]), F3, 2, "not enough densities for the requested level"),
        (al.TraceState(), F3, 4, "level 4 outside 0..3"),
        (al.VectorState(v), F3, 4, "level 4 outside 0..3"),
        (al.ProductState([RHO_A] * 3), F3, 4, "level 4 outside 0..3"),
        (al.UniformState(), C3, 4, "level 4 outside 0..3"),
        (al.CharacterState((0, 1, 1)), C3, -1, "level -1 outside 0..3"),
    ]
    for state, filt, level, message in cases:
        with pytest.raises(InvalidInputError, match=message):
            state.basis_values(filt, level)
        if 0 <= level <= filt.depth:
            with pytest.raises(InvalidInputError, match=message):
                state.value(al.identity_element(filt, level))


def _vanishing_level_by_elements(state, filt):
    n = filt.depth
    m = 0
    for pos, ix in enumerate(al.canonical_basis(filt, n)):
        e = al.AlgebraElement(filt, n, np.eye(filt.dim(n))[pos])
        if ix.grade > 0 and abs(state.value(e)) > 1e-12:
            m = max(m, ix.grade)
    return m


def test_vanishing_level_matches_element_loop(rng):
    states = [(state, filt) for _, state, filt, _ in _state_cases(rng)]
    for level in range(4):
        states.append((al.VectorState(_unit_vector(F3, level, rng)), F3))
        states.append((al.VectorState(_unit_vector(C3, level, rng)), C3))
    states.append((al.VectorState(al.shift_embed(al.basis_element(F3, 1, (3,)), 2)), F3))
    levels = set()
    for state, filt in states:
        got = al.vanishing_level(state, filt)
        assert got == _vanishing_level_by_elements(state, filt)
        levels.add(got)
    assert levels == {0, 1, 2, 3}
