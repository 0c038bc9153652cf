import tracemalloc

import numpy as np
import pytest

from afspectral import algebra as al
from afspectral import linalg
from afspectral import triple as tr
from afspectral.errors import DegeneracyError, InvalidInputError, UnsupportedError
from afspectral.linalg import operator_norm

from conftest import random_element

F1 = al.uhf(2, 1)
F3 = al.uhf(2, 3)
C2 = al.cantor(2)


def test_dirac_spec_flags():
    d = tr.dirac_explicit([1, 2, 4])
    assert d.lambdas[0] == 0.0
    assert np.all(np.diff(d.lambdas) > 0) and d.pairwise_distinct
    tied = tr.dirac_explicit([1, 1, 2])
    assert np.all(np.diff(tied.lambdas) >= 0) and not tied.pairwise_distinct
    assert np.allclose(tr.dirac_geometric(1 / 3, 3).lambdas, (0.0, 1.0, 3.0, 9.0))
    assert tr.dirac_power(3.0, 3).lambdas == (0.0, 1.0, 3.0, 9.0)
    with pytest.raises(InvalidInputError):
        tr.dirac_explicit([1, -2])
    with pytest.raises(InvalidInputError):
        tr.dirac_geometric(1.5, 2)


def test_dirac_diagonal_level1(uhf1):
    # grade-major order (identity, sigma_1, sigma_2, sigma_3)
    assert np.allclose(uhf1.d_diag, [0.0, 1.0, 1.0, 1.0])


def test_cantor_multiplicities():
    t = tr.build_triple(C2, al.UniformState(), tr.dirac_explicit([1.0, 3.0]))
    counts = {lam: int(np.sum(t.d_diag == lam)) for lam in (0.0, 1.0, 3.0)}
    assert counts == {0.0: 1, 1.0: 1, 3.0: 2}


def test_trace_of_dirac(uhf3):
    lam = uhf3.lambdas
    grades = uhf3.gns.grades
    expected = sum(lam[n] * int(np.sum(grades == n)) for n in range(4))
    assert uhf3.d_diag.sum() == pytest.approx(expected, abs=1e-12)


def test_represent_identity(uhf3):
    one = al.identity_element(F3, 0)
    assert operator_norm(uhf3.represent(one) - np.eye(uhf3.dim)) < 1e-12


def test_represent_involution(uhf1):
    p = uhf1.represent(al.basis_element(F1, 1, (3,)))
    assert operator_norm(p @ p - np.eye(4)) < 1e-12


def test_represent_homomorphism(uhf3, rng):
    for _ in range(100):
        a = random_element(F3, 2, rng)
        b = random_element(F3, 2, rng)
        pa, pb = uhf3.represent(a), uhf3.represent(b)
        assert operator_norm(uhf3.represent(a * b) - pa @ pb) < 1e-10
        assert operator_norm(uhf3.represent(a.adjoint()) - np.conj(pa).T) < 1e-12


def test_represent_reproduces_coefficients(uhf3, rng):
    a = random_element(F3, 3, rng)
    assert np.allclose(uhf3.vector_of(a), a.coeffs, atol=1e-12)


def test_commutator_of_identity(uhf3):
    one = al.identity_element(F3, 0)
    assert operator_norm(uhf3.commutator(one)) < 1e-14


def test_commutator_scaling_worked_example(uhf1):
    """||[D, beta sigma_3]|| = |beta| lambda_1."""
    s3 = al.basis_element(F1, 1, (3,))
    for beta in (1.0, -0.35, 2.0 + 1.5j):
        val = uhf1.commutator_norm(beta * s3)
        assert val == pytest.approx(abs(beta) * 1.0, abs=1e-10)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_commutator_matched_words(uhf3, n, l):
    """||[D, 1^n (x) sigma_l]|| = lambda_{n+1}."""
    e = al.basis_element(F3, n + 1, (4,) * n + (l,))
    assert uhf3.commutator_norm(e) == pytest.approx(uhf3.lambdas[n + 1], abs=1e-10)


def test_block_norms_sigma3(uhf1):
    bn = uhf1.block_norms(al.basis_element(F1, 1, (3,)))
    assert bn[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert bn[1, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "name", ["uhf2", "uhf3", "cantor1", "cantor2", "cantor3", "cantor4", "product"]
)
def test_grades_are_prefix_ordered(name):
    """Grade <= lev is the first dim(lev) basis vectors: the level slices rely on it."""
    if name == "product":
        filt = al.uhf(2, 3)
        rho = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        dirac = tr.dirac_explicit([1.0, 2.0, 4.0])
        grades = tr.build_triple(filt, al.ProductState([rho] * 3), dirac).gns.grades
    else:
        filt = {"uhf2": al.uhf(2, 3), "uhf3": al.uhf(3, 2)}.get(name) or al.cantor(int(name[-1]))
        grades = al.basis_grades(filt, filt.depth)
    assert np.all(np.diff(grades) >= 0)
    for lev in range(filt.depth + 1):
        assert np.count_nonzero(grades <= lev) == filt.dim(lev)


def test_commutator_diagonal_blocks_vanish(uhf3, rng):
    # every grade-diagonal block of [D, a] vanishes; in particular (n+1, n+1)
    x = random_element(F3, 2, rng)
    comm = uhf3.commutator(x)
    for n in range(4):
        mask = uhf3.grade_mask(n)
        assert np.max(np.abs(comm[np.ix_(mask, mask)]), initial=0.0) < 1e-12


def test_deep_projections_commute_with_shallow_elements(uhf3, rng):
    # x in A_n commutes with Q_k for k > n
    x = random_element(F3, 1, rng)
    px = uhf3.represent(x)
    for k in (2, 3):
        q = uhf3.Q(k)
        assert operator_norm(q @ px - px @ q) < 1e-12


def test_locality(uhf3, rng):
    # a in A_n gives [D, pi(a)] = P_n [D, pi(a)] P_n
    x = random_element(F3, 2, rng)
    comm = uhf3.commutator(x)
    p = sum(uhf3.Q(n) for n in range(3))  # P_2
    assert operator_norm(comm - p @ comm @ p) < 1e-12


def test_commutator_norm_truncation_independent(uhf3, uhf4, rng):
    x3 = random_element(F3, 2, rng)
    x4 = al.AlgebraElement(al.uhf(2, 4), 2, x3.coeffs)
    assert uhf3.commutator_norm(x3) == pytest.approx(uhf4.commutator_norm(x4), abs=1e-9)


def test_spectral_projection_identity(uhf3):
    d = np.diag(uhf3.d_diag)
    for n in range(4):
        q = uhf3.Q(n)
        assert operator_norm(d @ q - uhf3.lambdas[n] * q) < 1e-12
    total = sum(uhf3.Q(n) for n in range(4))
    assert operator_norm(total - np.eye(uhf3.dim)) < 1e-14


def test_projection_algebra_exact(uhf3):
    for i in range(4):
        qi = uhf3.Q(i)
        for j in range(4):
            prod = qi @ uhf3.Q(j)
            expected = qi if i == j else 0 * qi
            assert np.array_equal(prod, expected)


def test_flip_commutator_identity(rng):
    # on C^2: [D, U* a U] = -U* [D, a] U exactly
    d = np.diag([0.0, 1.0]).astype(complex)
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for _ in range(100):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = d @ (np.conj(u).T @ a @ u) - (np.conj(u).T @ a @ u) @ d
        rhs = -np.conj(u).T @ (d @ a - a @ d) @ u
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_build_triple_rejects_nonfaithful():
    with pytest.raises(DegeneracyError):
        tr.build_triple(F1, al.VectorState(al.basis_element(F1, 1, (3,))), tr.dirac_explicit([1.0]))
    rho_singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegeneracyError):
        tr.build_triple(
            al.uhf(2, 2), al.ProductState([rho_singular] * 2), tr.dirac_explicit([1, 2])
        )


def test_build_triple_family_mismatch():
    with pytest.raises(InvalidInputError):
        tr.build_triple(C2, al.TraceState(), tr.dirac_explicit([1, 2]))
    with pytest.raises(InvalidInputError):
        tr.build_triple(F1, al.UniformState(), tr.dirac_explicit([1.0]))


def test_product_state_gns(rng):
    rho = np.array([[0.75, 0.0], [0.0, 0.25]])
    state = al.ProductState([rho, rho])
    f2 = al.uhf(2, 2)
    t = tr.build_triple(f2, state, tr.dirac_explicit([1.0, 2.0]))
    # Gram identity of the orthonormalized graded basis
    basis = [al.AlgebraElement(f2, 2, c) for c in al.decompose(f2, 2, t.gns.stack)]
    gram = np.array(
        [[state.value(a.adjoint() * b) for b in basis] for a in basis]
    )
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10
    # grades still block the Dirac
    assert np.allclose(np.sort(np.unique(t.d_diag)), [0.0, 1.0, 2.0])
    # representation is still a homomorphism
    for _ in range(30):
        a = random_element(f2, 2, rng)
        b = random_element(f2, 2, rng)
        assert operator_norm(t.represent(a * b) - t.represent(a) @ t.represent(b)) < 1e-9


def test_factor_size_three_path(rng):
    # generic single-slot system beyond the k=2 case
    f = al.uhf(3, 1)
    t = tr.build_triple(f, al.TraceState(), tr.dirac_explicit([2.0]))
    assert t.dim == 9
    for j in range(1, 9):
        e = al.basis_element(f, 1, (j,))
        assert t.commutator_norm(e) == pytest.approx(2.0, abs=1e-10)
    for _ in range(10):
        a = random_element(f, 1, rng)
        b = random_element(f, 1, rng)
        assert operator_norm(t.represent(a * b) - t.represent(a) @ t.represent(b)) < 1e-10


@pytest.mark.parametrize("reference", ["trace", "uniform", "product"])
def test_vector_of_is_first_column(reference, uhf3, cantor3, rng):
    if reference == "trace":
        t = uhf3
    elif reference == "uniform":
        t = cantor3
    else:
        rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
        t = tr.build_triple(al.uhf(2, 2), al.ProductState([rho, rho]), tr.dirac_explicit([1.0, 2.0]))
    filt = t.filtration
    for level in range(filt.depth + 1):
        a = random_element(filt, level, rng)
        assert np.max(np.abs(t.vector_of(a) - t.represent(a)[:, 0])) < 1e-10


def test_product_gns_of_half_identity_is_trace_gns(uhf3):
    # rho = I/2 makes every slot Gram matrix the identity: the frames are the slot system
    t = tr.build_triple(F3, al.ProductState([np.eye(2) / 2] * 3), tr.dirac_explicit([1.0, 2.0, 4.0]))
    assert np.max(np.abs(t.gns.stack - uhf3.gns.stack)) < 1e-12
    assert np.max(np.abs(t.gns.dual_stack - uhf3.gns.dual_stack)) < 1e-12


def test_product_frame_of_a_diagonal_density():
    rho = np.diag([0.75, 0.25])
    t = tr.build_triple(F1, al.ProductState([rho]), tr.dirac_explicit([1.0]))
    sigma = al.slot_basis(2)
    one = np.eye(2)
    # identity first: <1, sigma_3> = tr(rho sigma_3) = 1/2 and ||sigma_3 - 1/2||^2 = 3/4
    assert np.max(np.abs(t.gns.stack[0] - one)) < 1e-12
    assert np.max(np.abs(t.gns.stack[3] - (sigma[2] - 0.5 * one) / np.sqrt(0.75))) < 1e-12
    # sigma_1 is already a unit vector orthogonal to the identity
    assert np.max(np.abs(t.gns.stack[1] - sigma[0])) < 1e-12


def _refuse_uhf_stack(*_):
    raise AssertionError("the basis stack was built")


def test_build_triple_refuses_an_oversized_basis_stack(monkeypatch):
    # depth 3: 64 matrices of 8 x 8 complex entries, 65,536 bytes
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", 16 * 64**2 - 1)
    with pytest.raises(UnsupportedError, match=r"depth 3 needs a 0\.0625 MiB basis stack"):
        tr.build_triple(F3, al.TraceState(), tr.dirac_explicit([1.0, 2.0, 4.0]))
    with pytest.raises(UnsupportedError, match=r"depth 7 needs a 0\.25 MiB basis stack, over the 0\.0625 MiB limit"):
        tr.build_triple(al.cantor(7), al.UniformState(), tr.dirac_power(2.0, 7))
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", 16 * 64**2)
    assert tr.build_triple(F3, al.TraceState(), tr.dirac_explicit([1.0, 2.0, 4.0])).dim == 64


def test_build_triple_refuses_uhf_depth7_before_allocation(monkeypatch):
    # uhf depth 7 needs 16384 * 128**2 * 16 bytes (4.3 GB); depth 6 (268 MB) is allowed
    assert 16 * 4096**2 <= linalg.MAX_DENSE_BYTES
    monkeypatch.setattr(al, "_uhf_stack", _refuse_uhf_stack)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedError, match=r"depth 7 needs a 4\.1e\+03 MiB basis stack"):
            tr.build_triple(al.uhf(2, 7), al.TraceState(), tr.dirac_power(2.0, 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
