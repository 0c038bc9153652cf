import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from afspectral import algebra as al
from afspectral.errors import InvalidInputError
from afspectral import linalg
from afspectral.linalg import norm_exceeds, operator_norm, random_unitary


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([2.0, -3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_operator_norm_rank_one():
    m = np.array([[0.0, np.sqrt(2.0)], [0.0, 0.0]])
    assert operator_norm(m) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_operator_norm_kron_multiplicative(rng):
    # oracle: full SVD of the Kronecker product itself
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    direct = operator_norm(np.kron(a, b))
    assert direct == pytest.approx(operator_norm(a) * operator_norm(b), abs=1e-10)


def test_operator_norm_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_operator_norm_of_a_stack_is_the_direct_sum_norm(rng):
    stack = rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5))
    direct_sum = np.zeros((12, 20), dtype=complex)
    for i, m in enumerate(stack):
        direct_sum[3 * i:3 * (i + 1), 5 * i:5 * (i + 1)] = m
    assert operator_norm(stack) == pytest.approx(operator_norm(direct_sum), abs=1e-12)
    assert operator_norm(stack) == max(operator_norm(m) for m in stack)
    assert operator_norm(np.zeros((0, 3, 3))) == 0.0
    stack[2, 1, 4] = np.inf
    with pytest.raises(InvalidInputError):
        operator_norm(stack)
    with pytest.raises(InvalidInputError):
        operator_norm(np.zeros((2, 2, 2, 2)))


def test_operator_norm_real_input_stays_real(rng, monkeypatch):
    svd, seen = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a.dtype) or svd(a, **kw))
    for shape in ((6, 4), (3, 5, 5)):
        m = rng.normal(size=shape)
        real = operator_norm(m)
        complex_cast = operator_norm(m.astype(complex))
        assert seen[-2:] == [np.float64, np.complex128]
        assert abs(real - complex_cast) <= 1e-15 * complex_cast
    assert operator_norm(np.eye(3, dtype=int) * 2) == 2.0
    for bad in (np.nan, np.inf):
        for shape in ((3, 3), (2, 3, 3)):
            m = np.zeros(shape)
            m.flat[4] = bad
            with pytest.raises(InvalidInputError):
                operator_norm(m)
    assert operator_norm(np.zeros((0, 3))) == 0.0
    assert operator_norm(np.zeros((0, 3, 3))) == 0.0


def test_operator_norm_unitary_invariance(rng):
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    u = random_unitary(5, rng)
    v = random_unitary(5, rng)
    assert operator_norm(u @ m @ v) == pytest.approx(operator_norm(m), abs=1e-10)
    assert operator_norm(np.conj(m).T) == pytest.approx(operator_norm(m), abs=1e-12)
    assert operator_norm(2.5j * m) == pytest.approx(2.5 * operator_norm(m), abs=1e-10)


def test_commutator_spectrum_real_for_selfadjoint(uhf3, rng):
    # i [D, x] is Hermitian when x is self-adjoint
    x = al.AlgebraElement(al.uhf(2, 3), 2, rng.normal(size=16))
    h = 1j * uhf3.commutator(x)
    assert operator_norm(h - np.conj(h).T) < 1e-12 * max(operator_norm(h), 1.0)
    w = np.linalg.eigvalsh(h)
    assert np.all(np.isreal(w))


# ---------------------------------------------------------------------------
# the Frobenius gate in front of the SVD threshold test
# ---------------------------------------------------------------------------

TOL_GATE = 1e-10


def _counting_svd(monkeypatch):
    """Count the SVD fall-throughs of norm_exceeds."""
    calls = []

    def counted(m):
        calls.append(1)
        return operator_norm(m)

    monkeypatch.setattr(linalg, "operator_norm", counted)
    return calls


def test_gate_falls_through_when_frobenius_exceeds(monkeypatch):
    # ||delta I_64||_F = 8 delta = 4 tol, above tol; the spectral norm tol/2 is below it
    m = (TOL_GATE / 2) * np.eye(64)
    calls = _counting_svd(monkeypatch)
    assert np.linalg.norm(m) > TOL_GATE and operator_norm(m) < TOL_GATE
    assert norm_exceeds(m, TOL_GATE) is False
    assert len(calls) == 1


def test_gate_rank_one_deviation(rng):
    u = rng.normal(size=32) + 1j * rng.normal(size=32)
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    dev = np.outer(u, np.conj(v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    for scale in (3.0, 1.01, 0.99, 0.3):
        m = scale * TOL_GATE * dev
        assert norm_exceeds(m, TOL_GATE) == (operator_norm(m) > TOL_GATE) == (scale > 1)


def test_gate_matches_svd_on_a_sweep(monkeypatch, rng):
    calls = _counting_svd(monkeypatch)
    skipped = 0
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(1, 40, size=2))
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        m *= TOL_GATE * 10 ** rng.uniform(-1.5, 0.5) / np.linalg.norm(m)
        before = len(calls)
        assert norm_exceeds(m, TOL_GATE) == (operator_norm(m) > TOL_GATE)
        skipped += len(calls) == before
    # the sweep straddles tol: some cases are settled by the Frobenius norm alone
    assert 0 < skipped < 200


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gate_rejects_nonfinite(bad):
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = bad
    with pytest.raises(InvalidInputError):
        norm_exceeds(m, TOL_GATE)


def test_every_tolerance_is_read_outside_the_table():
    """Each ``Tolerances`` field is read as ``TOL.<name>`` in some package
    module other than linalg.py, so a field a deletion leaves behind fails."""
    package = Path(linalg.__file__).parent
    text = "".join(p.read_text() for p in sorted(package.glob("*.py")) if p.name != "linalg.py")
    names = [f.name for f in dataclasses.fields(linalg.Tolerances)]
    assert [n for n in names if not re.search(rf"\bTOL\.{n}\b", text)] == []
