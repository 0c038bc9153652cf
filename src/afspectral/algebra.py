"""Finite truncations of two filtered operator-algebra families.

Two families are modeled:

* ``uhf``   -- tensor powers of a full matrix algebra M_k.  Level n is
  M_k^(x n), of dimension k^(2n), with the normalized trace as reference
  state.  The canonical basis tensors a fixed self-adjoint orthonormal
  single-slot system (for k = 2 the Pauli matrices with the identity last).
* ``cantor`` -- locally constant functions on the binary sequence space.
  Level n is C^(2^n) (functions constant on depth-n cylinders) with the
  uniform measure as reference state and the Haar system as canonical basis.

Every basis index carries a *grade*: the deepest slot (or node depth) where
it differs from the identity.  Level-n truncations embed in level-m ones
(n <= m) as the grade <= n coefficient subspace, and the canonical ordering
is grade-major, so the level-n basis is literally a prefix of the level-m
basis.  All higher modules rely on that prefix property.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import InvalidInputError
from .linalg import TOL

# ---------------------------------------------------------------------------
# filtrations and basis indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Filtration:
    """A filtered-algebra family truncated at ``depth`` levels."""

    family: str  # "uhf" or "cantor"
    depth: int
    k: int = 2  # single-slot matrix size; only meaningful for "uhf"

    def __post_init__(self):
        if self.family not in ("uhf", "cantor"):
            raise InvalidInputError(f"unknown family {self.family!r}")
        if self.family == "uhf" and self.k < 2:
            raise InvalidInputError("uhf factor size must be >= 2")
        if self.depth < 1:
            raise InvalidInputError("depth must be >= 1")

    def dim(self, level: int) -> int:
        """Linear dimension of the level-n algebra."""
        self._check_level(level)
        return self.k ** (2 * level) if self.family == "uhf" else 2**level

    def _check_level(self, level: int):
        if not (0 <= level <= self.depth):
            raise InvalidInputError(f"level {level} outside 0..{self.depth}")


def uhf(k: int, depth: int) -> Filtration:
    return Filtration("uhf", depth, k)


def cantor(depth: int) -> Filtration:
    return Filtration("cantor", depth)


@dataclass(frozen=True)
class BasisIndex:
    """Canonical basis label.

    For ``uhf`` the word lists 1-based slot labels up to the last
    non-identity slot (label k*k is the identity slot and never trails).
    For ``cantor`` the word is the node address of a Haar wavelet; the
    scaling function is the unique grade-0 index with empty word.
    """

    word: tuple
    grade: int


@lru_cache(maxsize=None)
def _uhf_indices(k: int, level: int):
    out = [BasisIndex((), 0)]
    ident = k * k
    for g in range(1, level + 1):
        words = sorted(
            w for w in product(range(1, ident + 1), repeat=g) if w[-1] != ident
        )
        out.extend(BasisIndex(w, g) for w in words)
    return tuple(out)


@lru_cache(maxsize=None)
def _cantor_indices(level: int):
    out = [BasisIndex((), 0)]
    for g in range(1, level + 1):
        for node in sorted(product((0, 1), repeat=g - 1)):
            out.append(BasisIndex(node, g))
    return tuple(out)


def canonical_basis(filtration: Filtration, level: int):
    """Ordered basis indices at a level, sorted by (grade, word)."""
    filtration._check_level(level)
    if filtration.family == "uhf":
        return _uhf_indices(filtration.k, level)
    return _cantor_indices(level)


# ---------------------------------------------------------------------------
# single-slot system and materialization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def slot_basis(k: int) -> np.ndarray:
    """Self-adjoint single-slot basis, orthonormal for the normalized trace.

    Order: off-diagonal symmetric pairs, off-diagonal antisymmetric pairs,
    traceless diagonal combinations, identity last.  For k = 2 this is
    exactly (sigma_1, sigma_2, sigma_3, identity).
    """
    mats = []
    s = np.sqrt(k / 2.0)
    for i in range(k):
        for j in range(i + 1, k):
            m = np.zeros((k, k), dtype=complex)
            m[i, j] = m[j, i] = s
            mats.append(m)
    for i in range(k):
        for j in range(i + 1, k):
            m = np.zeros((k, k), dtype=complex)
            m[i, j] = -1j * s
            m[j, i] = 1j * s
            mats.append(m)
    for l in range(1, k):
        m = np.zeros((k, k), dtype=complex)
        scale = np.sqrt(k / (l * (l + 1.0)))
        for mm in range(l):
            m[mm, mm] = scale
        m[l, l] = -l * scale
        mats.append(m)
    mats.append(np.eye(k, dtype=complex))
    return np.stack(mats)


def kron_words(k: int, frames) -> np.ndarray:
    """Kronecker products of per-slot frames over the canonical uhf words.

    ``frames[s]`` is the (k*k, k, k) single-slot system of tensor slot s,
    identity last; row j of the result materializes level-``len(frames)``
    basis index j, its word padded with identity slots.
    """
    level = len(frames)
    ident = k * k
    words = np.ones((1, 1, 1), dtype=complex)
    for f in frames:
        words = np.kron(words, f)  # row order: slot labels, first slot most significant
    idxs = _uhf_indices(k, level)
    labels = np.array(
        [ix.word + (ident,) * (level - len(ix.word)) for ix in idxs], dtype=int
    ).reshape(len(idxs), level)
    return words[(labels - 1) @ ident ** np.arange(level - 1, -1, -1)]


@lru_cache(maxsize=None)
def _uhf_stack(k: int, level: int) -> np.ndarray:
    """Stacked materializations of the level-n uhf basis, shape (dim, k^n, k^n)."""
    return kron_words(k, (slot_basis(k),) * level)


@lru_cache(maxsize=None)
def _haar_stack(level: int) -> np.ndarray:
    """Haar system as leaf-value rows, shape (2^n, 2^n); rows follow the index order."""
    n_leaves = 2**level
    idxs = _cantor_indices(level)
    out = np.zeros((len(idxs), n_leaves), dtype=float)
    out[0, :] = 1.0
    for pos, ix in enumerate(idxs[1:], start=1):
        g = ix.grade
        amp = 2 ** ((g - 1) / 2.0)
        node_val = 0
        for b in ix.word:
            node_val = 2 * node_val + b
        span = 2 ** (level - g)  # leaves per child cylinder
        start = node_val * 2 * span
        out[pos, start : start + span] = amp
        out[pos, start + span : start + 2 * span] = -amp
    return out


def basis_stack(filtration: Filtration, level: int) -> np.ndarray:
    """Materialized level-n basis: (dim, k^n, k^n) matrices (uhf) or (dim, 2^n) leaf values (cantor)."""
    filtration._check_level(level)
    if filtration.family == "uhf":
        return _uhf_stack(filtration.k, level)
    return _haar_stack(level)


def decompose(filtration: Filtration, level: int, mats) -> np.ndarray:
    """Canonical coefficients of a materialized element or stack; inverts materialization.

    The basis is orthonormal for the reference state, so this is one product
    with the conjugated :func:`basis_stack`; leading axes of ``mats`` are kept.
    """
    stack = basis_stack(filtration, level)
    m = np.asarray(mats, dtype=complex)
    lead = m.shape[: m.ndim - stack.ndim + 1]
    if m.shape[len(lead) :] != stack.shape[1:]:
        raise InvalidInputError(f"element shape {m.shape}, expected (..., {stack.shape[1:]})")
    flat = np.conj(stack).reshape(len(stack), -1)
    coeffs = m.reshape(-1, flat.shape[1]) @ flat.T
    coeffs /= stack.shape[1]
    return coeffs.reshape(*lead, len(stack))


def mat_product(filtration: Filtration, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of materialized elements (broadcasting over stacks): matrix or pointwise."""
    return x @ y if filtration.family == "uhf" else x * y


def leaf_index(word) -> int:
    """Leaf position of a full-depth binary word, most significant bit first."""
    v = 0
    for b in word:
        v = 2 * v + int(b)
    return v


# ---------------------------------------------------------------------------
# algebra elements
# ---------------------------------------------------------------------------


@dataclass
class AlgebraElement:
    """Coefficient vector over the canonical basis of one truncation level."""

    filtration: Filtration
    level: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        dim = self.filtration.dim(self.level)
        if self.coeffs.shape != (dim,):
            raise InvalidInputError(
                f"coefficient vector has shape {self.coeffs.shape}, expected ({dim},)"
            )

    # -- structure ---------------------------------------------------------

    @property
    def grade(self) -> int:
        idxs = canonical_basis(self.filtration, self.level)
        nz = np.nonzero(np.abs(self.coeffs) > 1e-14)[0]
        return int(idxs[nz[-1]].grade) if len(nz) else 0

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.filtration, self.level, np.conj(self.coeffs))

    def embed(self, level: int) -> "AlgebraElement":
        """View at a deeper level; the grade-major order makes this a zero-pad."""
        if level < self.level:
            raise InvalidInputError("embed target below current level")
        self.filtration._check_level(level)
        out = np.zeros(self.filtration.dim(level), dtype=complex)
        out[: len(self.coeffs)] = self.coeffs
        return AlgebraElement(self.filtration, level, out)

    # -- arithmetic ----------------------------------------------------------

    def _common(self, other):
        if self.filtration != other.filtration:
            raise InvalidInputError("filtration mismatch")
        lev = max(self.level, other.level)
        return self.embed(lev), other.embed(lev), lev

    def __add__(self, other):
        a, b, lev = self._common(other)
        return AlgebraElement(self.filtration, lev, a.coeffs + b.coeffs)

    def __sub__(self, other):
        a, b, lev = self._common(other)
        return AlgebraElement(self.filtration, lev, a.coeffs - b.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement(self.filtration, self.level, self.coeffs * complex(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    # -- materialization -----------------------------------------------------

    def materialize(self, level: int | None = None) -> np.ndarray:
        """Dense form: a k^n x k^n matrix (uhf) or a leaf-value vector (cantor)."""
        lev = self.level if level is None else level
        x = self.embed(lev) if lev != self.level else self
        return np.tensordot(x.coeffs, basis_stack(self.filtration, lev), axes=1)


def identity_element(filtration: Filtration, level: int = 0) -> AlgebraElement:
    c = np.zeros(filtration.dim(level), dtype=complex)
    c[0] = 1.0
    return AlgebraElement(filtration, level, c)


def basis_element(filtration: Filtration, level: int, word) -> AlgebraElement:
    idxs = canonical_basis(filtration, level)
    target = tuple(word)
    c = np.zeros(len(idxs), dtype=complex)
    for pos, ix in enumerate(idxs):
        if ix.word == target:
            c[pos] = 1.0
            return AlgebraElement(filtration, level, c)
    raise InvalidInputError(f"word {target} not in level-{level} basis")


def from_matrix(filtration: Filtration, level: int, mat) -> AlgebraElement:
    """Decompose a dense k^n x k^n matrix over the canonical uhf basis."""
    if filtration.family != "uhf":
        raise InvalidInputError("from_matrix applies to uhf filtrations")
    return AlgebraElement(filtration, level, decompose(filtration, level, mat))


def from_values(filtration: Filtration, level: int, values) -> AlgebraElement:
    """Decompose a leaf-value vector over the Haar basis."""
    if filtration.family != "cantor":
        raise InvalidInputError("from_values applies to cantor filtrations")
    return AlgebraElement(filtration, level, decompose(filtration, level, values))


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Algebra product; bilinear and associative, via dense materialization."""
    x, y, lev = a._common(b)
    prod = mat_product(a.filtration, x.materialize(), y.materialize())
    return AlgebraElement(a.filtration, lev, decompose(a.filtration, lev, prod))


def conditional_expectation(x: AlgebraElement, level: int) -> AlgebraElement:
    """Reference-state averaging onto the level-n subalgebra.

    Keeps exactly the grade <= n coefficients; idempotent, unital, positive,
    and trace preserving.
    """
    if level > x.level:
        raise InvalidInputError("target level above the element's level")
    dim = x.filtration.dim(level)
    return AlgebraElement(x.filtration, level, x.coeffs[:dim].copy())


def shift_embed(x: AlgebraElement, n: int) -> AlgebraElement:
    """Prepend ``n`` identity slots (new leading tensor legs or tree levels)."""
    if n < 0:
        raise InvalidInputError("shift count must be >= 0")
    lev = x.level + n
    if lev > x.filtration.depth:
        raise InvalidInputError("shift exceeds the truncation depth")
    if n == 0:
        return AlgebraElement(x.filtration, x.level, x.coeffs.copy())
    if x.filtration.family == "uhf":
        k = x.filtration.k
        mat = np.kron(np.eye(k**n, dtype=complex), x.materialize())
        return from_matrix(x.filtration, lev, mat)
    vals = np.tile(x.materialize(), 2**n)
    return from_values(x.filtration, lev, vals)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


class State:
    """Positive unital linear functional, given by its values on the canonical basis.

    A subclass implements :meth:`basis_values`; :meth:`value` extends it
    linearly.  The level-n basis is a prefix of every deeper one, so the
    level-m values are a prefix of the level-n values for m <= n.
    """

    def basis_values(self, filtration: Filtration, level: int) -> np.ndarray:
        """Complex values on the level-``level`` canonical basis, in basis order."""
        raise NotImplementedError

    def value(self, x: AlgebraElement) -> complex:
        return complex(self.basis_values(x.filtration, x.level) @ x.coeffs)


class TraceState(State):
    """Normalized trace on a uhf filtration: 1 on the identity, 0 on every other basis element."""

    def basis_values(self, filtration, level):
        if filtration.family != "uhf":
            raise InvalidInputError("trace applies to uhf filtrations")
        return identity_element(filtration, level).coeffs


class UniformState(State):
    """Uniform measure on a cantor filtration: 1 on the scaling function, 0 on the wavelets."""

    def basis_values(self, filtration, level):
        if filtration.family != "cantor":
            raise InvalidInputError("uniform measure applies to cantor filtrations")
        return identity_element(filtration, level).coeffs


class VectorState(State):
    """State a -> <v xi, a v xi> in the reference representation.

    ``v`` is a level-n element normalized so the reference state gives
    ref(v* v) = 1.  Basis elements and ``v`` are materialized at the deeper
    of the two levels (deficit tensor slots filled with the identity), and
    the value on e_i is tr(v* e_i v) / k^n (uhf) or the mean of
    |v|^2 e_i over the leaves (cantor).
    """

    def __init__(self, v: AlgebraElement):
        self.v = v
        self.level = v.level
        norm = self.value(identity_element(v.filtration, 0))
        if abs(norm - 1.0) > TOL.structural:
            raise InvalidInputError(f"vector not normalized: ref(v*v) = {norm}")

    def basis_values(self, filtration, level):
        if filtration != self.v.filtration:
            raise InvalidInputError("filtration mismatch")
        lev = max(self.level, level)
        vm = self.v.materialize(lev)
        stack = basis_stack(filtration, lev)[: filtration.dim(level)]
        if filtration.family == "uhf":
            return np.trace(np.conj(vm).T @ stack @ vm, axis1=1, axis2=2) / len(vm)
        return np.mean(np.conj(vm) * stack * vm, axis=1)


class CharacterState(State):
    """Point evaluation at the sequence starting with ``word`` (cantor only).

    Its basis values are the leaf column of the Haar stack.
    """

    def __init__(self, word):
        self.word = tuple(int(b) for b in word)
        if any(b not in (0, 1) for b in self.word):
            raise InvalidInputError("character word must be binary")

    def basis_values(self, filtration, level):
        if filtration.family != "cantor":
            raise InvalidInputError("characters apply to cantor filtrations")
        if level > len(self.word):
            raise InvalidInputError(
                f"character word of length {len(self.word)} cannot evaluate level {level}"
            )
        leaf = leaf_index(self.word[:level])
        return basis_stack(filtration, level)[:, leaf].astype(complex)


class ProductState(State):
    """Tensor product of single-slot densities on a uhf filtration: e_i -> tr(rho e_i)."""

    def __init__(self, densities):
        self.densities = [np.asarray(d, dtype=complex) for d in densities]
        for d in self.densities:
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise InvalidInputError("densities must be square matrices")
            if np.max(np.abs(d - np.conj(d).T)) > 1e-12:
                raise InvalidInputError("densities must be Hermitian")
            if abs(np.trace(d) - 1.0) > 1e-12:
                raise InvalidInputError("densities must have unit trace")
            if np.min(np.linalg.eigvalsh(d)) < -1e-12:
                raise InvalidInputError("densities must be positive")

    def is_faithful_reference(self):
        return all(np.min(np.linalg.eigvalsh(d)) > 1e-12 for d in self.densities)

    def density(self, level: int) -> np.ndarray:
        if level > len(self.densities):
            raise InvalidInputError("not enough densities for the requested level")
        rho = np.eye(1, dtype=complex)
        for d in self.densities[:level]:
            rho = np.kron(rho, d)
        return rho

    def basis_values(self, filtration, level):
        if filtration.family != "uhf":
            raise InvalidInputError("product states apply to uhf filtrations")
        stack = basis_stack(filtration, level)
        # tr(rho e_i) = sum_jk e_i[j, k] rho[k, j]
        return stack.reshape(len(stack), -1) @ self.density(level).T.reshape(-1)


def basis_grades(filtration: Filtration, level: int) -> np.ndarray:
    """Grade of each level-``level`` canonical basis index, in basis order."""
    return np.array([ix.grade for ix in canonical_basis(filtration, level)])


def vanishing_level(state: State, filtration: Filtration) -> int:
    """Smallest m with state(e) = 0 for every full-depth basis index of grade > m."""
    n = filtration.depth
    nonzero = np.abs(state.basis_values(filtration, n)) > 1e-12
    return int(np.max(basis_grades(filtration, n)[nonzero], initial=0))
