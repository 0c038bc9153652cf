"""Reference-state representation with a grade-diagonal Dirac operator.

The level-N algebra acts by left multiplication on the completion of itself
under <a, b> = ref(a* b).  The canonical basis is orthonormal for the trace
and the uniform measure.  For product states each tensor slot's system,
identity first, is orthonormalized in closed form: with the slot Gram matrix
G = L L^H (Cholesky), the frame is the system times L^{-H}, which is what
Gram-Schmidt in that order gives, so the graded structure stays intact.
Ordering is grade-major, so the projection P_n onto the span of elements of
grade <= n is a leading principal block and the Dirac operator

    D = sum_n lambda_n Q_n,     Q_n = P_n - P_{n-1},  lambda_0 = 0,

is diagonal with entry lambda_{grade} on each basis vector.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra as al
from .errors import DegeneracyError, InvalidInputError
from .linalg import check_dense_bytes, operator_norm

# ---------------------------------------------------------------------------
# Dirac eigenvalue sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiracSpec:
    """Eigenvalue sequence lambda_0 = 0 < lambda_1, ..., lambda_N."""

    lambdas: tuple  # includes the leading 0

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam[0] != 0.0:
            raise InvalidInputError("lambda_0 must be 0")
        if len(lam) < 2 or np.any(lam[1:] <= 0) or not np.all(np.isfinite(lam)):
            raise InvalidInputError("lambda_n must be positive and finite for n >= 1")

    @property
    def depth(self) -> int:
        return len(self.lambdas) - 1

    @property
    def pairwise_distinct(self) -> bool:
        return len(set(self.lambdas)) == len(self.lambdas)


def dirac_explicit(lambdas) -> DiracSpec:
    """Explicit positive sequence lambda_1..lambda_N."""
    return DiracSpec((0.0, *map(float, lambdas)))


def dirac_geometric(gamma: float, depth: int) -> DiracSpec:
    """lambda_n = gamma^(-n+1) for 0 < gamma < 1."""
    if not (0 < gamma < 1):
        raise InvalidInputError("gamma must lie in (0, 1)")
    return DiracSpec((0.0, *(gamma ** (-n + 1) for n in range(1, depth + 1))))


def dirac_power(base: float, depth: int) -> DiracSpec:
    """lambda_n = base^(n-1) for base > 1."""
    if base <= 1:
        raise InvalidInputError("base must exceed 1")
    return DiracSpec((0.0, *(base ** (n - 1) for n in range(1, depth + 1))))


# ---------------------------------------------------------------------------
# GNS data
# ---------------------------------------------------------------------------


@dataclass
class GNSSpace:
    """Orthonormal graded basis of the representation space at full depth."""

    filtration: al.Filtration
    state: al.State
    grades: np.ndarray              # grade of each basis vector
    stack: np.ndarray               # materializations, (dim, s, s) or (dim, leaves)
    dual_stack: np.ndarray          # pairing tensors: <b_i, x> = sum dual[i] * x

    @property
    def dim(self) -> int:
        return len(self.grades)

    @property
    def depth(self) -> int:
        return self.filtration.depth

    def coordinates(self, xs: np.ndarray) -> np.ndarray:
        """Matrix whose column j holds the GNS coordinates <b_i, xs[..., j]>; leading axes kept."""
        dual = self.dual_stack.reshape(self.dim, -1)
        lead = xs.shape[: xs.ndim - self.dual_stack.ndim + 1]
        return dual @ np.swapaxes(xs.reshape(*lead, -1), -1, -2)


def _trace_gns(filtration: al.Filtration, state: al.State) -> GNSSpace:
    stack = al.basis_stack(filtration, filtration.depth).astype(complex, copy=False)
    dual = np.conj(stack) / stack.shape[1]
    return GNSSpace(filtration, state, al.basis_grades(filtration, filtration.depth), stack, dual)


def _product_gns(filtration: al.Filtration, state: al.ProductState) -> GNSSpace:
    n = filtration.depth
    k = filtration.k
    if len(state.densities) < n:
        raise InvalidInputError(f"product state needs {n} densities")
    if not state.is_faithful_reference():
        raise DegeneracyError("product state densities must be positive definite")

    # identity first so grades survive; frame = system L^{-H}, i.e. frame_b =
    # sum_a conj(L^{-1})[b, a] system_a, with G_ab = tr(rho a_a* a_b) = L L^H
    slots = al.slot_basis(k)
    system = np.concatenate([slots[-1:], slots[:-1]]).reshape(k * k, -1)
    slot_frames = []
    for rho in state.densities[:n]:
        gram = np.conj(system) @ (system.reshape(-1, k, k) @ rho).reshape(k * k, -1).T
        frame = np.linalg.solve(np.conj(np.linalg.cholesky(gram)), system).reshape(-1, k, k)
        slot_frames.append(np.concatenate([frame[1:], frame[:1]]))  # back to identity-last

    stack = al.kron_words(k, slot_frames)
    # <b_i, x> = tr(rho b_i* x), so dual[i] = (rho b_i*)^T = conj(b_i) rho^T
    dual = np.conj(stack) @ state.density(n).T
    return GNSSpace(filtration, state, al.basis_grades(filtration, filtration.depth), stack, dual)


# ---------------------------------------------------------------------------
# the truncated triple
# ---------------------------------------------------------------------------


@dataclass
class TruncatedTriple:
    gns: GNSSpace
    dirac: DiracSpec
    d_diag: np.ndarray

    @property
    def filtration(self) -> al.Filtration:
        return self.gns.filtration

    @property
    def depth(self) -> int:
        return self.gns.depth

    @property
    def dim(self) -> int:
        return self.gns.dim

    @property
    def lambdas(self) -> np.ndarray:
        return np.asarray(self.dirac.lambdas)

    def grade_mask(self, n: int) -> np.ndarray:
        return self.gns.grades == n

    def Q(self, n: int) -> np.ndarray:
        return np.diag(self.grade_mask(n).astype(complex))

    def represent_stack(self, mats: np.ndarray) -> np.ndarray:
        """Matrices of left multiplication by a stack of materialized full-depth elements."""
        acted = al.mat_product(self.filtration, mats[:, None], self.gns.stack)
        return self.gns.coordinates(acted)

    def represent(self, a: al.AlgebraElement) -> np.ndarray:
        """Matrix of left multiplication by ``a`` on the graded basis."""
        if a.filtration != self.filtration:
            raise InvalidInputError("filtration mismatch")
        return self.represent_stack(a.materialize(self.depth)[None])[0]

    def commutator(self, a: al.AlgebraElement) -> np.ndarray:
        """[D, pi(a)] as a dense matrix."""
        return self.dirac_commutator(self.represent(a))

    def dirac_commutator(self, pa: np.ndarray) -> np.ndarray:
        """[D, x] for a matrix or a stack of matrices x on the graded basis."""
        return self.d_diag[:, None] * pa - pa * self.d_diag[None, :]

    def commutator_norm(self, a: al.AlgebraElement) -> float:
        return operator_norm(self.commutator(a))

    def block_norms(self, a: al.AlgebraElement) -> np.ndarray:
        """Table of ||Q_i pi(a) Q_j|| over grades i, j = 0..N."""
        pa = self.represent(a)
        # grade-major order: grade i is the index range dim(i-1)..dim(i)
        ends = [0] + [self.filtration.dim(i) for i in range(self.depth + 1)]
        grade = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
        return np.array([[operator_norm(pa[gi, gj]) for gj in grade] for gi in grade])

    def vector_of(self, a: al.AlgebraElement) -> np.ndarray:
        """GNS coefficients of a*xi, i.e. <b_i, a> in the reference inner product."""
        if a.filtration != self.filtration:
            raise InvalidInputError("filtration mismatch")
        acted = al.mat_product(self.filtration, a.materialize(self.depth), self.gns.stack[:1])
        return self.gns.coordinates(acted)[:, 0]


# faithful reference state class -> (name, family it needs, GNS builder)
_REFERENCES = {
    al.TraceState: ("trace", "uhf", _trace_gns),
    al.UniformState: ("uniform", "cantor", _trace_gns),
    al.ProductState: ("product", "uhf", _product_gns),
}


def build_triple(filtration: al.Filtration, state: al.State, dirac: DiracSpec) -> TruncatedTriple:
    """Assemble the truncated triple for a faithful reference state."""
    if dirac.depth != filtration.depth:
        raise InvalidInputError(
            f"dirac depth {dirac.depth} does not match filtration depth {filtration.depth}"
        )
    ref = next((r for cls, r in _REFERENCES.items() if isinstance(state, cls)), None)
    if ref is None:
        raise DegeneracyError(
            f"state {type(state).__name__} is not a faithful reference for the truncation"
        )
    name, family, gns_of = ref
    if filtration.family != family:
        raise InvalidInputError(f"{name} reference needs a {family} filtration")
    # the GNS stack holds dim elements of dim entries each (k^n x k^n matrices or 2^n leaves)
    n = filtration.depth
    check_dense_bytes(16 * filtration.dim(n) ** 2, f"depth {n}", "basis stack")
    gns = gns_of(filtration, state)
    return TruncatedTriple(gns, dirac, np.asarray(dirac.lambdas)[gns.grades])
