"""Dense complex linear algebra used by every other module.

All operators are plain ``numpy.ndarray`` with complex entries; matrices are
row-major 2-d arrays.  Reported norms are exact (full SVD).  A block-diagonal
operator may be passed as the 3-d stack of its equal-shape blocks, whose
norm :func:`operator_norm` takes with one batched SVD.  A threshold
decision ``||m|| > tol`` goes through :func:`norm_exceeds`, which skips the
SVD when the Frobenius norm, an upper bound of the spectral norm, already
lies below the threshold and otherwise decides by the SVD, so it answers
exactly as the SVD comparison does.  Orthonormalization runs against a
caller-supplied inner product so the same routine serves matrix algebras and
function spaces.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InvalidInputError


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerances.

    structural   : exact operator identities (projections, homomorphisms)
    gram_pivot   : smallest acceptable Gram-Schmidt pivot
    hermitian    : relative asymmetry allowed in Hermitian inputs
    iso_residual : Dirac commutation residual below which a verdict is "in"
    iso_ambiguous: upper edge of the guard band above iso_residual
    crossed      : residual bound for group-window identities
    cocycle_unit : allowed deviation of a cocycle character's modulus from 1
    lift_stable  : change between window radii below which commutator norms count as settled
    zero_norm    : vector or commutator norm treated as zero by the distance solver
    unbounded    : objective |c . t| on a zero-norm direction that means unbounded
    ascent_grad  : relative ascent-gradient norm at which an ascent stops
    ascent_accept: relative gain a line-search trial needs to be accepted
    ascent_curvature: smallest s . y / (|s| |y|) at which a BFGS update is made
    top_band     : relative width of the top eigenvalue band of the norm subgradient
    top_band_abs : absolute floor of that band
    """

    structural: float = 1e-10
    gram_pivot: float = 1e-10
    hermitian: float = 1e-12
    iso_residual: float = 1e-9
    iso_ambiguous: float = 1e-3
    crossed: float = 1e-10
    cocycle_unit: float = 1e-12
    lift_stable: float = 1e-8
    zero_norm: float = 1e-14
    unbounded: float = 1e-10
    ascent_grad: float = 1e-13
    ascent_accept: float = 1e-15
    ascent_curvature: float = 1e-10
    top_band: float = 1e-9
    top_band_abs: float = 1e-15


TOL = Tolerances()


def operator_norm(m) -> float:
    """Largest singular value of a (possibly rectangular) matrix; rejects non-finite entries.

    A 3-d array is a stack of equal-shape matrices read as their direct sum,
    so the result is the largest singular value over the stack.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3):
        raise InvalidInputError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix has non-finite entries")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[..., 0].max())


def norm_exceeds(m, tol: float) -> bool:
    """Exactly ``operator_norm(m) > tol``, without the SVD when ``||m||_F`` settles it.

    ``||m||_2 <= ||m||_F``, so a Frobenius norm below ``tol`` decides "no".
    The factor ``1 - 1e-6`` covers the relative rounding of both computed
    norms, which stays orders of magnitude smaller at any matrix size used
    here.  Every other case, a NaN or inf norm included, falls through to
    :func:`operator_norm`, which rejects non-finite entries.
    """
    a = np.asarray(m)
    if a.ndim == 2 and np.linalg.norm(a) <= tol * (1 - 1e-6):
        return False
    return operator_norm(a) > tol


def orthonormalize(vectors, gram):
    """Gram-Schmidt against the inner product callback ``gram(a, b)``.

    ``gram`` must be linear in its second argument and conjugate-linear in the
    first.  The output spans the same space, has identity Gram matrix, and
    keeps the direction of the first vector.  A pivot below
    ``TOL.gram_pivot`` raises :class:`DegeneracyError`.
    """
    out = []
    for k, vec in enumerate(vectors):
        w = np.array(vec, dtype=complex)
        # two MGS passes for numerical stability
        for _ in range(2):
            for f in out:
                w = w - gram(f, w) * f
        nrm2 = gram(w, w)
        if abs(nrm2.imag) > 1e-8 * max(1.0, abs(nrm2)):
            raise InvalidInputError("inner product is not positive (complex norm)")
        piv = float(np.sqrt(max(nrm2.real, 0.0)))
        if piv < TOL.gram_pivot:
            raise DegeneracyError(f"vector {k} numerically dependent (pivot {piv:.3e})")
        out.append(w / piv)
    return out


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary from a QR factorization."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
