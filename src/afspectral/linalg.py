"""Dense complex linear algebra used by every other module.

All operators are plain ``numpy.ndarray`` with complex entries, or real ones
where the data is real; matrices are row-major 2-d arrays.  Reported norms
are exact (full SVD, a real one for real input).  A block-diagonal operator
may be passed as the 3-d stack of its equal-shape blocks, whose norm
:func:`operator_norm` takes with one batched SVD.  A threshold decision
``||m|| > tol`` goes through :func:`norm_exceeds`, which skips the SVD when
the Frobenius norm, an upper bound of the spectral norm, already lies below
the threshold and otherwise decides by the SVD, so it answers exactly as the
SVD comparison does.  ``MAX_DENSE_BYTES`` is the one limit on a dense array:
:func:`check_dense_bytes` refuses an input whose estimated array exceeds it,
before the array is allocated.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedError


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerances.

    structural   : exact operator identities (projections, homomorphisms)
    hermitian    : relative asymmetry allowed in Hermitian inputs
    iso_residual : Dirac commutation residual below which a verdict is "in"
    iso_ambiguous: upper edge of the guard band above iso_residual
    crossed      : residual bound for group-window identities
    cocycle_unit : allowed deviation of a cocycle character's modulus from 1
    lift_stable  : change between window radii below which commutator norms count as settled
    zero_norm    : vector or commutator norm treated as zero by the distance solver
    unbounded    : objective |c . t| on a zero-norm direction that means unbounded
    state_imag   : imaginary part of a state difference on the self-adjoint basis that is refused
    top_band     : relative width of the top singular-value band a distance certificate is fitted on
    top_band_abs : absolute floor of that band
    """

    structural: float = 1e-10
    hermitian: float = 1e-12
    iso_residual: float = 1e-9
    iso_ambiguous: float = 1e-3
    crossed: float = 1e-10
    cocycle_unit: float = 1e-12
    lift_stable: float = 1e-8
    zero_norm: float = 1e-14
    unbounded: float = 1e-10
    state_imag: float = 1e-9
    top_band: float = 1e-9
    top_band_abs: float = 1e-15


TOL = Tolerances()

# largest dense array (bytes) an input may make the package allocate
MAX_DENSE_BYTES = 512 * 2**20


def check_dense_bytes(need: int, subject: str, what: str):
    """Refuse with :class:`UnsupportedError` when ``subject`` needs a dense
    ``what`` of ``need`` bytes, over ``MAX_DENSE_BYTES``; the message names
    the estimate."""
    if need > MAX_DENSE_BYTES:
        raise UnsupportedError(
            f"{subject} needs a {need / 2**20:.3g} MiB {what},"
            f" over the {MAX_DENSE_BYTES / 2**20:.3g} MiB limit"
        )


def operator_norm(m) -> float:
    """Largest singular value of a (possibly rectangular) matrix; rejects non-finite entries.

    A 3-d array is a stack of equal-shape matrices read as their direct sum,
    so the result is the largest singular value over the stack.  A real
    array stays real and takes a real SVD; any other input is taken complex.
    """
    a = np.asarray(m)
    a = a.astype(float if a.dtype.kind in "biuf" else complex, copy=False)
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


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary from a QR factorization."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
