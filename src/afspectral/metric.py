"""State-space distances by spectral-norm-constrained maximization.

The distance between two states is

    d(s1, s2) = sup { |s1(a) - s2(a)| : ||[D, pi(a)]|| <= 1 },

a support-function evaluation of a convex body.  Restricting to traceless
self-adjoint elements of one truncation level loses nothing: states are
unital, Hermitian parts do not increase the commutator norm, and the
reference-state conditional expectation contracts it, so the search space is
the real span of the grade >= 1 canonical basis at the smallest level both
states factor through.

The problem max c . t subject to ||sum_i t_i B_i|| <= 1, with B_i the basis
commutators and c the state-difference vector, is convex, so one
deterministic solve serves every problem (see ``distance``).  Its norm
kernel is one batched symmetric-eigen call over a stack of parameter rows:
real stacks (Cantor triples, where the B_i are real antisymmetric) stay in
real arithmetic and read the norm off the Gram matrix M(t)^T M(t),
M(t) = sum_i t_i B_i; complex stacks are anti-Hermitian, and the norm is
the spectral radius of the Hermitian H(t) = i M(t).

The Frobenius start and any informed starts are scored where they stand by
the scale-invariant ratio (c . t)/||M(t)||, and the best is certified.  A
matrix Y with <B_i, Y> = c_i bounds the distance by its nuclear norm;
fitted on the top singular space of M(t) and then on the tangent space
there, its excess over the ratio at t falls with the square of t's distance
to the optimum.  Only while that gap is open a log-barrier Newton method
(``_barrier``) runs once, from the Frobenius start, along the central path
of the SDP form I +- H(t) >= 0, and stops at its first closed certificate;
the ratio's nonsmoothness where the top singular value of M(t) is repeated
does not stall it.  It is the only iterative solver.

The Frobenius start is t0 = G^+ c, with G_ij = <B_i, B_j> the stack's
Frobenius Gram matrix: it maximizes (c . t)/||M(t)||_F, so its ratio is at
least sqrt(c^T G^+ c); on the depth-3 Cantor pairs at gamma = 1/3 it lies
within 7e-4 (relative) of the optimum, and it is certified where it stands
on the split-level-3 pairs.  One SVD of the stack rows, taken when the
constraint map is built, gives G^+, the certificate's last minimum-norm
correction and the barrier's range basis.  It also decides boundedness
before any start is scored, for the solver and the brute-force oracle
alike: its null directions are exactly where M(t) = 0, so a part of c there
makes the distance infinite.

Every result carries a lower bound, certified by an explicit feasible
witness through the public operations, and an upper bound, the smallest
certificate computed; ``closed`` is the one rule for whether they pin the
distance.  The matched vector-state cases also have the exact value
1/lambda_{n+1} (``car_certified_upper_bound``), an independent cross-check.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra as al
from . import triple as tr
from .errors import (
    InvalidInputError,
    PreconditionError,
    UnboundedObjectiveError,
    UnsupportedError,
)
from .linalg import TOL, check_dense_bytes

# ---------------------------------------------------------------------------
# problem and configuration records
# ---------------------------------------------------------------------------


@dataclass
class SolverConfig:
    max_iter: int = 500  # cap on the barrier's Newton steps


GAP_TOL = 1e-12  # relative certificate gap that proves the incumbent optimal
BARRIER_GROWTH = 50.0  # factor by which the barrier's objective weight tau grows per stage
BARRIER_GAP = 1e-10  # relative central-path gap 2d/tau at which the barrier stops
NEWTON_CENTERED = 1e-3  # half the squared Newton decrement at which a barrier stage is centered
CAR_SLACK = 1e-9  # rounding by which a CAR lower bound may exceed the exact 1/lambda_{n+1}


@dataclass
class DistanceProblem:
    triple: tr.TruncatedTriple
    s1: al.State
    s2: al.State
    search_level: int | None = None
    informed_starts: list = field(default_factory=list)

    def __post_init__(self):
        if self.search_level is None:
            self.search_level = self.triple.depth
        self.triple.filtration._check_level(self.search_level)


@dataclass
class DistanceResult:
    lower_bound: float
    upper_bound: float
    witness: al.AlgebraElement
    diagnostics: dict


# ---------------------------------------------------------------------------
# search-space assembly
# ---------------------------------------------------------------------------


def _search_space(problem: DistanceProblem):
    """Objective vector c and commutator stack B over the traceless level basis.

    A stack whose (p, dim, dim) intermediate, the action of the p traceless
    level elements on the GNS basis, would exceed the dense-array limit is
    refused before anything is allocated.
    """
    t3 = problem.triple
    sl = problem.search_level
    filt = t3.filtration
    idxs = al.canonical_basis(filt, sl)
    dim_sl = len(idxs)
    check_dense_bytes(16 * (dim_sl - 1) * t3.dim**2, f"search level {sl}", "commutator stack")

    diff = problem.s1.basis_values(filt, sl)[1:] - problem.s2.basis_values(filt, sl)[1:]
    if np.any(np.abs(diff.imag) > TOL.state_imag):
        raise InvalidInputError("state difference not real on the self-adjoint basis")
    c = diff.real.copy()  # contiguous: the solver's products take their BLAS path from it
    # the level-sl basis is a prefix of the full-depth basis stack
    comms = t3.dirac_commutator(t3.represent_stack(al.basis_stack(filt, t3.depth)[1:dim_sl]))
    # locality: grade <= sl elements commute with all higher-grade blocks, and
    # the grade <= sl basis vectors are the first dim_sl (grade-major order)
    return c, comms[:, :dim_sl, :dim_sl], idxs


def _rowwise(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ x for every row x of X, one product per row.

    A batched product applies the same kernel to each row, so a row's
    rounding does not depend on which other rows share the batch.
    """
    return np.matmul(A, X[:, :, None])[..., 0]


class _ConstraintMap:
    """Batched norm kernel: t -> ||sum_i t_i B_i|| over stacks of parameter rows.

    One batched ``eigvalsh`` call serves every row of a stack T of shape
    (S, p).  A real stack (real antisymmetric B_i, as on Cantor
    triples) stays real: the norm of M(t) = sum_i t_i B_i is
    sqrt(lambda_max(M^T M)).  A complex stack is anti-Hermitian, so
    H(t) = i M(t) is Hermitian and the norm is its spectral radius
    max(-w_min, w_max).
    """

    def __init__(self, B: np.ndarray):
        p, d, _ = B.shape
        asym = float(np.max(np.abs(B + np.conj(B).transpose(0, 2, 1))))
        if asym > TOL.hermitian * max(float(np.max(np.abs(B))), 1.0):
            raise InvalidInputError("constraint stack is not anti-Hermitian")
        self.shape = (d, d)
        self.real = not np.any(B.imag)
        # row i is vec(B_i) on a real stack, vec(i B_i) on a complex one; contiguous for BLAS
        flat = B.real.reshape(p, d * d) if self.real else (1j * B).reshape(p, d * d)
        self.flat = np.ascontiguousarray(flat)
        self.flat_t = np.ascontiguousarray(self.flat.T)
        # one SVD of the real stack rows R, whose Gram matrix G = R R^T gives
        # ||M(t)||_F^2 = t^T G t: the Frobenius start, the unboundedness
        # refusal, dual_bound's last correction and the barrier's range basis
        R = self.flat if self.real else np.hstack([self.flat.real, self.flat.imag])
        self.u, self.s, _ = np.linalg.svd(R, full_matrices=False)
        # singular values below the rank rule of ``numpy.linalg.lstsq``, or below TOL.zero_norm
        self.kept = self.s >= max(TOL.zero_norm, max(R.shape) * np.finfo(float).eps * self.s[0])

    def _pinv_gram(self, r: np.ndarray) -> np.ndarray:
        """G^+ r on the kept singular values of R, with R's dynamic range rather than G's squared one."""
        coef = self.u.T @ r
        return self.u[:, self.kept] @ (coef[self.kept] / self.s[self.kept] ** 2)

    def check_bounded(self, c: np.ndarray):
        """Raise :class:`UnboundedObjectiveError` if c has a part larger than TOL.unbounded
        along the left singular vectors u of R with ||M(u)||_F < TOL.zero_norm: the whole
        null space of M, not only the rows some scan happens to try."""
        if np.linalg.norm((self.u.T @ c)[self.s < TOL.zero_norm]) > TOL.unbounded:
            raise UnboundedObjectiveError("nonzero objective along a Dirac-commuting direction")

    def frobenius_start(self, c: np.ndarray) -> np.ndarray:
        """t0 = G^+ c, the maximizer of (c . t)/||M(t)||_F, with G the stack's Gram matrix.

        ||M(t)||_F^2 = t^T G t, so by Cauchy-Schwarz in the G inner product
        c . t <= sqrt(c^T G^+ c) ||M(t)||_F for c in range(G), with equality
        at t0; since ||M|| <= ||M||_F, the ratio at t0 is at least
        sqrt(c^T G^+ c).  G^+ comes from the SVD of R taken at construction,
        and :meth:`check_bounded` first refuses a c outside range(G).  t0 is
        returned at unit length: G^+ c is of size |c|/||G||, which on a
        wide-range Dirac falls below the TOL.zero_norm at which a row's norm
        counts as zero.
        """
        self.check_bounded(c)
        t0 = self._pinv_gram(c)
        n = np.linalg.norm(t0)
        return t0 / n if n > 0 else t0

    def images(self, T: np.ndarray) -> np.ndarray:
        """sum_i t_i flat_i for every row t of T, shape (S, d, d): M(t) on a
        real stack, H(t) = i M(t) on a complex one."""
        return _rowwise(self.flat_t, T).reshape(len(T), *self.shape)

    def norms(self, T: np.ndarray) -> np.ndarray:
        if self.real:
            m = self.images(T)
            w = np.linalg.eigvalsh(m.transpose(0, 2, 1) @ m)
            return np.sqrt(np.maximum(w[:, -1], 0.0))
        w = np.linalg.eigvalsh(self.images(T))
        return np.maximum(-w[:, 0], w[:, -1])

    def dual_bound(self, c: np.ndarray, t: np.ndarray):
        """Weak-duality certificate at one parameter row t: (||Y||_*, Y).

        Any Y with <B_i, Y> = Re tr(B_i^H Y) = c_i bounds the distance:
        c . s = <M(s), Y> <= ||M(s)|| ||Y||_* for every s.  At an optimum
        Y = U Z V^H on the top singular space of the image at t (M on a real
        stack, H = iM on a complex one), with Z positive semidefinite, so Y
        is built there.  U, V span the singular vectors whose value is in the
        top band (TOL.top_band, TOL.top_band_abs), and a symmetric (Hermitian
        on a complex stack) Z is fitted by least squares to
        <B_i, U Z V^H> = c_i.  The residual is
        solved on the tangent projections
        P_T(B) = U U^H B + B V V^H - U U^H B V V^H with their Gram matrix,
        which moves the nuclear norm only at second order beyond the
        top-space part, so the excess ||Y||_* - (c . t)/||M(t)|| falls with
        the square of t's distance to the optimum.  The minimum-norm
        correction sum_i alpha_i B_i, alpha = G^+ r for the residual r,
        removes what is left and makes Y feasible; G^+ comes from the SVD of
        the stack rows, so its conditioning is that of the rows, not their
        square.  Y is returned in the frame of the B_i.  Far from the optimum
        on a stack whose rows span more than about 1e8 the residual is large
        and that correction can still fall short; a Y that misses the
        constraints by more than TOL.structural * |c| certifies nothing, and
        its bound reads inf.  The nuclear norm comes from a floating-point
        SVD, exact up to about d * eps * ||Y||.
        """
        u, s, vh = np.linalg.svd(self.images(np.asarray(t, dtype=float)[None])[0])
        k = int(np.count_nonzero(s >= s[0] - max(TOL.top_band * s[0], TOL.top_band_abs)))
        u, vh = u[:, :k], vh[:k]
        uh, v = np.conj(u).T, np.conj(vh).T
        F = self.flat.reshape(-1, *self.shape)
        A = uh @ F  # U^H F_i
        E = A @ v  # U^H F_i V; Z = X + X^H is fitted on these
        cols = [(E + E.transpose(0, 2, 1)).real.reshape(-1, k * k)]
        if not self.real:
            cols.append((E - E.transpose(0, 2, 1)).imag.reshape(-1, k * k))
        # an antisymmetric stack maps some symmetric Z exactly to zero: drop
        # those directions rather than fit rounding noise with huge weights
        x = np.linalg.lstsq(np.hstack(cols), c, rcond=TOL.top_band)[0]
        X = x[: k * k].reshape(k, k) + (0 if self.real else 1j * x[k * k :].reshape(k, k))
        w = (u @ (X + np.conj(X).T) @ vh).reshape(-1)
        # tangent step: P_T(F_i) = U (A_i - E_i V^H) + C_i V^H with C_i = F_i V,
        # whose Gram matrix is <A_i, A_j> + <C_i, C_j> - <E_i, E_j>
        C = F @ v
        A2, C2, E2 = (m.reshape(len(F), -1) for m in (A, C, E))
        gram_t = np.real(np.conj(A2) @ A2.T + np.conj(C2) @ C2.T - np.conj(E2) @ E2.T)
        beta = np.linalg.lstsq(gram_t, c - np.real(self.flat @ np.conj(w)), rcond=TOL.top_band)[0]
        a, cb, e = (np.tensordot(beta, m, axes=1) for m in (A, C, E))
        w = w + (u @ (a - e @ vh) + cb @ vh).reshape(-1)
        w = w + self._pinv_gram(c - np.real(self.flat @ np.conj(w))) @ self.flat
        feasible = np.linalg.norm(c - np.real(self.flat @ np.conj(w))) <= TOL.structural * np.linalg.norm(c)
        w = w.reshape(self.shape)
        bound = float(np.linalg.svd(w, compute_uv=False).sum()) if feasible else np.inf
        return bound, (w if self.real else -1j * w)


def _barrier(c: np.ndarray, cons: _ConstraintMap, max_iter: int):
    """Maximize c . t over ||M(t)|| < 1 by a log-barrier Newton method from the Frobenius start.

    Returns (ratio, t, Newton steps, certificate): the ratio at the last
    point t and the smallest ``dual_bound`` computed on the way.  The
    problem is convex (an SDP: with the Hermitian H = i M, ||H|| <= 1 holds
    exactly when I +- H >= 0), so the central path leads to the global
    maximum, also where the top singular value of M(t) is repeated and the
    ratio (c . t)/||M(t)|| is nonsmooth.  Stage k minimizes -tau_k c . t - sum_a log(1 - w_a^2) over
    the eigenvalues w of H(t): one complex-Hermitian form for real and
    complex stacks.  With H = Q diag(w) Q^H, B'_i = Q^H (i B_i) Q,
    alpha = 1/(1 - w) and beta = 1/(1 + w), the barrier's gradient is
    sum_a (alpha_a - beta_a) B'_i[a, a] and its Hessian
    Re sum_ab K_ab B'_i[a, b] conj(B'_j[a, b]), K = alpha alpha^T + beta beta^T,
    formed as one real product of the B'_i scaled by sqrt(K).  The B'_i are
    one batched product, and each trial point costs one ``eigh``, whose
    eigensystem both checks ||H|| < 1 and, once the point is accepted, gives
    the next step's w and Q.

    Newton works in the range basis of the stack's SVD, t = U diag(1/s) z
    over the kept singular values, where ||M(t)||_F = |z|: null directions
    drop out, and since K >= 1/2 the Hessian is at least I/2.  In that basis
    the Frobenius start G^+ c lies along c_z, the objective there, and the
    first point is z = c_z/|c_z|, where ||M|| <= ||M||_F = 1; a rank-one
    M(z) has ||M|| = 1, so the point is halved, as a step is, until
    ||H|| < 1.  With N the barrier's Hessian, tau starts at the weight that
    best centres that point, (grad . N^-1 c_z)/(c_z . N^-1 c_z), and at
    least 1/|c_z|.  Each step solves N once for N^-1 [grad, c_z], so the
    step at any tau is tau N^-1 c_z - N^-1 grad.  A step is damped to 1/(1 + lambda), lambda
    the Newton decrement, and halved while it would leave ||H|| < 1.  A
    stage ends when lambda^2/2 < NEWTON_CENTERED, and tau then grows by
    BARRIER_GROWTH.  A centered point whose central-path gap 2d/tau is below
    sqrt(GAP_TOL) * (c . t) is certified by ``dual_bound``, and the barrier
    returns at the first certificate that closes (:func:`closed`).  Otherwise
    it stops at a centered point whose gap is below BARRIER_GAP * (c . t),
    or after ``max_iter`` Newton steps, and certifies its last point; with
    no step taken that is the start.  Peak transient: the range-basis
    stack, the B'_i and the intermediate Q^H (i B_i) of their batched
    product, three complex (k, d, d) arrays with k <= p, so at most three
    times the commutator stack whose size ``_search_space`` checks against
    the dense-array limit.
    """
    W = cons.u[:, cons.kept] / cons.s[cons.kept]
    flat = W.T @ cons.flat  # vec(M) (real stack) or vec(H) along the range basis
    if cons.real:
        flat = 1j * flat
    d = cons.shape[0]
    E = flat.reshape(-1, d, d)
    cz = W.T @ c

    def inside(z):
        """The eigensystem of H(z) if ||H(z)|| < 1, else None."""
        w, Q = np.linalg.eigh((z @ flat).reshape(d, d))
        return (w, Q) if max(-w[0], w[-1]) < 1.0 else None

    def newton(w, Q):
        """The barrier's gradient grad at H = Q diag(w) Q^H, with N^-1 grad
        and N^-1 c_z for its Hessian N."""
        alpha, beta = 1.0 / (1.0 - w), 1.0 / (1.0 + w)
        P = np.conj(Q.T) @ E @ Q
        grad = np.diagonal(P, axis1=1, axis2=2).real @ (alpha - beta)
        P *= np.sqrt(alpha[:, None] * alpha + beta[:, None] * beta)
        Pv = P.reshape(len(E), -1).view(float)  # Re <P_i, P_j> as a real product
        a, b = np.linalg.solve(Pv @ Pv.T, np.column_stack([grad, cz])).T
        return grad, a, b

    def certify(z):
        t = W @ z
        return (c @ t) / cons.norms(t[None])[0], t, cons.dual_bound(c, t)[0]

    z = cz / np.linalg.norm(cz)  # the Frobenius start G^+ c at ||M(t)||_F = 1
    while (eig := inside(z)) is None:
        z = z / 2
    grad, a, b = newton(*eig)
    tau = max((grad @ b) / (cz @ b), 1.0 / np.linalg.norm(cz))
    upper, steps, certified = np.inf, 0, False
    while True:
        while True:  # a centered point starts the next stage, or ends the barrier
            dz = tau * b - a
            lam2 = (tau * cz - grad) @ dz
            if lam2 / 2 >= NEWTON_CENTERED:
                break
            gap = 2 * d / tau
            if gap < np.sqrt(GAP_TOL) * (cz @ z) and not certified:
                ratio, t, bound = certify(z)
                upper, certified = min(upper, bound), True
                if closed(upper, ratio):
                    return ratio, t, steps, upper
            if gap < BARRIER_GAP * (cz @ z):
                break
            tau *= BARRIER_GROWTH
        if lam2 / 2 < NEWTON_CENTERED or steps == max_iter:
            break
        step = 1.0 / (1.0 + np.sqrt(lam2))
        while (eig := inside(z + step * dz)) is None:
            step /= 2
        z = z + step * dz
        grad, a, b = newton(*eig)
        steps, certified = steps + 1, False
    if not certified:
        ratio, t, bound = certify(z)
        upper = min(upper, bound)
    return ratio, t, steps, upper


def closed(upper: float, value: float) -> bool:
    """Whether an upper bound certifies a value to GAP_TOL * max(1, |value|), the one rule
    for "certified"; a value above its bound by rounding counts as closed."""
    return upper - value <= GAP_TOL * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def reduce_search_level(problem: DistanceProblem) -> DistanceProblem:
    """Shrink the search level to the smallest one both states factor through.

    Valid whenever the triple's reference state is the trace or uniform
    measure, since the coefficient truncation onto a level is then the
    reference conditional expectation, which fixes both states' values and
    contracts the commutator norm.  Problems whose states do not visibly
    factor come back unchanged.
    """
    ref = problem.triple.gns.state
    if not isinstance(ref, (al.TraceState, al.UniformState)):
        return problem
    filt = problem.triple.filtration
    m = max(
        al.vanishing_level(problem.s1, filt),
        al.vanishing_level(problem.s2, filt),
    )
    return replace(problem, search_level=min(problem.search_level, m))


def _zero_result(problem, diagnostics):
    filt = problem.triple.filtration
    zero = al.AlgebraElement(filt, problem.search_level, np.zeros(filt.dim(problem.search_level)))
    return DistanceResult(0.0, 0.0, zero, diagnostics)


def distance(problem: DistanceProblem, cfg: SolverConfig | None = None) -> DistanceResult:
    """Certified lower and upper bounds (and a witness) for the state distance.

    The returned ``lower_bound`` is |s1(w) - s2(w)| for the explicit witness
    ``w``, rescaled to unit commutator norm through the public operations, so
    it holds independently of solver quality.  ``upper_bound`` is the
    smallest certificate computed (``_ConstraintMap.dual_bound``), inf only
    if none met its constraints; :func:`closed` says whether the bounds pin
    the distance.

    One deterministic path.  The Frobenius start G^+ c (``"frobenius"``) and
    the informed starts (``"informed-k"``) are scored where they stand: each
    row is scaled to unit length and signed so that c . t >= 0, one kernel
    call gives their norms, and a row of zero norm reads -inf.  The best row
    is certified.  If that certificate closes on the row's ratio the solve
    ends there, with 0 ``iterations`` on every row.  Otherwise
    :func:`_barrier` runs once from the Frobenius start (the ``"barrier"``
    row of ``per_start``, its Newton steps as ``iterations``, at most
    ``cfg.max_iter``) until its own certificate closes, and the better ratio
    is kept.
    An informed start of the wrong length or with non-finite entries raises
    :class:`InvalidInputError`.  An objective unbounded along a
    Dirac-commuting direction raises :class:`UnboundedObjectiveError` before
    any start is scored.  A problem whose commutator stack would exceed
    ``linalg.MAX_DENSE_BYTES`` raises :class:`UnsupportedError`, naming the
    estimate, before the stack is allocated.
    """
    cfg = cfg or SolverConfig()
    if problem.search_level == 0:
        return _zero_result(problem, {"reason": "states factor through the scalars"})

    c, B, _ = _search_space(problem)
    p = len(c)
    if np.linalg.norm(c) < TOL.zero_norm:
        return _zero_result(problem, {"reason": "states agree on the search level"})
    cons = _ConstraintMap(B)

    starts = [("frobenius", cons.frobenius_start(c))]
    for k, w in enumerate(problem.informed_starts):
        w = np.asarray(w, dtype=float)
        if w.shape != (p,):
            raise InvalidInputError("informed start has wrong parameter dimension")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("informed start has non-finite entries")
        starts.append((f"informed-{k}", w))
    T = np.stack([t0 for _, t0 in starts])
    nrm = np.linalg.norm(T, axis=1)
    T /= np.where(nrm > 0, nrm, 1.0)[:, None]
    num = T @ c
    T[num < 0] *= -1.0
    g = cons.norms(T)
    zero = g < TOL.zero_norm
    vals = np.where(zero, -np.inf, np.abs(num) / np.where(zero, 1.0, g))
    per_start = [
        {"start": kind, "objective": float(v), "iterations": 0}
        for (kind, _), v in zip(starts, vals)
    ]
    best = int(np.argmax(vals))
    best_start, best_val, best_t = starts[best][0], vals[best], T[best]
    upper = cons.dual_bound(c, best_t)[0]

    if not closed(upper, best_val):
        value, t, steps, bound = _barrier(c, cons, cfg.max_iter)
        per_start.append({"start": "barrier", "objective": float(value), "iterations": steps})
        upper = min(upper, bound)
        if value > best_val:
            best_start, best_val, best_t = "barrier", value, t

    # certify through the public operations
    filt = problem.triple.filtration
    coeffs = np.zeros(filt.dim(problem.search_level), dtype=complex)
    coeffs[1:] = best_t
    raw = al.AlgebraElement(filt, problem.search_level, coeffs)
    nrm = problem.triple.commutator_norm(raw)
    witness = raw * (1.0 / nrm)
    lower = abs(complex(problem.s1.value(witness) - problem.s2.value(witness)))
    diagnostics = {
        "search_level": problem.search_level,
        "parameters": p,
        "best_start": best_start,
        "per_start": per_start,
        "solver_objective": float(best_val),
    }
    return DistanceResult(float(lower), float(upper), witness, diagnostics)


def _brute_force_core(c: np.ndarray, B: np.ndarray, points: int = 10000, seed: int = 12345) -> float:
    """Dense direction scan plus shrinking local refinement over <= 4 parameters."""
    c = np.asarray(c, dtype=float)
    p = len(c)
    if p > 4:
        raise UnsupportedError(f"brute force supports <= 4 parameters, got {p}")
    if np.linalg.norm(c) < TOL.zero_norm:
        return 0.0

    if p == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif p == 2:
        ang = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(seed)
        n = points if p == 3 else 20 * points
        dirs = rng.normal(size=(n, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    cons = _ConstraintMap(B)
    cons.check_bounded(c)

    def batch_value(ts):
        s = cons.norms(ts)
        num = ts @ c
        bad = s < TOL.zero_norm
        return np.where(bad, 0.0, np.abs(num) / np.where(bad, 1.0, s))

    vals = batch_value(dirs)
    best = int(np.argmax(vals))
    best_val, best_t = float(vals[best]), dirs[best]

    rng = np.random.default_rng(seed + 1)
    sigma = 0.3
    for _ in range(30):
        cand = best_t[None, :] + sigma * rng.normal(size=(300, p))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cv = batch_value(cand)
        j = int(np.argmax(cv))
        if cv[j] > best_val:
            best_val, best_t = float(cv[j]), cand[j]
        sigma *= 0.7
    return best_val


def brute_force_distance(problem: DistanceProblem) -> float:
    """Independent oracle: dense direction scan plus shrinking local refinement.

    Only available for parameter dimension <= 4 after reduction.
    """
    if problem.search_level == 0:
        return 0.0
    c, B, _ = _search_space(problem)
    return _brute_force_core(c, B)


_CAR_VECTORS = {
    1: np.array([[1.0, 0.0], [1.0, 0.0]]),
    2: np.array([[1.0, 0.0], [1.0j, 0.0]]),
    3: np.array([[0.0, np.sqrt(2.0)], [0.0, 0.0]]),
}


def car_vector(filtration: al.Filtration, l: int) -> al.AlgebraElement:
    """A canonical level-1 vector whose state has unit Bloch component l."""
    if l not in (1, 2, 3):
        raise InvalidInputError("label must be 1, 2 or 3")
    return al.from_matrix(filtration, 1, _CAR_VECTORS[l])


def car_certified_upper_bound(triple: tr.TruncatedTriple, n: int, l: int) -> float:
    """Exact upper bound 1/lambda_{n+1} for d(phi_{1^n (x) v}, trace), v of type l.

    For feasible x of level n+1 and x~ = x - E_n(x), the coefficient of x~ at
    (identity^n, l) is at most ||P_0 pi(x~) Q_{n+1}|| <= ||[D, x~]|| / lambda_{n+1},
    and ||[D, x~]|| <= ||[D, x]||.
    """
    filt = triple.filtration
    if filt.family != "uhf" or filt.k != 2:
        raise PreconditionError("certified bound requires the uhf k=2 family")
    if not triple.dirac.pairwise_distinct:
        raise PreconditionError("certified bound requires pairwise distinct eigenvalues")
    if triple.depth < n + 1:
        raise PreconditionError(f"needs depth >= {n + 1}")
    if l not in (1, 2, 3):
        raise InvalidInputError("label must be 1, 2 or 3")
    return 1.0 / float(triple.lambdas[n + 1])


def car_golden_case(lambdas, n: int, l: int) -> dict:
    """Distance between the trace and a shifted matched vector state.

    Builds the smallest truncation that contains the search level, runs the
    certified solver, and pins the value with the exact upper bound
    1/lambda_{n+1} (``upper_bound``); ``certificate`` is the solver's own
    upper bound.  The Frobenius start is the attaining element here, so it
    is certified where it stands.
    """
    lambdas = list(map(float, lambdas))
    if len(lambdas) < n + 1:
        raise InvalidInputError(f"need at least {n + 1} eigenvalues")
    depth = n + 1
    filt = al.uhf(2, depth)
    triple = tr.build_triple(filt, al.TraceState(), tr.dirac_explicit(lambdas[:depth]))
    v = al.shift_embed(car_vector(filt, l), n)
    phi = al.VectorState(v)

    problem = reduce_search_level(DistanceProblem(triple, phi, al.TraceState()))
    result = distance(problem)
    upper = car_certified_upper_bound(triple, n, l)
    if result.lower_bound > upper + CAR_SLACK:
        raise RuntimeError("solver lower bound exceeds the certified upper bound")
    return {
        "n": n,
        "l": l,
        "lambda": lambdas[:depth],
        "lower_bound": result.lower_bound,
        "upper_bound": upper,
        "search_level": problem.search_level,
        "certificate": result.upper_bound,
    }
