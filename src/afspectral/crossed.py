"""Group-window lifts: integer actions, cocycles, and the lifted Dirac.

A verified action of the integers on the truncated algebra is represented on
a finite symmetric window of sites {-L..L}.  The lifted Dirac operator is the
off-diagonal 2 x 2 block matrix with blocks D (x) 1 -/+ i (x) M_l, where M_l
multiplies by the site label.  D is grade-diagonal and M_l site-diagonal, so
both blocks are diagonal: the lifted triple stores the one vector
t = diag(D (x) 1 - i (x) M_l) (the other block is its conjugate), and the
commutator of the lifted Dirac with a block-diagonal U (+) U is the pair of
Hadamard products (t_i - t_j) U_ij and (conj t_i - conj t_j) U_ij.

A rigid generator alpha_1 is implemented by a unitary V commuting with D,
pi(alpha_g(a)) = V^g pi(a) V^-g, and finitely supported elements
sum(a_g lambda_g) act by

    (a lambda_g)(xi (x) delta_h) = (V^-(g+h) pi(a) V^(g+h) xi) (x) delta_{g+h},

truncated at the window edge; identities are therefore asserted only after
compressing onto interior columns, where no truncation occurs.  A character
cocycle chi, a rigid base automorphism beta and a label-preserving group
automorphism sigma lift to a unitary commuting with the lifted Dirac; sigma
= negation flips the label and serves as the designed failure case.

The lifted unitary is block-monomial: column site h holds one d x d block,
a cocycle phase times U_beta, in row site sigma(h).  The covariance check
applies it through those blocks instead of dense window products, and builds
only the site blocks of pi(x) and pi(Phi(x)) it reads: each term's
conjugates at the row sites the interior columns reach.  represent_crossed
is the dense scatter of the same conjugates over every site.  Every interior
norm is one kernel on the d x d site blocks of the interior columns: one
batched SVD of the blocks of a block-monomial operator (a lifted unitary),
one SVD of the nonzero row sites of any other.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra as al
from . import isometry as iso
from . import triple as tr
from .errors import (
    InvalidInputError,
    PreconditionError,
    WindowTooSmallError,
)
from .linalg import TOL, check_dense_bytes, norm_exceeds, operator_norm

# ---------------------------------------------------------------------------
# actions of the integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrivialAction:
    pass


@dataclass(frozen=True)
class OdometerAction:
    """Add-one-with-carry on the binary sequence space (cantor bases only)."""


@dataclass(frozen=True)
class IsoPowerAction:
    """Integer powers of a fixed rigid automorphism."""

    generator: object


def _generator_spec(action, filtration: al.Filtration):
    if isinstance(action, TrivialAction):
        return None
    if isinstance(action, OdometerAction):
        if filtration.family != "cantor":
            raise InvalidInputError("odometer acts on cantor filtrations")
        return iso.odometer_portrait(filtration.depth)
    if isinstance(action, IsoPowerAction):
        return action.generator
    raise InvalidInputError(f"unknown action {type(action).__name__}")


def apply_action(action, g: int, x: al.AlgebraElement) -> al.AlgebraElement:
    """alpha_g(x) for the integer action."""
    gen = _generator_spec(action, x.filtration)
    if gen is None or g == 0:
        return x.embed(x.filtration.depth)
    spec = gen if g > 0 else iso.invert(gen)
    out = x
    for _ in range(abs(g)):
        out = iso.apply_automorphism(spec, out)
    return out


def _verified_generator(action, base: tr.TruncatedTriple):
    """Action report and the generator's implementing unitary V (identity if trivial)."""
    gen = _generator_spec(action, base.filtration)
    if gen is None:
        return {"action": "trivial", "verified": True}, np.eye(base.dim, dtype=complex)
    verdict = iso.iso_check(base, gen)
    report = {
        "action": type(action).__name__,
        "verified": bool(verdict.in_iso),
        "state_preserved": verdict.state_preserved,
        "filtration_levels": verdict.filtration_levels_preserved,
    }
    if not verdict.in_iso:
        raise InvalidInputError("action generator is not a rigid automorphism of the base")
    return report, verdict.implementing_unitary


# ---------------------------------------------------------------------------
# cocycles, windows, crossed elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cocycle:
    """Scalar character cocycle c(g) = chi^g."""

    chi: complex

    def __post_init__(self):
        if not abs(abs(complex(self.chi)) - 1.0) <= TOL.cocycle_unit:  # NaN fails too
            raise InvalidInputError("character must have unit modulus")

    def value(self, g: int) -> complex:
        return complex(self.chi) ** g


@dataclass(frozen=True)
class GroupWindow:
    """Sites {-L..L} with l(n) = n and a declared interior margin."""

    radius: int
    margin: int

    def __post_init__(self):
        if self.radius <= self.margin:
            raise WindowTooSmallError(
                f"window radius {self.radius} must exceed the margin {self.margin}"
            )
        if self.margin < 0:
            raise InvalidInputError("margin must be nonnegative")

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.radius, self.radius + 1)

    @property
    def size(self) -> int:
        return 2 * self.radius + 1

    def interior_mask(self) -> np.ndarray:
        return np.abs(self.sites) <= self.radius - self.margin


@dataclass
class CrossedElement:
    """Finitely supported map g -> algebra element."""

    terms: dict

    def __post_init__(self):
        filts = {a.filtration for a in self.terms.values()}
        if len(filts) > 1:
            raise InvalidInputError("all coefficients must share one filtration")

    @property
    def support_radius(self) -> int:
        return max((abs(g) for g in self.terms), default=0)

    def adjoint(self, action) -> "CrossedElement":
        out = {}
        for g, a in self.terms.items():
            img = apply_action(action, -g, a.adjoint())
            out[-g] = out[-g] + img if -g in out else img
        return CrossedElement(out)

    def multiply(self, other: "CrossedElement", action) -> "CrossedElement":
        out = {}
        for g, a in self.terms.items():
            for h, b in other.terms.items():
                term = a * apply_action(action, g, b)
                out[g + h] = out[g + h] + term if g + h in out else term
        return CrossedElement(out)


# ---------------------------------------------------------------------------
# the lifted triple
# ---------------------------------------------------------------------------


@dataclass
class LiftedTriple:
    base: tr.TruncatedTriple
    action: object
    window: GroupWindow
    t: np.ndarray = field(repr=False, default=None)         # diag(D (x) 1 - i (x) M_l)
    v_powers: np.ndarray = field(repr=False, default=None)  # V^g at index g + L, |g| <= L
    action_report: dict = None

    @property
    def half_dim(self) -> int:
        return self.base.dim * self.window.size

    @property
    def dim(self) -> int:
        return 2 * self.half_dim

    @property
    def m_l(self) -> np.ndarray:
        """Dense site-label multiplication 1 (x) M_l (built on demand; the code uses ``t``)."""
        return np.diag(np.repeat(self.window.sites, self.base.dim).astype(complex))

    @property
    def d_l(self) -> np.ndarray:
        """Dense lifted Dirac (built on demand; the code uses ``t``)."""
        zero = np.zeros((self.half_dim, self.half_dim), dtype=complex)
        return np.block([[zero, np.diag(self.t)], [np.diag(np.conj(self.t)), zero]])

    def site_block(self, r: int, c: int):
        d = self.base.dim
        s = self.window.radius
        return slice((r + s) * d, (r + s + 1) * d), slice((c + s) * d, (c + s + 1) * d)

    def interior_columns(self) -> np.ndarray:
        return np.repeat(self.window.interior_mask(), self.base.dim)


def build_lifted(
    base: tr.TruncatedTriple, action, radius: int, margin: int = 2
) -> LiftedTriple:
    """Assemble the lifted Dirac diagonal and the powers of the generator's unitary.

    A window whose dense half-window operator would exceed
    ``linalg.MAX_DENSE_BYTES`` is refused before anything is allocated.
    """
    if radius < 2:
        raise InvalidInputError("window radius must be at least 2")
    check_dense_bytes(
        16 * (base.dim * (2 * radius + 1)) ** 2, f"radius {radius}", "dense half-window operator"
    )
    report, v = _verified_generator(action, base)
    window = GroupWindow(radius, margin)
    # site-major flat index: site * dim + basis vector
    t = np.tile(base.d_diag, window.size) - 1j * np.repeat(window.sites, base.dim)
    powers = [np.eye(base.dim, dtype=complex)]
    for _ in range(radius):
        powers.append(powers[-1] @ v)
    # V is unitary, so V^-g is the adjoint of V^g
    v_powers = np.stack([np.conj(p).T for p in powers[:0:-1]] + powers)
    return LiftedTriple(base, action, window, t, v_powers, report)


def _site_images(lifted: LiftedTriple, x: CrossedElement, sites) -> np.ndarray:
    """Images V^-k pi(a_g) V^k of the terms of ``x`` at the row sites k asked for.

    ``sites`` broadcasts against ``(n_terms, 1)``: one row of sites shared by
    every term, or one row per term in ``x.terms`` order.  The result has the
    broadcast shape followed by ``(d, d)``.  The terms are represented with
    one ``represent_stack`` call.
    """
    r_max = x.support_radius
    if r_max > lifted.window.margin:
        raise WindowTooSmallError(
            f"support radius {r_max} exceeds the window margin {lifted.window.margin}"
        )
    base = lifted.base
    filt, n, d = base.filtration, base.depth, base.dim
    if any(a.filtration != filt for a in x.terms.values()):
        raise InvalidInputError("filtration mismatch")
    if not x.terms:
        return np.zeros(np.broadcast_shapes((0, 1), np.shape(sites)) + (d, d), dtype=complex)
    coeffs = np.array([a.embed(n).coeffs for a in x.terms.values()])
    pa = base.represent_stack(np.tensordot(coeffs, al.basis_stack(filt, n), axes=1))
    # v_powers[L + k] = V^k, and v_powers[L - k] = V^-k
    vp, rad = lifted.v_powers, lifted.window.radius
    return vp[rad - sites] @ pa[:, None] @ vp[rad + sites]


def represent_crossed(lifted: LiftedTriple, x: CrossedElement) -> np.ndarray:
    """Action of a crossed element on one copy of H (x) l2(window).

    The dense scatter of :func:`_site_images` over every site: term g fills
    site block (k, k - g) with its image at row site k.
    """
    images = _site_images(lifted, x, lifted.window.sites)
    rad, d, s = lifted.window.radius, lifted.base.dim, lifted.window.size
    out = np.zeros((s, d, s, d), dtype=complex)
    for i, g in enumerate(x.terms):
        tgt = np.arange(max(-rad, g - rad), min(rad, g + rad) + 1)
        out[tgt + rad, :, tgt - g + rad, :] += images[i, tgt + rad]
    return out.reshape(lifted.half_dim, lifted.half_dim)


def _interior_norm(lifted: LiftedTriple, blocks: np.ndarray, commutator: bool) -> float:
    """Norm on interior columns of the operator op with d x d site blocks
    ``blocks[r, :, c, :]`` (row site r, interior column site c).

    With ``commutator`` it is the norm of [D_l, op (+) op], the larger of its
    Hadamard blocks [diag(t), op] and [diag(conj t), op], which vanish where
    op's site blocks do.  A block-monomial op (one nonzero block per column,
    no two in one row site) is the direct sum of its blocks and costs one
    batched SVD of them; any other keeps its nonzero row sites for one SVD.
    """
    s, d, n, _ = blocks.shape
    nonzero = blocks.any(axis=(1, 3))  # NaN counts as nonzero
    rows = np.flatnonzero(nonzero.any(axis=1))
    if rows.size == n and np.all(nonzero.sum(axis=0) == 1):
        rows = nonzero.argmax(axis=0)
        part = blocks[rows, :, np.arange(n), :]
    else:
        part = blocks[rows].reshape(1, -1, n * d)
    del blocks  # a residual that no caller holds (covariance_check) is freed before the SVD
    if commutator:
        t, inner = lifted.t.reshape(s, d), lifted.window.interior_mask()
        t_r, t_c = t[rows].reshape(len(part), -1, 1), t[inner].reshape(len(part), 1, -1)
        part = np.concatenate([t_r * part - part * t_c,
                               np.conj(t_r) * part - part * np.conj(t_c)])
    return operator_norm(part)


def _interior_blocks(lifted: LiftedTriple, op: np.ndarray) -> np.ndarray:
    """Site blocks ``(s, d, n_interior, d)`` of the interior columns of ``op``."""
    s, d, m = lifted.window.size, lifted.base.dim, lifted.window.margin
    return op.reshape(s, d, s, d)[:, :, m:s - m, :]


def _lift_blocks(lifted: LiftedTriple, cocycle: Cocycle, beta, sigma: str, check_rigidity: bool):
    """Site blocks ``(rows, phase, u_beta)`` of the lifted unitary.

    Column site h holds the one block phase[h] * u_beta, in row site rows[h].
    Runs the rigidity and intertwining checks of :func:`lifted_unitary`.
    """
    if sigma not in ("id", "neg"):
        raise InvalidInputError("sigma must be 'id' or 'neg'")
    base = lifted.base
    if beta is None:
        u_beta = np.eye(base.dim, dtype=complex)
    elif check_rigidity:
        verdict = iso.iso_check(base, beta)
        if not verdict.in_iso:
            raise PreconditionError("beta is not in the rigid group of the base triple")
        u_beta = verdict.implementing_unitary
    else:
        image = iso.act(beta, base.filtration, base.gns.stack)
        u_beta = iso.implementing_unitary(base, base.gns.coordinates(image))

    # intertwining on the generator, beta o alpha_1 = alpha_{sigma(1)} o beta,
    # through the implementing unitaries: U_beta V = V^{sigma(1)} U_beta
    rad = lifted.window.radius
    v, v_sigma = lifted.v_powers[rad + 1], lifted.v_powers[rad + (1 if sigma == "id" else -1)]
    if norm_exceeds(u_beta @ v - v_sigma @ u_beta, TOL.structural):
        raise PreconditionError("intertwining beta o alpha_g = alpha_{sigma(g)} o beta fails")

    sites = lifted.window.sites
    tgt = sites if sigma == "id" else -sites
    # coefficient c_{sigma(-g)}^* = c_{-sigma(g)}^* on the site block (sigma(g), g)
    phase = np.conj([cocycle.value(-int(g)) for g in tgt])
    return tgt + rad, phase, u_beta


def lifted_unitary(
    lifted: LiftedTriple,
    cocycle: Cocycle,
    beta,
    sigma: str = "id",
    check_rigidity: bool = True,
) -> np.ndarray:
    """Unitary xi (x) delta_g -> (c_{sigma(-g)}* U_beta xi) (x) delta_{sigma(g)}.

    ``beta`` is an automorphism spec of the base (None for the identity).
    With ``check_rigidity`` the base verdict must be in the rigid group; the
    designed failure cases pass False to build the unitary anyway.
    """
    rows, phase, u_beta = _lift_blocks(lifted, cocycle, beta, sigma, check_rigidity)
    s, d = lifted.window.size, lifted.base.dim
    out = np.zeros((s, d, s, d), dtype=complex)
    out[rows, :, np.arange(s), :] = phase[:, None, None] * u_beta
    return out.reshape(lifted.half_dim, lifted.half_dim)


def lift_commutation_check(lifted: LiftedTriple, u_half: np.ndarray) -> dict:
    """Interior residual of [D_l, U (+) U]; passes at the crossed tolerance."""
    u_half = np.asarray(u_half)
    n = lifted.half_dim
    if u_half.shape != (n, n):
        raise InvalidInputError(f"expected a ({n}, {n}) half-window operator, got {u_half.shape}")
    resid = _interior_norm(lifted, _interior_blocks(lifted, u_half), True)
    return {"residual": float(resid), "passes": bool(resid <= TOL.crossed)}


def automorphism_image(
    lifted: LiftedTriple, cocycle: Cocycle, beta, sigma: str, x: CrossedElement
) -> CrossedElement:
    """The lifted automorphism on coefficients: sum beta(a_g) c_{sigma(g)} lambda_{sigma(g)}."""
    out = {}
    for g, a in x.terms.items():
        tgt = g if sigma == "id" else -g
        img = a.embed(a.filtration.depth) if beta is None else iso.apply_automorphism(beta, a)
        out[tgt] = img * cocycle.value(tgt)
    return CrossedElement(out)


def _covariance_blocks(lifted, cocycle, beta, sigma, x, check_rigidity) -> np.ndarray:
    """Interior-column site blocks of pi(Phi(x)) U - U pi(x).

    Only the nonzero site blocks are built.  Interior column c of U pi(x)
    holds phase[k] U_beta times the image of term g at row site k = c + g,
    placed in row site rows[k]; interior column c of pi(Phi(x)) U holds the
    image of term g' of Phi(x) at row site rows[c] + g', times
    phase[c] U_beta.
    """
    rows, phase, u_beta = _lift_blocks(lifted, cocycle, beta, sigma, check_rigidity)
    phi = automorphism_image(lifted, cocycle, beta, sigma, x)
    s, d, rad = lifted.window.size, lifted.base.dim, lifted.window.radius
    inner = np.flatnonzero(lifted.window.interior_mask())
    cols = np.arange(inner.size)
    # row-site indices, one row per term: k = c + g for pi(x), rows[c] + g' for pi(Phi(x))
    src = inner + np.array(list(x.terms), dtype=int)[:, None]
    tgt = rows[inner] + np.array(list(phi.terms), dtype=int)[:, None]
    diff = np.zeros((s, d, inner.size, d), dtype=complex)
    blocks = _site_images(lifted, phi, tgt - rad) * phase[inner, None, None]
    diff[tgt, :, cols, :] = (blocks.reshape(-1, d) @ u_beta).reshape(blocks.shape)
    blocks = u_beta @ _site_images(lifted, x, src - rad)
    diff[rows[src], :, cols, :] -= phase[src, None, None] * blocks
    return diff


def covariance_check(
    lifted: LiftedTriple,
    cocycle: Cocycle,
    beta,
    sigma: str,
    x: CrossedElement,
    check_rigidity: bool = True,
) -> dict:
    """Interior residual of pi(Phi(x)) U - U pi(x) on one block."""
    # no name holds the blocks, so the kernel frees them before its SVD
    resid = _interior_norm(
        lifted, _covariance_blocks(lifted, cocycle, beta, sigma, x, check_rigidity), False
    )
    return {"residual": float(resid), "passes": bool(resid <= TOL.crossed)}


def crossed_commutator_stability(base: tr.TruncatedTriple, action, x: CrossedElement) -> dict:
    """Interior commutator norms over five window radii, margin = the support radius r.

    The windows are finite sections of one block-Toeplitz operator, so the
    norms cannot decrease as the radius grows.  They settle at once for a
    single-term element, whose site blocks share one commutator norm; a longer
    element couples neighbouring columns, and its norms can keep growing
    (``stabilized`` False).  The generator is verified once, at the widest
    radius; each narrower window is its central part (sliced ``t``,
    ``v_powers`` and operator).
    """
    r = x.support_radius
    radii = list(range(max(r + 1, 2), r + 6))
    wide = build_lifted(base, action, radii[-1], r)
    d, s = base.dim, wide.window.size
    op = represent_crossed(wide, x).reshape(s, d, s, d)
    norms = []
    for rad in radii:
        sl = slice(radii[-1] - rad, radii[-1] + rad + 1)
        lifted = replace(wide, window=GroupWindow(rad, r), t=wide.t.reshape(s, d)[sl].ravel(),
                         v_powers=wide.v_powers[sl])
        norms.append(_interior_norm(lifted, _interior_blocks(lifted, op[sl, :, sl, :]), True))
    diffs = [abs(b - a) for a, b in zip(norms, norms[1:])]
    stable = all(step <= TOL.lift_stable for step in diffs[1:]) if len(diffs) > 1 else True
    return {"radii": radii, "norms": norms, "differences": diffs, "stabilized": stable}
