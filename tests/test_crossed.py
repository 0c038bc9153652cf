import tracemalloc

import numpy as np
import pytest

from afspectral import algebra as al
from afspectral import cli
from afspectral import crossed as cx
from afspectral import isometry as iso
from afspectral import triple as tr
from afspectral.errors import (
    InvalidInputError,
    PreconditionError,
    UnsupportedError,
    WindowTooSmallError,
)
from afspectral.linalg import operator_norm, random_unitary

from conftest import random_element

C3 = al.cantor(3)
F2 = al.uhf(2, 2)
CHI5 = complex(np.exp(2j * np.pi / 5))


@pytest.fixture(scope="module")
def odo_lift():
    base = tr.build_triple(C3, al.UniformState(), tr.dirac_explicit([1.0, 2.0, 4.0]))
    return cx.build_lifted(base, cx.OdometerAction(), radius=4, margin=2)


@pytest.fixture(scope="module")
def triv_lift():
    base = tr.build_triple(F2, al.TraceState(), tr.dirac_explicit([1.0, 2.0]))
    return cx.build_lifted(base, cx.TrivialAction(), radius=4, margin=2)


def test_dimensions():
    base = tr.build_triple(al.cantor(2), al.UniformState(), tr.dirac_explicit([1.0, 2.0]))
    lifted = cx.build_lifted(base, cx.TrivialAction(), radius=3, margin=1)
    assert lifted.dim == 2 * 4 * 7 == 56


def test_dirac_block_structure(odo_lift):
    d = odo_lift.d_l
    assert operator_norm(d - np.conj(d).T) < 1e-12
    half = odo_lift.half_dim
    grading = np.diag([1.0] * half + [-1.0] * half).astype(complex)
    assert operator_norm(d @ grading + grading @ d) < 1e-12
    ev = np.linalg.eigvalsh(d)
    assert np.allclose(np.sort(ev), np.sort(-ev), atol=1e-10)


def test_dirac_square_block_diagonal(odo_lift):
    d2 = odo_lift.d_l @ odo_lift.d_l
    half = odo_lift.half_dim
    assert operator_norm(d2[:half, half:]) < 1e-12
    assert operator_norm(d2[half:, :half]) < 1e-12
    base_sq = np.kron(
        np.eye(odo_lift.window.size, dtype=complex),
        np.diag(odo_lift.base.d_diag**2).astype(complex),
    )
    expected = base_sq + odo_lift.m_l @ odo_lift.m_l
    assert operator_norm(d2[:half, :half] - expected) < 1e-12


def test_action_verification_rejects_non_rigid():
    base3 = tr.build_triple(F2, al.TraceState(), tr.dirac_explicit([1.0, 2.0]))
    bad = cx.IsoPowerAction(iso.switch(1, 2, 2))
    with pytest.raises(InvalidInputError):
        cx.build_lifted(base3, bad, radius=3, margin=1)


def test_odometer_preserves_every_level(odo_lift):
    assert odo_lift.action_report["verified"]
    assert all(odo_lift.action_report["filtration_levels"])


def test_represent_trivial_lambda0(triv_lift, rng):
    a = random_element(F2, 2, rng)
    op = cx.represent_crossed(triv_lift, cx.CrossedElement({0: a}))
    expected = np.kron(
        np.eye(triv_lift.window.size, dtype=complex), triv_lift.base.represent(a)
    )
    assert operator_norm(op - expected) < 1e-12


def test_represent_lambda1_shifts_sites(odo_lift):
    one = al.identity_element(C3, 0).embed(3)
    op = cx.represent_crossed(odo_lift, cx.CrossedElement({1: one}))
    d = odo_lift.base.dim
    rows, cols = odo_lift.site_block(0, -1)
    assert operator_norm(op[rows, cols] - np.eye(d)) < 1e-12
    rows, cols = odo_lift.site_block(-1, 0)
    assert operator_norm(op[rows, cols]) < 1e-14


def test_covariance_of_representation(odo_lift, rng):
    a = random_element(C3, 3, rng)
    lam1 = cx.CrossedElement({1: al.identity_element(C3, 0).embed(3)})
    pa = cx.represent_crossed(odo_lift, cx.CrossedElement({0: a}))
    pl = cx.represent_crossed(odo_lift, lam1)
    shifted = cx.represent_crossed(
        odo_lift, cx.CrossedElement({0: cx.apply_action(cx.OdometerAction(), 1, a)})
    )
    mask = odo_lift.interior_columns()
    resid = operator_norm((pl @ pa @ np.conj(pl).T - shifted)[:, mask])
    assert resid < 1e-12


def test_window_too_small(odo_lift, rng):
    wide = cx.CrossedElement({3: random_element(C3, 3, rng)})
    with pytest.raises(WindowTooSmallError):
        cx.represent_crossed(odo_lift, wide)
    with pytest.raises(WindowTooSmallError):
        cx.GroupWindow(2, 2)


def test_cocycle_identity():
    c = cx.Cocycle(CHI5)
    for g in range(-6, 7):
        for h in range(-6, 7):
            assert c.value(g + h) == pytest.approx(c.value(g) * c.value(h), abs=1e-12)
    with pytest.raises(InvalidInputError):
        cx.Cocycle(2.0)


def test_lifted_unitary_identity_parameters(odo_lift):
    u = cx.lifted_unitary(odo_lift, cx.Cocycle(1.0), None, "id")
    assert operator_norm(u - np.eye(odo_lift.half_dim)) < 1e-12


def test_lifted_unitary_is_unitary(triv_lift, rng):
    beta = iso.random_local_automorphism(F2, rng)
    u = cx.lifted_unitary(triv_lift, cx.Cocycle(CHI5), beta, "id")
    assert operator_norm(np.conj(u).T @ u - np.eye(triv_lift.half_dim)) < 1e-10
    assert operator_norm(u @ triv_lift.m_l - triv_lift.m_l @ u) < 1e-12


def test_lifted_unitary_intertwining_guard(odo_lift, rng):
    # a generic portrait does not commute with the odometer
    bad = iso.TreePortrait(3, (0, 1, 0, 0, 0, 0, 0))
    with pytest.raises(PreconditionError):
        cx.lifted_unitary(odo_lift, cx.Cocycle(1.0), bad, "id")


def test_commutation_positive_cases(odo_lift, triv_lift, rng):
    cases = [
        (odo_lift, cx.Cocycle(1.0), None, "id"),
        (odo_lift, cx.Cocycle(1j), iso.odometer_portrait(3), "id"),
        (triv_lift, cx.Cocycle(CHI5), iso.random_local_automorphism(F2, rng), "id"),
    ]
    for lifted, coc, beta, sigma in cases:
        u = cx.lifted_unitary(lifted, coc, beta, sigma)
        rep = cx.lift_commutation_check(lifted, u)
        assert rep["passes"], rep


def test_commutation_negative_controls(triv_lift):
    # sigma = negation flips the site label: must fail loudly
    u_neg = cx.lifted_unitary(triv_lift, cx.Cocycle(1.0), None, "neg")
    rep = cx.lift_commutation_check(triv_lift, u_neg)
    assert not rep["passes"] and rep["residual"] > 0.1
    # beta outside the rigid group must fail too
    u_sw = cx.lifted_unitary(
        triv_lift, cx.Cocycle(1.0), iso.switch(1, 2, 2), "id", check_rigidity=False
    )
    rep = cx.lift_commutation_check(triv_lift, u_sw)
    assert not rep["passes"] and rep["residual"] > 0.1
    with pytest.raises(PreconditionError):
        cx.lifted_unitary(triv_lift, cx.Cocycle(1.0), iso.switch(1, 2, 2), "id")


def test_covariance_identity_parameters(triv_lift, rng):
    x = cx.CrossedElement({0: random_element(F2, 2, rng)})
    rep = cx.covariance_check(triv_lift, cx.Cocycle(1.0), None, "id", x)
    assert rep["residual"] == 0.0


def test_covariance_odometer(odo_lift, rng):
    x = cx.CrossedElement({1: random_element(C3, 3, rng)})
    rep = cx.covariance_check(odo_lift, cx.Cocycle(1j), None, "id", x)
    assert rep["passes"] and rep["residual"] < 1e-10


def test_covariance_generic_support(triv_lift, rng):
    x = cx.CrossedElement({g: random_element(F2, 2, rng) for g in (-2, -1, 0, 1, 2)})
    rep = cx.covariance_check(
        triv_lift, cx.Cocycle(CHI5), iso.random_local_automorphism(F2, rng), "id", x
    )
    assert rep["passes"], rep


def test_covariance_negation_still_implements(triv_lift, rng):
    # sigma = neg fails commutation but the unitary still implements the map
    x = cx.CrossedElement({g: random_element(F2, 2, rng) for g in (-1, 2)})
    rep = cx.covariance_check(triv_lift, cx.Cocycle(CHI5), None, "neg", x)
    assert rep["passes"], rep


@pytest.mark.parametrize("sigma", ["id", "neg"])
def test_lifted_unitary_equals_kron_of_site_matrix(sigma, odo_lift, triv_lift, rng):
    """The block scatter equals the Kronecker form, site matrix (x) U_beta."""
    cases = [
        (triv_lift, iso.random_local_automorphism(F2, rng)),
        # the complement of every digit turns the odometer into its inverse
        (odo_lift, iso.odometer_portrait(3) if sigma == "id" else iso.TreePortrait(3, (1,) * 7)),
    ]
    for lifted, beta in cases:
        coc = cx.Cocycle(CHI5)
        u = cx.lifted_unitary(lifted, coc, beta, sigma)
        rows, phase, u_beta = cx._lift_blocks(lifted, coc, beta, sigma, True)
        site = np.zeros((lifted.window.size,) * 2, dtype=complex)
        site[rows, np.arange(lifted.window.size)] = phase
        assert np.array_equal(u, np.kron(site, u_beta))


def test_lifted_unitary_memory_below_kron_form(triv_lift, rng):
    args = (triv_lift, cx.Cocycle(CHI5), iso.random_local_automorphism(F2, rng), "id")
    cx.lifted_unitary(*args, check_rigidity=False)  # fills the basis-stack caches
    tracemalloc.start()
    try:
        u = cx.lifted_unitary(*args, check_rigidity=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # np.kron of the dense site matrix peaks at 1.69 times the result
    assert peak < 1.5 * u.nbytes


def test_lifted_group_law(odo_lift):
    odo = iso.odometer_portrait(3)
    u1 = cx.lifted_unitary(odo_lift, cx.Cocycle(1j), odo, "id")
    u2 = cx.lifted_unitary(odo_lift, cx.Cocycle(CHI5), odo, "id")
    combined = cx.lifted_unitary(
        odo_lift, cx.Cocycle(1j * CHI5), iso.compose(odo, odo), "id"
    )
    assert operator_norm(u1 @ u2 - combined) < 1e-10


def test_crossed_element_star_algebra(odo_lift, rng):
    action = cx.OdometerAction()
    x = cx.CrossedElement({g: random_element(C3, 3, rng) for g in (-1, 0, 1)})
    mask = odo_lift.interior_columns()
    adj_resid = operator_norm(
        (cx.represent_crossed(odo_lift, x.adjoint(action))
         - np.conj(cx.represent_crossed(odo_lift, x)).T)[:, mask]
    )
    assert adj_resid < 1e-10
    base = odo_lift.base
    wide = cx.build_lifted(base, action, radius=6, margin=4)
    prod = x.multiply(x, action)
    resid = operator_norm(
        (cx.represent_crossed(wide, prod)
         - cx.represent_crossed(wide, x) @ cx.represent_crossed(wide, x))[
            :, wide.interior_columns()
        ]
    )
    assert resid < 1e-10


def test_stability_lambda0(odo_lift, rng):
    a = random_element(C3, 3, rng)
    x = cx.CrossedElement({0: a})
    rep = cx.crossed_commutator_stability(odo_lift.base, cx.OdometerAction(), x)
    assert rep["stabilized"]
    assert max(rep["differences"], default=0.0) < 1e-10
    assert rep["norms"][0] == pytest.approx(odo_lift.base.commutator_norm(a), abs=1e-10)


def test_stability_pure_shift(odo_lift):
    one = al.identity_element(C3, 0).embed(3)
    rep = cx.crossed_commutator_stability(odo_lift.base, cx.OdometerAction(),
                                          cx.CrossedElement({1: one}))
    assert rep["stabilized"]
    assert all(abs(v - 1.0) < 1e-10 for v in rep["norms"])


def test_stability_zero_element(odo_lift):
    zero = al.AlgebraElement(C3, 3, np.zeros(8))
    rep = cx.crossed_commutator_stability(odo_lift.base, cx.OdometerAction(),
                                          cx.CrossedElement({0: zero}))
    assert all(v == 0.0 for v in rep["norms"])


def test_iso_power_action_lifts(rng):
    # integer action generated by a rigid tensor-slot automorphism
    base = tr.build_triple(F2, al.TraceState(), tr.dirac_explicit([1.0, 2.0]))
    gen = iso.random_local_automorphism(F2, rng)
    action = cx.IsoPowerAction(gen)
    lifted = cx.build_lifted(base, action, radius=3, margin=1)
    assert lifted.action_report["verified"]
    # the generator commutes with its own powers, so it lifts with sigma = id
    u = cx.lifted_unitary(lifted, cx.Cocycle(CHI5), gen, "id")
    assert cx.lift_commutation_check(lifted, u)["passes"]
    x = cx.CrossedElement({-1: random_element(F2, 2, rng), 1: random_element(F2, 2, rng)})
    rep = cx.covariance_check(lifted, cx.Cocycle(1j), gen, "id", x)
    assert rep["passes"], rep


# ---------------------------------------------------------------------------
# diagonal lifted Dirac and implementing-unitary powers against dense references
# ---------------------------------------------------------------------------


def _dense_interior_commutator(lifted, op):
    """||[D_l, op (+) op]|| on interior columns, from the dense lifted Dirac."""
    z = np.zeros_like(op)
    op2 = np.block([[op, z], [z, op]])
    comm = lifted.d_l @ op2 - op2 @ lifted.d_l
    mask = lifted.interior_columns()
    return operator_norm(comm[:, np.concatenate([mask, mask])])


def _represent_by_automorphisms(lifted, x):
    """Per-site reference: block (g + h, h) holds pi(alpha_{-(g+h)}(a_g))."""
    out = np.zeros((lifted.half_dim, lifted.half_dim), dtype=complex)
    rad = lifted.window.radius
    for g, a in x.terms.items():
        for h in range(-rad, rad + 1):
            if abs(g + h) <= rad:
                image = cx.apply_action(lifted.action, -(g + h), a)
                rows, cols = lifted.site_block(g + h, h)
                out[rows, cols] += lifted.base.represent(image)
    return out


def _iso_power_lift(rng):
    base = tr.build_triple(F2, al.TraceState(), tr.dirac_explicit([1.0, 2.0]))
    gen = iso.random_local_automorphism(F2, rng)
    return cx.build_lifted(base, cx.IsoPowerAction(gen), radius=4, margin=2), gen


def _lift_cases(odo_lift, triv_lift, rng):
    """(lifted, cocycle, beta, sigma, commutation passes) over both actions and controls."""
    pow_lift, gen = _iso_power_lift(rng)
    return [
        (odo_lift, cx.Cocycle(1.0), None, "id", True),
        (odo_lift, cx.Cocycle(1j), iso.odometer_portrait(3), "id", True),
        (triv_lift, cx.Cocycle(CHI5), iso.random_local_automorphism(F2, rng), "id", True),
        (pow_lift, cx.Cocycle(CHI5), gen, "id", True),
        # designed failures: label-flipping sigma and a non-rigid beta
        (triv_lift, cx.Cocycle(1.0), None, "neg", False),
        (triv_lift, cx.Cocycle(1.0), iso.switch(1, 2, 2), "id", False),
    ]


def test_commutation_check_matches_dense_definition(odo_lift, triv_lift, rng):
    for lifted, coc, beta, sigma, passes in _lift_cases(odo_lift, triv_lift, rng):
        u = cx.lifted_unitary(lifted, coc, beta, sigma, check_rigidity=False)
        rep = cx.lift_commutation_check(lifted, u)
        ref = _dense_interior_commutator(lifted, u)
        assert rep["passes"] is passes
        assert abs(rep["residual"] - ref) <= 1e-12 * max(ref, 1.0)


def test_covariance_check_matches_dense_definition(odo_lift, triv_lift, rng):
    for lifted, coc, beta, sigma, _ in _lift_cases(odo_lift, triv_lift, rng):
        filt = lifted.base.filtration
        x = cx.CrossedElement({g: random_element(filt, filt.depth, rng) for g in range(-2, 3)})
        u = cx.lifted_unitary(lifted, coc, beta, sigma, check_rigidity=False)
        lhs = cx.represent_crossed(lifted, cx.automorphism_image(lifted, coc, beta, sigma, x))
        rhs = cx.represent_crossed(lifted, x)
        ref = operator_norm((lhs @ u - u @ rhs)[:, lifted.interior_columns()])
        rep = cx.covariance_check(lifted, coc, beta, sigma, x, check_rigidity=False)
        assert abs(rep["residual"] - ref) <= 1e-12 * max(ref, 1.0)


def test_commutation_check_of_a_dense_unitary(triv_lift, rng):
    # no zero site block: the whole interior is one component
    u = random_unitary(triv_lift.half_dim, rng)
    ref = _dense_interior_commutator(triv_lift, u)
    rep = cx.lift_commutation_check(triv_lift, u)
    assert abs(rep["residual"] - ref) <= 1e-12 * max(ref, 1.0)
    assert not rep["passes"]


def test_commutation_check_rejects_non_finite_entries(triv_lift, rng):
    block = cx.lifted_unitary(triv_lift, cx.Cocycle(CHI5), None, "id")
    dense = random_unitary(triv_lift.half_dim, rng)
    col = np.flatnonzero(triv_lift.interior_columns())[3]
    for u in (block, dense):
        u = u.copy()
        u[col, col] = np.nan
        with pytest.raises(InvalidInputError):
            cx.lift_commutation_check(triv_lift, u)


def test_oversized_window_refused_before_allocation():
    base = tr.build_triple(al.cantor(1), al.UniformState(), tr.dirac_explicit([1.0]))
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedError, match=r"MiB dense half-window operator"):
            cx.build_lifted(base, cx.OdometerAction(), radius=10**6, margin=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oversized_window_exits_with_usage_error(capsys):
    argv = ["crossed-lift", "--action", "odometer", "--depth", "1", "--lambda", "1",
            "--radius", str(10**6)]
    assert cli.main(argv) == 2
    assert "MiB dense half-window operator" in capsys.readouterr().err


def test_stability_norms_match_dense_definition(odo_lift, rng):
    x = cx.CrossedElement({g: random_element(C3, 3, rng) for g in (-1, 0, 1)})
    rep = cx.crossed_commutator_stability(odo_lift.base, cx.OdometerAction(), x)
    for rad, norm in zip(rep["radii"], rep["norms"]):
        lifted = cx.build_lifted(odo_lift.base, cx.OdometerAction(), rad, x.support_radius)
        ref = _dense_interior_commutator(lifted, cx.represent_crossed(lifted, x))
        assert abs(norm - ref) <= 1e-12 * max(ref, 1.0)


def test_represent_matches_per_site_automorphisms(odo_lift, rng):
    pow_lift, _ = _iso_power_lift(rng)
    for lifted, filt in ((odo_lift, C3), (pow_lift, F2)):
        x = cx.CrossedElement({g: random_element(filt, filt.depth, rng) for g in (-2, -1, 0, 1, 2)})
        ref = _represent_by_automorphisms(lifted, x)
        assert operator_norm(cx.represent_crossed(lifted, x) - ref) <= 1e-12 * operator_norm(ref)


# ---------------------------------------------------------------------------
# covariance residuals from the nonzero site blocks
# ---------------------------------------------------------------------------


def _dense_covariance(lifted, coc, beta, sigma, x, image):
    """||pi(image) U - U pi(x)|| on interior columns, from dense window operators."""
    u = cx.lifted_unitary(lifted, coc, beta, sigma, check_rigidity=False)
    lhs = cx.represent_crossed(lifted, image)
    rhs = cx.represent_crossed(lifted, x)
    return operator_norm((lhs @ u - u @ rhs)[:, lifted.interior_columns()])


def _covariance_case(name, odo_lift, triv_lift, rng):
    """(lifted, cocycle, beta, sigma, x) at margin 2 for one named case."""
    def element(lifted, sites, level=None):
        filt = lifted.base.filtration
        return cx.CrossedElement(
            {g: random_element(filt, filt.depth if level is None else level, rng) for g in sites}
        )

    local = iso.random_local_automorphism(F2, rng)
    if name.startswith("radius"):
        r = int(name[-1])
        return triv_lift, cx.Cocycle(CHI5), local, "id", element(triv_lift, range(-r, r + 1))
    if name == "gap":
        return odo_lift, cx.Cocycle(1j), iso.odometer_portrait(3), "id", element(odo_lift, (-2, 2))
    if name == "below-depth":
        x = element(odo_lift, (-1, 1))
        x.terms[0] = random_element(C3, 1, rng)
        return odo_lift, cx.Cocycle(CHI5), None, "id", x
    assert name == "neg-rigid"
    return triv_lift, cx.Cocycle(CHI5), local, "neg", element(triv_lift, (-2, -1, 0, 2))


COVARIANCE_CASES = ["radius0", "radius1", "radius2", "gap", "below-depth", "neg-rigid"]


@pytest.mark.parametrize("name", COVARIANCE_CASES)
def test_covariance_check_matches_dense_cases(name, odo_lift, triv_lift, rng):
    lifted, coc, beta, sigma, x = _covariance_case(name, odo_lift, triv_lift, rng)
    assert lifted.window.margin == 2
    image = cx.automorphism_image(lifted, coc, beta, sigma, x)
    ref = _dense_covariance(lifted, coc, beta, sigma, x, image)
    rep = cx.covariance_check(lifted, coc, beta, sigma, x)
    assert abs(rep["residual"] - ref) <= 1e-12 * max(ref, 1.0)
    assert rep["passes"]


@pytest.mark.parametrize("name", COVARIANCE_CASES)
def test_covariance_check_measures_any_image(name, odo_lift, triv_lift, rng, monkeypatch):
    # an unrelated image with its own support makes every block of the
    # residual count: a dropped or misplaced block changes the norm
    lifted, coc, beta, sigma, x = _covariance_case(name, odo_lift, triv_lift, rng)
    filt = lifted.base.filtration
    other = cx.CrossedElement({g: random_element(filt, filt.depth, rng) for g in (-2, 0, 1)})
    monkeypatch.setattr(cx, "automorphism_image", lambda *args: other)
    ref = _dense_covariance(lifted, coc, beta, sigma, x, other)
    rep = cx.covariance_check(lifted, coc, beta, sigma, x)
    assert ref > 0.1
    assert abs(rep["residual"] - ref) <= 1e-12 * ref


def test_zero_crossed_element(odo_lift, triv_lift, rng):
    zero = cx.CrossedElement({})
    for lifted in (odo_lift, triv_lift):
        op = cx.represent_crossed(lifted, zero)
        assert op.shape == (lifted.half_dim, lifted.half_dim) and not op.any()
    beta = iso.random_local_automorphism(F2, rng)
    rep = cx.covariance_check(triv_lift, cx.Cocycle(CHI5), beta, "neg", zero)
    assert rep == {"residual": 0.0, "passes": True}
    rep = cx.crossed_commutator_stability(odo_lift.base, cx.OdometerAction(), zero)
    assert rep["norms"] and all(v == 0.0 for v in rep["norms"])
    assert rep["stabilized"]


@pytest.mark.parametrize("chi", ["nan", "nan+1j"])
def test_nan_cocycle_rejected(chi, capsys):
    with pytest.raises(InvalidInputError, match="unit modulus"):
        cx.Cocycle(complex(chi))
    argv = ["crossed-lift", "--action", "trivial", "--family", "uhf", "--k", "2",
            "--depth", "2", "--lambda", "1,2", "--chi", chi]
    assert cli.main(argv) == 2
    assert "character must have unit modulus" in capsys.readouterr().err


def test_commutation_check_rejects_wrong_shape(triv_lift):
    n = triv_lift.half_dim
    for u in (np.eye(n - 1), np.eye(n)[:, :-1], np.eye(n).ravel()):
        with pytest.raises(InvalidInputError, match=rf"\({n}, {n}\)"):
            cx.lift_commutation_check(triv_lift, u)


def test_covariance_check_memory_below_two_dense_half_windows(triv_lift, rng):
    # radius 4, uhf depth 2: one dense half-window operator is 16 half_dim^2 bytes
    assert (triv_lift.window.radius, triv_lift.base.depth) == (4, 2)
    x = cx.CrossedElement({g: random_element(F2, 2, rng) for g in (-1, 0, 1)})
    args = (triv_lift, cx.Cocycle(CHI5), iso.random_local_automorphism(F2, rng), "id", x)
    cx.covariance_check(*args, check_rigidity=False)  # fills the basis-stack caches
    tracemalloc.start()
    try:
        cx.covariance_check(*args, check_rigidity=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * triv_lift.half_dim**2 == 663_552


# ---------------------------------------------------------------------------
# the interior norm kernel and the one-window stability report
# ---------------------------------------------------------------------------


def test_interior_norm_columns_sharing_a_row_site(triv_lift, rng):
    # every interior column holds one nonzero block, but the last two share a
    # row site: the operator is not a direct sum of its blocks
    s, d = triv_lift.window.size, triv_lift.base.dim
    inner = np.flatnonzero(triv_lift.window.interior_mask())
    rows = inner.copy()
    rows[-1] = rows[-2]
    op = np.zeros((s, d, s, d), dtype=complex)
    for r, c in zip(rows, inner):
        op[r, :, c, :] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    op = op.reshape(triv_lift.half_dim, -1)
    ref = _dense_interior_commutator(triv_lift, op)
    rep = cx.lift_commutation_check(triv_lift, op)
    assert abs(rep["residual"] - ref) <= 1e-12 * ref

    # a split into single blocks would report the largest single-block norm
    mask = triv_lift.interior_columns()
    split = 0.0
    for c in inner:
        single = np.zeros_like(op)
        cols = triv_lift.site_block(0, c - triv_lift.window.radius)[1]
        single[:, cols] = op[:, cols]
        split = max(split, _dense_interior_commutator(triv_lift, single))
    assert ref > split + 0.1

    blocks = cx._interior_blocks(triv_lift, op)
    plain = cx._interior_norm(triv_lift, blocks, False)
    assert abs(plain - operator_norm(op[:, mask])) <= 1e-12 * plain


def _parity_split(rng):
    # lambda_-1 and lambda_1 terms: even columns reach odd rows and odd columns even rows
    return cx.CrossedElement({-1: random_element(C3, 3, rng), 1: random_element(C3, 3, rng)})


def test_stability_parity_split_matches_dense(odo_lift, rng):
    x = _parity_split(rng)
    rep = cx.crossed_commutator_stability(odo_lift.base, cx.OdometerAction(), x)
    for rad, norm in zip(rep["radii"], rep["norms"]):
        lifted = cx.build_lifted(odo_lift.base, cx.OdometerAction(), rad, x.support_radius)
        ref = _dense_interior_commutator(lifted, cx.represent_crossed(lifted, x))
        assert abs(norm - ref) <= 1e-12 * max(ref, 1.0)


def test_stability_two_terms_non_decreasing(odo_lift, rng):
    # finite sections of one block-Toeplitz operator: norms grow with the window
    rep = cx.crossed_commutator_stability(odo_lift.base, cx.OdometerAction(), _parity_split(rng))
    norms = rep["norms"]
    assert all(b >= a - 1e-12 * a for a, b in zip(norms, norms[1:]))
    assert norms[-1] - norms[0] > 0.1
    assert not rep["stabilized"]


def test_stability_verifies_the_generator_once(odo_lift, rng, monkeypatch):
    calls = []
    real = iso.iso_check

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(iso, "iso_check", counted)
    x = cx.CrossedElement({g: random_element(C3, 3, rng) for g in (-1, 0, 1)})
    rep = cx.crossed_commutator_stability(odo_lift.base, cx.OdometerAction(), x)
    assert len(rep["radii"]) == 5
    assert len(calls) == 1
