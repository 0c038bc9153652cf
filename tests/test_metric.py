import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from afspectral import algebra as al
from afspectral import isometry as iso
from afspectral import linalg
from afspectral import metric as mt
from afspectral import triple as tr
from afspectral.errors import (
    InvalidInputError,
    PreconditionError,
    UnboundedObjectiveError,
    UnsupportedError,
)

from conftest import random_element

F1 = al.uhf(2, 1)
F3 = al.uhf(2, 3)
C3 = al.cantor(3)

FAST = mt.SolverConfig(max_iter=300)


def _normalized_vector(filt, level, rng):
    v = random_element(filt, level, rng)
    nrm = al.TraceState().value(v.adjoint() * v)
    return v * (1.0 / np.sqrt(nrm.real))


# ---------------------------------------------------------------------------
# search-level reduction
# ---------------------------------------------------------------------------


def test_reduce_trace_vs_level1_vector(uhf3):
    v = mt.car_vector(F3, 3)
    p = mt.DistanceProblem(uhf3, al.TraceState(), al.VectorState(v))
    assert mt.reduce_search_level(p).search_level == 1


def test_reduce_trace_vs_trace(uhf3):
    p = mt.reduce_search_level(mt.DistanceProblem(uhf3, al.TraceState(), al.TraceState()))
    assert p.search_level == 0
    res = mt.distance(p)
    assert res.lower_bound == 0.0 and res.upper_bound == 0.0


def test_reduce_characters_keep_full_depth(cantor3):
    p = mt.DistanceProblem(cantor3, al.CharacterState((0, 0, 0)), al.CharacterState((1, 0, 1)))
    assert mt.reduce_search_level(p).search_level == 3


def test_reduction_preserves_value(uhf3, rng):
    v = _normalized_vector(F3, 2, rng)
    phi = al.VectorState(v)
    reduced = mt.reduce_search_level(mt.DistanceProblem(uhf3, phi, al.TraceState()))
    assert reduced.search_level == 2
    d_red = mt.distance(reduced, FAST).lower_bound
    d_full = mt.distance(
        mt.DistanceProblem(uhf3, phi, al.TraceState(), search_level=3), FAST
    ).lower_bound
    assert d_red == pytest.approx(d_full, abs=1e-7)


def test_no_reduction_for_product_reference(rng):
    rho = np.array([[0.7, 0.0], [0.0, 0.3]])
    f2 = al.uhf(2, 2)
    t = tr.build_triple(f2, al.ProductState([rho, rho]), tr.dirac_explicit([1, 2]))
    p = mt.DistanceProblem(t, al.TraceState(), al.VectorState(mt.car_vector(f2, 3)))
    assert mt.reduce_search_level(p).search_level == 2  # unchanged


# ---------------------------------------------------------------------------
# golden distances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [[1.0], [2.5], [0.7]])
def test_worked_example_distance(lam):
    """d(phi_v, trace) = 1/lambda_1 for the matched level-1 vector."""
    rec = mt.car_golden_case(lam, 0, 3)
    assert rec["upper_bound"] == 1.0 / lam[0]
    assert mt.closed(rec["upper_bound"], rec["lower_bound"])
    assert rec["lower_bound"] <= rec["upper_bound"] + 1e-9


def test_golden_case_search_level():
    rec = mt.car_golden_case([1.0, 2.0], 1, 2)
    assert rec["search_level"] == 2
    assert rec["upper_bound"] == 0.5


def test_distance_result_witness_is_feasible(uhf3):
    v = al.shift_embed(mt.car_vector(F3, 1), 1)
    p = mt.reduce_search_level(mt.DistanceProblem(uhf3, al.VectorState(v), al.TraceState()))
    res = mt.distance(p, FAST)
    assert uhf3.commutator_norm(res.witness) <= 1.0 + 1e-9
    attained = abs(
        complex(al.VectorState(v).value(res.witness) - al.TraceState().value(res.witness))
    )
    assert attained >= res.lower_bound - 1e-9


def test_distance_symmetry(cantor3):
    s1, s2 = al.CharacterState((0, 1, 0)), al.CharacterState((1, 1, 0))
    d12 = mt.distance(mt.reduce_search_level(mt.DistanceProblem(cantor3, s1, s2)), FAST)
    d21 = mt.distance(mt.reduce_search_level(mt.DistanceProblem(cantor3, s2, s1)), FAST)
    assert d12.lower_bound == pytest.approx(d21.lower_bound, abs=2e-6)


def test_constraint_homogeneity(uhf3, rng):
    p = mt.DistanceProblem(uhf3, al.TraceState(), al.VectorState(mt.car_vector(F3, 3)))
    c, B, _ = mt._search_space(p)
    cons = mt._ConstraintMap(B)
    t = rng.normal(size=len(c))
    g2, g1, gm = cons.norms(np.array([2.0 * t, t, -t]))
    assert g2 == pytest.approx(2.0 * g1, rel=1e-13)
    assert gm == pytest.approx(g1, rel=1e-13)


def test_parameter_cap(uhf3, monkeypatch):
    # the full-level stack acts 63 traceless elements on 64 basis vectors:
    # 63 * 64**2 complex entries, 4,128,768 bytes
    need = 16 * 63 * 64**2
    p = mt.DistanceProblem(uhf3, al.TraceState(), al.VectorState(mt.car_vector(F3, 3)))
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", need - 1)
    with pytest.raises(UnsupportedError, match=r"search level 3 needs a 3\.94 MiB commutator stack"):
        mt.distance(p)
    with pytest.raises(UnsupportedError, match=r"3\.94 MiB"):
        mt.brute_force_distance(p)
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", need)
    assert mt._search_space(p)[1].shape == (63, 64, 64)


def _refuse_stack(*_):
    raise AssertionError("the commutator stack was assembled")


def test_memory_limit_refuses_before_allocation(monkeypatch):
    # uhf depth 5 at full level: 1023 * 1024**2 * 16 bytes, about 17 GB; a
    # patched represent_stack makes a missing guard fail instead of allocating
    monkeypatch.setattr(tr.TruncatedTriple, "represent_stack", _refuse_stack)
    f5 = al.uhf(2, 5)
    t5 = tr.build_triple(f5, al.TraceState(), tr.dirac_power(2.0, 5))
    p = mt.DistanceProblem(t5, al.VectorState(mt.car_vector(f5, 3)), al.TraceState())
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedError, match=r"search level 5 needs a 1\.64e\+04 MiB"):
            mt.distance(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_memory_limit_allows_uhf_depth4_full_level(uhf4, monkeypatch):
    # 255 * 256**2 * 16 bytes, about 267 MB, is under the limit: the guard
    # lets it through to the stack assembly (stubbed here)
    assert 16 * 255 * 256**2 <= linalg.MAX_DENSE_BYTES
    monkeypatch.setattr(tr.TruncatedTriple, "represent_stack", _refuse_stack)
    p = mt.DistanceProblem(uhf4, al.VectorState(mt.car_vector(uhf4.filtration, 3)), al.TraceState())
    with pytest.raises(AssertionError, match="assembled"):
        mt.distance(p)


def _c_by_elements(problem):
    """The objective vector one basis element at a time, as s1(e) - s2(e)."""
    filt, sl = problem.triple.filtration, problem.search_level
    c = []
    for pos in range(1, filt.dim(sl)):
        e = al.AlgebraElement(filt, sl, np.eye(filt.dim(sl))[pos])
        c.append(complex(problem.s1.value(e) - problem.s2.value(e)).real)
    return np.array(c)


def test_objective_matches_element_loop(uhf3, cantor3, rng):
    t2 = tr.build_triple(al.uhf(2, 2), al.TraceState(), tr.dirac_explicit([1.0, 2.0]))
    cases = [
        (cantor3, al.CharacterState((0, 1, 0)), al.UniformState()),
        (cantor3, al.CharacterState((0, 1, 0)), al.CharacterState((1, 1, 0))),
        (uhf3, al.VectorState(_normalized_vector(F3, 2, rng)), al.TraceState()),
        (uhf3, al.VectorState(al.shift_embed(mt.car_vector(F3, 1), 1)),
         al.VectorState(mt.car_vector(F3, 2))),
        (t2, iso.PulledBackState(al.VectorState(_normalized_vector(al.uhf(2, 2), 1, rng)),
                                 iso.random_local_automorphism(al.uhf(2, 2), rng)),
         al.TraceState()),
    ]
    for triple, s1, s2 in cases:
        for problem in (mt.DistanceProblem(triple, s1, s2),
                        mt.reduce_search_level(mt.DistanceProblem(triple, s1, s2))):
            c = mt._search_space(problem)[0]
            assert c.dtype == float and c.flags.c_contiguous
            assert np.array_equal(c, _c_by_elements(problem))


def test_objective_rejects_non_real_difference(uhf3):
    # a functional with an imaginary value on a self-adjoint basis element
    class Skewed(al.State):
        def basis_values(self, filtration, level):
            vals = al.TraceState().basis_values(filtration, level).copy()
            vals[1] = 1j
            return vals

    with pytest.raises(InvalidInputError, match="state difference not real"):
        mt._search_space(mt.DistanceProblem(uhf3, Skewed(), al.TraceState()))


def test_solver_determinism(uhf3, rng):
    v = _normalized_vector(F3, 2, rng)
    p = mt.reduce_search_level(mt.DistanceProblem(uhf3, al.VectorState(v), al.TraceState()))
    r1 = mt.distance(p, mt.SolverConfig())
    r2 = mt.distance(p, mt.SolverConfig())
    assert r1.lower_bound == r2.lower_bound
    assert np.array_equal(r1.witness.coeffs, r2.witness.coeffs)
    assert r1.diagnostics == r2.diagnostics


# ---------------------------------------------------------------------------
# norm kernel and starts
# ---------------------------------------------------------------------------


def _uhf_stack(uhf3, rng):
    v = _normalized_vector(F3, 2, rng)
    c, B, _ = mt._search_space(mt.DistanceProblem(uhf3, al.VectorState(v), al.TraceState(), search_level=2))
    return c, B


def _cantor_stack(cantor3):
    p = mt.DistanceProblem(cantor3, al.CharacterState((0, 1, 0)), al.CharacterState((1, 1, 0)))
    c, B, _ = mt._search_space(p)
    return c, B


@pytest.mark.parametrize("family", ["uhf", "cantor", "product"])
def test_search_space_matches_per_element_commutators(family, uhf3, cantor3, rng):
    if family == "cantor":
        t3, s1, s2 = cantor3, al.CharacterState((0, 1, 0)), al.CharacterState((1, 1, 0))
    elif family == "uhf":
        t3, s1, s2 = uhf3, al.VectorState(_normalized_vector(F3, 3, rng)), al.TraceState()
    else:
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        f2 = al.uhf(2, 2)
        t3 = tr.build_triple(f2, al.ProductState([rho, rho]), tr.dirac_explicit([1, 2]))
        s1, s2 = al.TraceState(), al.VectorState(mt.car_vector(f2, 3))
    filt = t3.filtration
    for level in range(1, t3.depth + 1):
        _, B, idxs = mt._search_space(mt.DistanceProblem(t3, s1, s2, search_level=level))
        mask = t3.gns.grades <= level
        ref = []
        for pos in range(1, len(idxs)):
            e = al.AlgebraElement(filt, level, np.eye(len(idxs))[pos])
            ref.append(t3.commutator(e)[np.ix_(mask, mask)])
        assert np.array_equal(B, np.stack(ref))


@pytest.mark.parametrize("family", ["uhf", "cantor"])
def test_kernel_norms_match_svd(family, uhf3, cantor3, rng):
    c, B = _uhf_stack(uhf3, rng) if family == "uhf" else _cantor_stack(cantor3)
    if family == "cantor":
        assert np.all(B.imag == 0)  # real antisymmetric: eigenvalues in +- pairs
    else:
        assert np.any(B.imag != 0)
    T = rng.normal(size=(12, len(c)))
    ref = np.linalg.svd(np.tensordot(T, B, axes=1), compute_uv=False)[:, 0]
    got = mt._ConstraintMap(B).norms(T)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family", ["uhf", "cantor"])
def test_kernel_zero_row_gives_zero(family, uhf3, cantor3, rng):
    c, B = _uhf_stack(uhf3, rng) if family == "uhf" else _cantor_stack(cantor3)
    cons = mt._ConstraintMap(B)
    assert cons.real == (family == "cantor")
    T = np.vstack([np.zeros(len(c)), rng.normal(size=len(c))])
    with np.errstate(all="raise"):
        norms = cons.norms(T)
    assert norms[0] == 0.0 and norms[1] > 0.0


@pytest.mark.parametrize("family", ["uhf", "cantor"])
def test_frobenius_start_maximizes_frobenius_ratio(family, uhf3, cantor3, rng):
    """t0 = G^+ c attains sqrt(c^T G^+ c) = max (c . t)/||M(t)||_F, and its
    spectral ratio is at least that."""
    c, B = _uhf_stack(uhf3, rng) if family == "uhf" else _cantor_stack(cantor3)
    cons = mt._ConstraintMap(B)
    t0 = cons.frobenius_start(c)
    T = np.vstack([t0, rng.normal(size=(50, len(c))), c])
    M = cons.images(T)
    frob = T @ c / np.linalg.norm(M, axis=(1, 2))
    assert np.all(frob[0] >= frob[1:] * (1 - 1e-13))
    G = np.real(np.einsum("iab,jab->ij", np.conj(B), B))
    assert frob[0] == pytest.approx(np.sqrt(c @ np.linalg.pinv(G) @ c), rel=1e-12)
    assert (t0 @ c) / cons.norms(t0[None])[0] >= frob[0] * (1 - 1e-13)


def test_kernel_rejects_non_antihermitian_stack(rng):
    B = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    with pytest.raises(InvalidInputError):
        mt._ConstraintMap(B)


@pytest.mark.parametrize(
    "bs, c",
    [
        ([[[0.0, 1.0], [-1.0, 0.0]]], [1.0, 0.0]),
        ([[[0.0, 1j], [1j, 0.0]]], [1.0, 0.0]),
        ([[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1j], [1j, 0.0]]], [1.0, 0.3, 0.2]),
    ],
    ids=["real", "complex", "three-parameters"],
)
def test_lockstep_raises_on_unbounded_objective(bs, c):
    """B_0 = 0, so c has a part along a Dirac-commuting direction: the
    Frobenius start and the brute-force oracle both refuse it, on a real and
    on a complex stack.  With three parameters no scanned direction is that
    null direction exactly, so only a test over the null space catches it."""
    B = np.stack([np.zeros((2, 2), dtype=complex)] + [np.array(b, dtype=complex) for b in bs])
    c = np.array(c)
    cons = mt._ConstraintMap(B)
    assert cons.real == (not np.any(B.imag))
    with pytest.raises(UnboundedObjectiveError):
        cons.frobenius_start(c)
    with pytest.raises(UnboundedObjectiveError):
        mt._brute_force_core(c, B)


@pytest.mark.parametrize("b", [[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1j], [1j, 0.0]]], ids=["real", "complex"])
def test_distance_raises_when_objective_leaves_gram_range(uhf1, monkeypatch, b):
    """B_0 = 0 spans null(G) and c has a small part there, so the objective is
    unbounded along e_0.  That is decided over the whole null space before
    any start is scored, not by whether some start happens to lie on a
    zero-norm direction; the barrier does not run."""
    B = np.stack([np.zeros((2, 2), dtype=complex), np.array(b, dtype=complex)])
    monkeypatch.setattr(mt, "_search_space", lambda problem: (np.array([1e-3, 1.0]), B, None))

    def no_barrier(*args, **kwargs):
        raise AssertionError("barrier ran")

    monkeypatch.setattr(mt, "_barrier", no_barrier)
    problem = mt.DistanceProblem(uhf1, al.VectorState(mt.car_vector(F1, 1)), al.TraceState())
    with pytest.raises(UnboundedObjectiveError):
        mt.distance(problem)


@pytest.mark.parametrize(
    "family, state1, state2, best_start",
    [
        ("cantor", al.CharacterState((0,) * 5), al.CharacterState((1, 0, 0, 0, 0)), "barrier"),
        ("uhf", al.VectorState(al.shift_embed(mt.car_vector(al.uhf(2, 2), 3), 1)), al.TraceState(),
         "frobenius"),
    ],
    ids=["cantor-gamma-0.01", "uhf-lambda-1e9"],
)
def test_wide_range_dirac_distance_is_finite(family, state1, state2, best_start):
    """Commutator norms 1e8 .. 1e9 apart still count as nonzero: the distance
    is finite and the solver finds it, though the stack's Gram matrix spans
    more than 1/eps.  Cantor: level-1 words scale with lambda_1 = 1 and
    level-5 words with 1e8, and the Frobenius start's certificate misses its
    constraints, so the barrier runs and wins; uhf: lambda = (1, 1e9)."""
    if family == "cantor":
        triple = tr.build_triple(al.cantor(5), al.UniformState(), tr.dirac_geometric(0.01, 5))
        expected = 2.0
    else:
        triple = tr.build_triple(al.uhf(2, 2), al.TraceState(), tr.dirac_explicit([1.0, 1e9]))
        expected = 1e-9
    res = mt.distance(mt.reduce_search_level(mt.DistanceProblem(triple, state1, state2)))
    assert res.diagnostics["best_start"] == best_start
    assert res.lower_bound == pytest.approx(expected, rel=1e-4)
    assert res.lower_bound <= res.upper_bound * (1 + 1e-12)


def test_cantor_split_classes_have_equal_distances():
    """Tree portraits act transitively on the leaf pairs of one split class, so
    the isometry statement on the Cantor set makes their distances equal; the
    solver must resolve that to near rounding, with no barrier cut at
    max_iter."""
    depth = 3
    triple = tr.build_triple(al.cantor(depth), al.UniformState(), tr.dirac_geometric(1 / 3, depth))
    cfg = mt.SolverConfig()
    classes = {}
    for x, y in combinations(product((0, 1), repeat=depth), 2):
        problem = mt.DistanceProblem(triple, al.CharacterState(x), al.CharacterState(y))
        res = mt.distance(mt.reduce_search_level(problem), cfg)
        assert all(s["iterations"] < cfg.max_iter for s in res.diagnostics["per_start"])
        split = next(i for i, (a, b) in enumerate(zip(x, y), start=1) if a != b)
        classes.setdefault(split, []).append(res.lower_bound)
    assert sorted(len(v) for v in classes.values()) == [4, 8, 16]
    for vals in classes.values():
        assert max(vals) - min(vals) <= 1e-13 * max(vals)


# ---------------------------------------------------------------------------
# dual certificate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["cantor", "uhf"])
def test_dual_certificate_is_feasible(family, uhf3, cantor3, rng):
    c, B = _uhf_stack(uhf3, rng) if family == "uhf" else _cantor_stack(cantor3)
    cons = mt._ConstraintMap(B)
    for t in np.vstack([c, rng.normal(size=(4, len(c)))]):
        _, Y = cons.dual_bound(c, t)
        got = np.real(np.einsum("iab,ab->i", np.conj(B), Y))
        assert np.max(np.abs(got - c)) <= 1e-12 * np.max(np.abs(c))


def test_infeasible_certificate_reads_inf(rng):
    """On a Dirac with eigenvalues 1 .. 1e8 the Gram matrix spans more than
    1/eps, and away from the optimum the fitted Y misses the constraints; it
    certifies nothing.  At a random row its nuclear norm would read 0.02,
    below the distance 2.  The barrier's point is close enough to the optimum
    for a feasible Y, whose bound closes the gap."""
    triple = tr.build_triple(al.cantor(5), al.UniformState(), tr.dirac_geometric(0.01, 5))
    problem = mt.reduce_search_level(
        mt.DistanceProblem(triple, al.CharacterState((0,) * 5), al.CharacterState((1, 0, 0, 0, 0)))
    )
    c, B, _ = mt._search_space(problem)
    cons = mt._ConstraintMap(B)
    for t in np.vstack([cons.frobenius_start(c), rng.normal(size=(3, len(c)))]):
        assert cons.dual_bound(c, t)[0] == np.inf
    res = mt.distance(problem)
    assert [s["start"] for s in res.diagnostics["per_start"]] == ["frobenius", "barrier"]
    assert mt.closed(res.upper_bound, res.lower_bound)


def test_dual_bound_above_brute_force(uhf1):
    p = mt.DistanceProblem(uhf1, al.VectorState(mt.car_vector(F1, 1)), al.TraceState())
    c, B, _ = mt._search_space(p)
    res = mt.distance(p, FAST)
    upper, _ = mt._ConstraintMap(B).dual_bound(c, res.witness.coeffs[1:].real)
    assert upper >= mt.brute_force_distance(p)
    assert upper == pytest.approx(res.lower_bound, rel=1e-9)


def test_dual_bound_above_lower_bound_on_cantor_pairs():
    """Weak duality on all 28 depth-3 character pairs, at the witness and for
    the smallest certificate the solver computed; the slack covers only the
    rounding of the two evaluations.  The tangent-space certificate at the
    witness also closes the gap to that rounding.  The Frobenius start is
    certified where it stands on the 4 split-level-3 pairs; the other 24 run
    the barrier: the cantor-split benchmark workload takes this path."""
    triple = tr.build_triple(al.cantor(3), al.UniformState(), tr.dirac_geometric(1 / 3, 3))
    cfg = mt.SolverConfig()
    paths = Counter()
    for x, y in combinations(product((0, 1), repeat=3), 2):
        problem = mt.DistanceProblem(triple, al.CharacterState(x), al.CharacterState(y))
        c, B, _ = mt._search_space(problem)
        res = mt.distance(problem, cfg)
        slack = 1e-13 * max(1.0, res.lower_bound)
        upper, _ = mt._ConstraintMap(B).dual_bound(c, res.witness.coeffs[1:].real)
        assert res.lower_bound - slack <= upper <= res.lower_bound + 1e-12 * max(1.0, res.lower_bound)
        assert res.upper_bound >= res.lower_bound - slack
        split = next(i for i, (a, b) in enumerate(zip(x, y), start=1) if a != b)
        paths[split, tuple(s["start"] for s in res.diagnostics["per_start"])] += 1
    barrier = ("frobenius", "barrier")
    assert paths == {(1, barrier): 16, (2, barrier): 8, (3, ("frobenius",)): 4}


def _uhf3_vector_problem(uhf3, seed):
    """A random level-3 uhf vector state against the trace."""
    v = _normalized_vector(F3, 3, np.random.default_rng(seed))
    return mt.DistanceProblem(uhf3, al.VectorState(v), al.TraceState())


def test_open_gap_spends_every_start_as_one_batch(uhf3):
    """Seed 1: the Frobenius start's certificate leaves a gap of about 30%,
    so the barrier runs once from that start, and the result is that of the
    start scored where it stands and the barrier run alone."""
    problem = _uhf3_vector_problem(uhf3, 1)
    cfg = mt.SolverConfig()
    res = mt.distance(problem, cfg)
    assert [s["start"] for s in res.diagnostics["per_start"]] == ["frobenius", "barrier"]

    c, B, _ = mt._search_space(problem)
    cons = mt._ConstraintMap(B)
    t0 = cons.frobenius_start(c)
    ratio = (c @ t0) / cons.norms(t0[None])[0]
    assert not mt.closed(cons.dual_bound(c, t0)[0], ratio)
    value, t, steps, upper = mt._barrier(c, cons, cfg.max_iter)
    assert value > ratio and res.diagnostics["best_start"] == "barrier"
    assert res.upper_bound == upper
    coeffs = np.zeros(F3.dim(3), dtype=complex)
    coeffs[1:] = t
    raw = al.AlgebraElement(F3, 3, coeffs)
    witness = raw * (1.0 / uhf3.commutator_norm(raw))
    assert res.lower_bound == abs(complex(problem.s1.value(witness) - problem.s2.value(witness)))
    frobenius, barrier = res.diagnostics["per_start"]
    assert frobenius["objective"] == pytest.approx(ratio, rel=1e-14) and frobenius["iterations"] == 0
    assert barrier["objective"] == float(value)
    assert barrier["iterations"] == steps > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_barrier_closes_uhf_vector_state_gaps(uhf3, seed):
    """The Frobenius start leaves these gaps open at 19-32% (relative); the
    barrier's certificate closes them."""
    res = mt.distance(_uhf3_vector_problem(uhf3, seed))
    assert res.diagnostics["best_start"] == "barrier"
    assert res.lower_bound <= res.upper_bound
    assert mt.closed(res.upper_bound, res.lower_bound)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_product_state_reference_distances_are_certified(seed):
    """On a uhf product-state reference, whose GNS basis is not the canonical
    one, random level-2 vector states against the trace also get both
    bounds, and the barrier's certificate closes the gap."""
    f2 = al.uhf(2, 2)
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    triple = tr.build_triple(f2, al.ProductState([rho, rho]), tr.dirac_explicit([1.0, 2.0]))
    v = _normalized_vector(f2, 2, np.random.default_rng(seed))
    res = mt.distance(mt.DistanceProblem(triple, al.VectorState(v), al.TraceState()))
    assert res.diagnostics["best_start"] == "barrier"
    assert mt.closed(res.upper_bound, res.lower_bound)


def test_barrier_point_is_feasible_and_certified(uhf3):
    """The barrier's point is strictly feasible, so its objective is at most
    its ratio, which its certificate bounds from above."""
    c, B, _ = mt._search_space(_uhf3_vector_problem(uhf3, 0))
    cons = mt._ConstraintMap(B)
    value, t, steps, upper = mt._barrier(c, cons, mt.SolverConfig().max_iter)
    norm = np.linalg.svd(np.tensordot(t, B, axes=1), compute_uv=False)[0]
    assert 0 < steps < mt.SolverConfig().max_iter
    assert norm < 1.0
    assert c @ t <= value <= upper == cons.dual_bound(c, t)[0]
    assert value == pytest.approx((c @ t) / norm, rel=1e-14)


def test_barrier_with_no_steps_returns_the_frobenius_start(uhf3):
    """The barrier starts at G^+ c with ||M(t)||_F = 1; with no Newton step
    it returns that point, its ratio and its certificate."""
    c, B, _ = mt._search_space(_uhf3_vector_problem(uhf3, 0))
    cons = mt._ConstraintMap(B)
    with np.errstate(all="raise"):
        value, t, steps, upper = mt._barrier(c, cons, 0)
    t0 = cons.frobenius_start(c)
    assert steps == 0
    assert np.sqrt(np.sum(np.abs(np.tensordot(t, B, axes=1)) ** 2)) == pytest.approx(1.0, rel=1e-12)
    assert t / np.linalg.norm(t) == pytest.approx(t0, abs=1e-12)
    assert value == pytest.approx((c @ t0) / cons.norms(t0[None])[0], rel=1e-12)
    assert upper == cons.dual_bound(c, t)[0]
    assert not mt.closed(upper, value)


def test_rank_one_frobenius_start_is_halved_inside():
    """On this complex stack M(G^+ c) = t_0 B_0 has rank one, so at
    ||M(t)||_F = 1 also ||M(t)|| = 1 and the start lies on the boundary: it
    is halved to ||M(t)|| = 1/2, and the barrier still closes its gap at the
    optimum 1."""
    B = np.stack([1j * np.diag([1.0, 0.0]), 1j * np.array([[0.0, 1.0], [1.0, 0.0]]),
                  np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)])
    c = np.array([1.0, 0.0, 0.0])
    cons = mt._ConstraintMap(B)
    assert not cons.real
    t0 = cons.frobenius_start(c)
    assert np.linalg.matrix_rank(np.tensordot(t0, B, axes=1)) == 1
    _, start, _, _ = mt._barrier(c, cons, 0)
    assert cons.norms(start[None])[0] == 0.5
    value, t, steps, upper = mt._barrier(c, cons, mt.SolverConfig().max_iter)
    assert 0 < steps < mt.SolverConfig().max_iter
    assert cons.norms(t[None])[0] < 1.0
    assert value == pytest.approx(1.0, rel=1e-12) and mt.closed(upper, value)


def _cantor3_pairs(gamma=1 / 3):
    """The 28 leaf-pair distance problems of the depth-3 Cantor triple."""
    triple = tr.build_triple(al.cantor(3), al.UniformState(), tr.dirac_geometric(gamma, 3))
    return [
        mt.DistanceProblem(triple, al.CharacterState(x), al.CharacterState(y))
        for x, y in combinations(product((0, 1), repeat=3), 2)
    ]


def test_barrier_newton_steps_on_cantor_pairs():
    """Warm-started at the Frobenius point and stopped at its first closed
    certificate, the barrier spends 480 Newton steps over the 28 depth-3
    pairs at gamma = 1/3 (888 from t = 0 to the central-path gap
    BARRIER_GAP)."""
    runs = [mt.distance(problem).diagnostics["per_start"] for problem in _cantor3_pairs()]
    assert sum(s["iterations"] for per_start in runs for s in per_start) == 480


def test_barrier_stops_at_a_closed_certificate_before_its_gap(monkeypatch):
    """With BARRIER_GAP at 0 the barrier could stop only at a closed
    certificate or at max_iter: on each of the 24 depth-3 barrier pairs it
    stops at the certificate, with the steps it takes at the real BARRIER_GAP."""
    cfg = mt.SolverConfig()
    runs = []
    for problem in _cantor3_pairs():
        c, B, _ = mt._search_space(problem)
        cons = mt._ConstraintMap(B)
        t0 = cons.frobenius_start(c)
        if not mt.closed(cons.dual_bound(c, t0)[0], (c @ t0) / cons.norms(t0[None])[0]):
            runs.append((c, cons, mt._barrier(c, cons, cfg.max_iter)[2]))
    assert len(runs) == 24
    monkeypatch.setattr(mt, "BARRIER_GAP", 0.0)
    for c, cons, steps in runs:
        value, _, stopped, upper = mt._barrier(c, cons, cfg.max_iter)
        assert stopped == steps < cfg.max_iter
        assert mt.closed(upper, value)


def test_closed_barrier_pair_certifies_twice(cantor3, monkeypatch):
    """A split-level-1 pair certifies the Frobenius row, then the barrier's
    first stage below sqrt(GAP_TOL), which closes: dual_bound runs twice,
    and its second bound is the reported one."""
    calls = []
    dual_bound = mt._ConstraintMap.dual_bound

    def counted(self, c, t):
        out = dual_bound(self, c, t)
        calls.append((t, out[0]))
        return out

    monkeypatch.setattr(mt._ConstraintMap, "dual_bound", counted)
    problem = mt.DistanceProblem(cantor3, al.CharacterState((0, 1, 0)), al.CharacterState((1, 1, 0)))
    res = mt.distance(problem)
    assert res.diagnostics["best_start"] == "barrier"
    (t_frobenius, _), (t_barrier, bound) = calls
    c, B, _ = mt._search_space(problem)
    assert t_frobenius == pytest.approx(mt._ConstraintMap(B).frobenius_start(c), abs=1e-15)
    w = res.witness.coeffs[1:].real
    assert w / np.linalg.norm(w) == pytest.approx(t_barrier / np.linalg.norm(t_barrier), abs=1e-12)
    assert res.upper_bound == bound
    assert mt.closed(bound, res.diagnostics["solver_objective"])


def test_certified_cantor_pair_runs_only_the_frobenius_start(cantor3):
    """On a split-level-3 pair the Frobenius start's certificate closes the
    gap where the start stands, so the barrier does not run."""
    problem = mt.DistanceProblem(cantor3, al.CharacterState((0, 1, 0)), al.CharacterState((0, 1, 1)))
    res = mt.distance(problem)
    assert res.diagnostics["per_start"] == [
        {"start": "frobenius", "objective": res.diagnostics["solver_objective"], "iterations": 0}
    ]
    assert mt.closed(res.upper_bound, res.diagnostics["solver_objective"])


def test_informed_start_at_the_optimum_is_certified_where_it_stands(cantor3):
    """A split-level-1 pair runs the barrier from the Frobenius start alone;
    given the barrier's point as an informed start, the solve certifies that
    row and stops with no Newton step."""
    states = al.CharacterState((0, 1, 0)), al.CharacterState((1, 1, 0))
    c, B, _ = mt._search_space(mt.DistanceProblem(cantor3, *states))
    _, t, _, _ = mt._barrier(c, mt._ConstraintMap(B), mt.SolverConfig().max_iter)
    res = mt.distance(mt.DistanceProblem(cantor3, *states, informed_starts=[t]))
    assert [s["start"] for s in res.diagnostics["per_start"]] == ["frobenius", "informed-0"]
    assert res.diagnostics["best_start"] == "informed-0"
    assert all(s["iterations"] == 0 for s in res.diagnostics["per_start"])
    assert mt.closed(res.upper_bound, res.diagnostics["solver_objective"])


def test_informed_starts_are_scored_at_unit_length_with_c_t_nonnegative(cantor3):
    """A zero start reads -inf; a start pointing against c is flipped, and
    its scale does not matter: -2.5 t scores as t does."""
    states = al.CharacterState((0, 1, 0)), al.CharacterState((1, 1, 0))
    c, B, _ = mt._search_space(mt.DistanceProblem(cantor3, *states))
    cons = mt._ConstraintMap(B)
    _, t, _, _ = mt._barrier(c, cons, mt.SolverConfig().max_iter)
    res = mt.distance(mt.DistanceProblem(cantor3, *states, informed_starts=[np.zeros(7), -2.5 * t]))
    _, zero, flipped = res.diagnostics["per_start"]
    assert zero["objective"] == -np.inf
    unit = t / np.linalg.norm(t)
    assert flipped["objective"] == pytest.approx((c @ unit) / cons.norms(unit[None])[0], rel=1e-14)
    assert res.diagnostics["best_start"] == "informed-1"
    assert res.lower_bound == pytest.approx(flipped["objective"], rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_informed_start_must_be_finite(cantor3, bad):
    states = al.CharacterState((0, 1, 0)), al.CharacterState((1, 1, 0))
    start = np.ones(7)
    start[3] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        mt.distance(mt.DistanceProblem(cantor3, *states, informed_starts=[np.zeros(7), start]))


def test_dual_bound_matches_car_upper_bound():
    """Criterion 1's nine cases: the certificate that ended the search is the
    exact value 1/lambda_{n+1}."""
    for n in range(3):
        for l in (1, 2, 3):
            rec = mt.car_golden_case([1.0, 2.0, 4.0, 8.0], n, l)
            assert rec["certificate"] == pytest.approx(rec["upper_bound"], abs=1e-12)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def test_brute_force_matches_worked_example():
    t1 = tr.build_triple(F1, al.TraceState(), tr.dirac_explicit([2.0]))
    p = mt.DistanceProblem(t1, al.VectorState(mt.car_vector(F1, 3)), al.TraceState())
    assert mt.brute_force_distance(p) == pytest.approx(0.5, abs=1e-6)


def test_brute_force_agrees_with_solver(uhf1):
    p = mt.DistanceProblem(uhf1, al.VectorState(mt.car_vector(F1, 1)), al.TraceState())
    bf = mt.brute_force_distance(p)
    solver = mt.distance(p, FAST).lower_bound
    assert bf == pytest.approx(solver, abs=1e-4)


def test_brute_force_zero_for_equal_states(uhf1):
    p = mt.DistanceProblem(uhf1, al.TraceState(), al.TraceState(), search_level=1)
    assert mt.brute_force_distance(p) == 0.0


def test_brute_force_dimension_guard(uhf3):
    p = mt.DistanceProblem(uhf3, al.TraceState(), al.VectorState(mt.car_vector(F3, 3)), search_level=2)
    with pytest.raises(UnsupportedError):
        mt.brute_force_distance(p)


# ---------------------------------------------------------------------------
# certified upper bound
# ---------------------------------------------------------------------------


def test_car_bound_values(uhf4):
    assert mt.car_certified_upper_bound(uhf4, 0, 3) == 1.0
    assert mt.car_certified_upper_bound(uhf4, 2, 1) == 0.25


def test_car_bound_inequality_chain(uhf3):
    """The chain behind the bound, on random feasible x of level n+1 with
    x~ = x - E_n(x):

        |coeff of x~ at (identity^n, l)|  <=  ||P_0 pi(x~) Q_{n+1}||
                                          <=  ||[D, x~]|| / lambda_{n+1}
        and  ||[D, x~]||  <=  ||[D, x]||.
    """
    n, l = 1, 2
    filt, lam = uhf3.filtration, uhf3.lambdas
    assert mt.car_certified_upper_bound(uhf3, n, l) == 1.0 / lam[n + 1]
    rng = np.random.default_rng(3)
    idxs = al.canonical_basis(filt, n + 1)
    target_pos = next(i for i, ix in enumerate(idxs) if ix.word == (4,) * n + (l,))
    top = slice(filt.dim(n), filt.dim(n + 1))  # the grade n+1 basis vectors
    for _ in range(200):
        x = al.AlgebraElement(filt, n + 1, rng.normal(size=len(idxs)).astype(complex))
        nx = uhf3.commutator_norm(x)
        if nx < 1e-12:
            continue
        x = x * (1.0 / nx)
        xt = x - al.conditional_expectation(x, n).embed(n + 1)
        alpha = abs(x.coeffs[target_pos])
        comp = linalg.operator_norm(uhf3.represent(xt)[:1, top])  # row 0: the grade-0 vector
        cn_t = uhf3.commutator_norm(xt)
        assert alpha - comp <= 1e-9
        assert comp - cn_t / lam[n + 1] <= 1e-9
        assert cn_t - uhf3.commutator_norm(x) <= 1e-9


def test_car_bound_rejects_ties():
    t = tr.build_triple(F3, al.TraceState(), tr.dirac_explicit([1.0, 1.0, 2.0]))
    with pytest.raises(PreconditionError):
        mt.car_certified_upper_bound(t, 1, 3)


def test_golden_sandwich(uhf3):
    """Solver lower bound and certified upper bound pin the value."""
    rec = mt.car_golden_case([1.0, 2.0, 4.0], 1, 3)
    assert rec["lower_bound"] >= 1.0 / 2.0 - 1e-6
    assert rec["upper_bound"] == 1.0 / 2.0
    assert rec["lower_bound"] <= rec["upper_bound"] + 1e-9


# ---------------------------------------------------------------------------
# rigidity implies distance preservation
# ---------------------------------------------------------------------------


def test_rigid_pullbacks_preserve_distances(cantor3, rng):
    t2 = tr.build_triple(al.uhf(2, 2), al.TraceState(), tr.dirac_explicit([1.0, 2.0]))
    count = 0
    worst = 0.0
    while count < 20:
        if count % 2 == 0:
            w1 = tuple(rng.integers(0, 2, size=3))
            w2 = tuple(rng.integers(0, 2, size=3))
            if w1 == w2:
                continue
            s1, s2 = al.CharacterState(w1), al.CharacterState(w2)
            spec = iso.random_portrait(3, rng)
            triple = cantor3
        else:
            v = _normalized_vector(al.uhf(2, 2), 1, rng)
            s1, s2 = al.VectorState(v), al.TraceState()
            spec = iso.random_local_automorphism(al.uhf(2, 2), rng)
            triple = t2
        assert iso.iso_check(triple, spec).in_iso
        d0 = mt.distance(mt.reduce_search_level(mt.DistanceProblem(triple, s1, s2)), FAST)
        d1 = mt.distance(
            mt.reduce_search_level(
                mt.DistanceProblem(
                    triple,
                    iso.PulledBackState(s1, spec),
                    iso.PulledBackState(s2, spec),
                )
            ),
            FAST,
        )
        for a, b in ((d0.lower_bound, d1.lower_bound), (d0.upper_bound, d1.upper_bound)):
            worst = max(worst, abs(a - b) / abs(a))
        count += 1
    assert worst <= 1e-12


def test_triangle_defect_advisory(cantor3):
    """d(s1,s3) <= d(s1,s2) + d(s2,s3), with a lower bound on the left and
    certified upper bounds on the right, so no solver slack is needed."""
    s1, s2, s3 = (al.CharacterState(w) for w in ((0, 0, 0), (0, 1, 0), (1, 1, 0)))

    def d(a, b):
        return mt.distance(mt.reduce_search_level(mt.DistanceProblem(cantor3, a, b)), FAST)

    assert d(s1, s3).lower_bound <= d(s1, s2).upper_bound + d(s2, s3).upper_bound
