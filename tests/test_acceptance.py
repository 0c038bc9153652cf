"""Acceptance suite.

Each test enforces one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or in captured output).
"""

import json
import time

import numpy as np
import pytest

from afspectral import algebra as al
from afspectral import cli
from afspectral import isometry as iso
from afspectral import metric as mt
from afspectral import triple as tr

from conftest import random_element


def _params(argv: str) -> dict:
    """The params ``cli.main`` hands a runner for ``argv``: the given flags and the defaults."""
    args = cli.build_parser().parse_args(argv.split())
    return {key: val for key, val in vars(args).items() if val is not None}


def _report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_car_golden_distances():
    t0 = time.monotonic()
    records = cli.RUNNERS["distance"](_params("distance --car --n 0,1,2 --l 1,2,3 --lambda 1,2,4,8"))
    elapsed = time.monotonic() - t0
    lam = [1.0, 2.0, 4.0, 8.0]
    ok = len(records) == 9
    for rec in records:
        expected = 1.0 / lam[rec["n"]]
        ok &= rec["upper_bound"] == expected
        ok &= rec["lower_bound"] >= expected - 1e-6
        ok &= rec["lower_bound"] <= expected + 1e-9
    ok &= elapsed < 60.0
    _report(1, ok, f"9 matched-state distances pinned to 1/lambda_(n+1), {elapsed:.1f}s")


def test_criterion_2_worked_example():
    rec = mt.car_golden_case([1.0, 2.0, 4.0, 8.0], 0, 3)
    ok = abs(rec["lower_bound"] - 1.0) <= 1e-6 and rec["upper_bound"] == 1.0

    f4 = al.uhf(2, 4)
    t4 = tr.build_triple(f4, al.TraceState(), tr.dirac_explicit([1.0, 2.0, 4.0, 8.0]))
    s3 = al.basis_element(f4, 1, (3,))
    for beta in (1.0, -0.6, 1.7 + 0.3j):
        nrm = t4.commutator_norm(beta * s3)
        ok &= abs(nrm - abs(beta) * 1.0) <= 1e-10
    _report(2, ok, "d(phi_v, tr) = 1/lambda_1 and ||[D, b s3]|| = |b| lambda_1")


def test_criterion_3_round_trip():
    records = cli.RUNNERS["iso-check"](_params("iso-check --round-trip 52,12 --seed 0"))
    summary = records[0]
    tied = records[1]
    ok = (
        summary["structural"] >= 50
        and summary["adversarial"] >= 10
        and summary["mismatches"] == 0
        and tied["ok"]
    )
    _report(
        3,
        ok,
        f"{summary['structural']}+{summary['adversarial']} verdicts match the "
        f"state/filtration prediction; tied eigenvalues flip the switch verdict",
    )


def test_criterion_4_cantor_enumeration():
    t0 = time.monotonic()
    records = cli.RUNNERS["iso-enumerate"](_params("iso-enumerate --depth 2,3 --exhaustive"))
    elapsed = time.monotonic() - t0
    by_depth = {r["depth"]: r for r in records}
    ok = (
        by_depth[2]["passing"] == 8
        and by_depth[2]["scanned"] == 24
        and by_depth[3]["passing"] == 128
        and by_depth[3]["scanned"] == 40320
        and all(r["matches_portraits"] for r in records)
        and all(r["group_order"] == 2 ** (2 ** r["depth"] - 1) for r in records)
        and elapsed < 60.0
    )
    _report(4, ok, f"8 of 24 and 128 of 40320 leaf permutations commute with D, {elapsed:.1f}s")


def test_criterion_5_m_invariance():
    gamma = 1.0 / 3.0
    assert gamma < (3.0 - np.sqrt(5.0)) / 2.0
    rep = iso.m_invariance_experiment(gamma, 3)
    n_pairs = sum(s["count"] for s in rep["classes"].values())
    ok = (
        sorted(rep["classes"]) == [1, 2, 3]
        and n_pairs == 28
        and rep["max_spread"] <= 2e-5
        and rep["min_interclass_gap"] >= 10 * rep["max_spread"]
        and rep["portraits_preserve_classes"]
        and rep["violating_permutation_moves_class"]
    )
    _report(
        5,
        ok,
        f"3 split-level classes over 28 pairs, spread {rep['max_spread']:.2e}, "
        f"gap {rep['min_interclass_gap']:.3f}",
    )


def test_criterion_6_switch_violation():
    f3 = al.uhf(2, 3)
    t3 = tr.build_triple(f3, al.TraceState(), tr.dirac_explicit([1.0, 2.0, 4.0]))
    rep1 = iso.switch_iso_violation(t3, 1)
    rep2 = iso.switch_iso_violation(t3, 2)
    ok = (
        rep1["gap"] == 0.5
        and rep2["gap"] == 0.75
        and rep1["violation_certified"]
        and rep2["violation_certified"]
    )
    _report(6, ok, "certified gaps 1/2 (k=1) and 3/4 (k=2) under slot switches")


def test_criterion_7_flip_demo():
    rep = iso.flip_demo(d1=0.0, d2=1.0, n_pairs=100, n_elements=100)
    ok = (
        abs(rep["commutator_frobenius_norm"] - np.sqrt(2.0)) <= 1e-12
        and abs(rep["commutator_operator_norm"] - 1.0) <= 1e-12
        and rep["flip_outside_rigid_group"]
        and rep["max_distance_deviation"] <= 1e-6
        and rep["identity_residual"] < 1e-14
    )
    _report(
        7,
        ok,
        "flip moves D (entrywise norm sqrt(2), spectral norm 1 > 0.1) yet "
        f"preserves 100 pair distances to {rep['max_distance_deviation']:.1e}",
    )


def test_criterion_8_shift_inequality():
    f3 = al.uhf(2, 3)
    t3 = tr.build_triple(f3, al.TraceState(), tr.dirac_power(3.0, 3))
    rng = np.random.default_rng(8)
    ok = True
    for n in (1, 2):
        for _ in range(200):
            x = random_element(f3, 1, rng)
            rep = iso.shift_inequality_check(t3, x, n, 2.0)
            ok &= rep["lhs"] <= rep["rhs"] + 1e-9
            if n == 1:
                ok &= rep["special_case"]["holds"]
    _report(8, ok, "400 random level-1 elements obey both shift bounds (c=2, base 3)")


def test_criterion_9_crossed_lifts():
    records = cli.RUNNERS["crossed-lift"]({"suite": True, "radius": 4, "margin": 2, "seed": 0})
    positives = [r for r in records if not r["expect_fail"]]
    negatives = [r for r in records if r["expect_fail"]]
    ok = (
        len(positives) == 12
        and all(r["commutation_residual"] < 1e-10 for r in positives)
        and all(r["covariance_residual"] < 1e-10 for r in positives)
        and len(negatives) == 2
        and all(r["commutation_residual"] > 0.1 for r in negatives)
    )
    _report(
        9,
        ok,
        "12 lift configurations commute and intertwine below 1e-10; "
        "both designed failures exceed 0.1",
    )


def test_criterion_10_property_suites():
    f3 = al.uhf(2, 3)
    f4 = al.uhf(2, 4)
    t3 = tr.build_triple(f3, al.TraceState(), tr.dirac_explicit([1.0, 2.0, 4.0]))
    t4 = tr.build_triple(f4, al.TraceState(), tr.dirac_explicit([1.0, 2.0, 4.0, 8.0]))
    rng = np.random.default_rng(10)

    # expectation contracts commutator norms on 500 random elements
    contraction_ok = True
    for i in range(500):
        x = random_element(f3, 3, rng)
        n = 1 + i % 2
        ex = al.conditional_expectation(x, n)
        contraction_ok &= t3.commutator_norm(ex) <= t3.commutator_norm(x) + 1e-10

    # projection algebra is exact
    proj_ok = True
    for i in range(4):
        qi = t3.Q(i)
        proj_ok &= np.array_equal(qi @ qi, qi)
        for j in range(4):
            if i != j:
                proj_ok &= not np.any(qi @ t3.Q(j))
    proj_ok &= np.array_equal(sum(t3.Q(i) for i in range(4)), np.eye(t3.dim))

    # truncation independence of commutator norms
    trunc_ok = True
    for _ in range(25):
        lev = int(rng.integers(1, 4))
        x3 = random_element(f3, lev, rng)
        x4 = al.AlgebraElement(f4, lev, x3.coeffs)
        trunc_ok &= abs(t3.commutator_norm(x3) - t4.commutator_norm(x4)) <= 1e-9

    # solver determinism: identical records from identical params
    params = _params("distance --car --n 1 --l 2 --lambda 1,2")
    run1 = json.dumps(cli.RUNNERS["distance"](dict(params)), sort_keys=True)
    run2 = json.dumps(cli.RUNNERS["distance"](dict(params)), sort_keys=True)
    determinism_ok = run1 == run2

    ok = contraction_ok and proj_ok and trunc_ok and determinism_ok
    _report(
        10,
        ok,
        f"expectation contraction (500x), exact projection algebra, "
        f"truncation independence (25x), byte-identical reruns",
    )
