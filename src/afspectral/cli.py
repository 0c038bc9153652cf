"""Batch experiment runner.

Every capability is exposed as a subcommand emitting line-delimited JSON
records (deterministic for a fixed seed: keys sorted, no timestamps).  Each
flag is declared once in ``OPTIONS``; ``SUBCOMMANDS`` gives every subcommand
its runner, help and flag names, and ``build_parser`` is one loop over it.
A runner takes a plain dict keyed by flag dests (``RUNNERS``).  Exit
status: 0 when every asserted record passes, 1 on a failed assertion, 2 on
usage errors (a missing required option is named), 3 when the answer is
numerically undecidable (a verdict residual inside the guard band, or an
objective unbounded along a Dirac-commuting direction); exit 3 also writes
one ``undecidable`` record with the error, and for a verdict its residual
and guard band.  A JSON config file
(``{"subcommand": ..., "params": {...}}`` or bare params) can prefill any
subcommand's options, keyed by flag dest and checked as the flags are;
explicit flags override it.  Records go to stdout or to --output (relative
paths resolve under $AFSPECTRAL_OUTDIR when set; a path that cannot be
written is a usage error before any record is computed); progress and errors
go to stderr.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

from . import algebra as al
from . import crossed as cx
from . import isometry as iso
from . import metric as mt
from . import triple as tr
from .errors import AmbiguousVerdictError, InvalidInputError, UnboundedObjectiveError
from .linalg import random_unitary


# ---------------------------------------------------------------------------
# shared parsers
# ---------------------------------------------------------------------------


def _lambdas(p) -> list:
    """The eigenvalue list: comma separated text from a flag or config, or a list from a runner."""
    lam = p["lambda"]
    return [float(v) for v in lam.split(",") if v.strip()] if isinstance(lam, str) else lam


def _ints(p, key, default=None, count=None) -> list:
    """The ints of option ``key``, each a count, depth, shift or label and so not
    negative: comma separated text from a flag or config, or an int from a runner.
    ``[default]`` when absent; without a default a missing option raises KeyError."""
    value = p[key] if default is None else p.get(key, default)
    try:
        ints = [int(v) for v in str(value).split(",")]
        if count in (None, len(ints)) and min(ints) >= 0:
            return ints
    except ValueError:
        pass
    what = {1: "an integer", 2: "two comma separated integers"}.get(count, "comma separated integers")
    raise InvalidInputError(f"--{_FLAG_OF[key]} expects {what} >= 0, got {value!r}")


def _int(p, key, default=None) -> int:
    return _ints(p, key, default, count=1)[0]


def _count(text: str, least: int = 0) -> int:
    """argparse type of a count flag: an integer >= ``least``."""
    if not text.strip().isdecimal() or int(text) < least:
        raise argparse.ArgumentTypeError(f"expects an integer >= {least}, got {text!r}")
    return int(text)


def _cases(text: str) -> int:
    """argparse type of a flag counting the cases a record checks: an integer >= 1,
    since a record over no cases would pass having checked nothing."""
    return _count(text, 1)


def _build_filtration(p) -> al.Filtration:
    family = p.get("family", "uhf")
    if family == "uhf":
        return al.uhf(_int(p, "k", 2), _int(p, "depth"))
    if family == "cantor":
        return al.cantor(_int(p, "depth"))
    raise InvalidInputError(f"unknown family {family!r}")


def _build_dirac(p, depth: int) -> tr.DiracSpec:
    if p.get("lambda"):
        lam = _lambdas(p)
        if len(lam) != depth:
            raise InvalidInputError(f"need {depth} eigenvalues, got {len(lam)}")
        return tr.dirac_explicit(lam)
    if p.get("gamma") is not None:
        return tr.dirac_geometric(float(p["gamma"]), depth)
    if p.get("power") is not None:
        return tr.dirac_power(float(p["power"]), depth)
    return tr.dirac_power(2.0, depth)


def _triple_from_params(p) -> tr.TruncatedTriple:
    """Triple from the family/k/depth and lambda/gamma/power options, on the reference state."""
    filt = _build_filtration(p)
    ref = al.TraceState() if filt.family == "uhf" else al.UniformState()
    return tr.build_triple(filt, ref, _build_dirac(p, filt.depth))


def _parse_state(text: str, filtration: al.Filtration) -> al.State:
    if text == "trace":
        return al.TraceState()
    if text == "uniform":
        return al.UniformState()
    if text.startswith("character:"):
        return al.CharacterState(tuple(int(b) for b in text.split(":", 1)[1]))
    if text.startswith("vector:"):
        _, level, coeffs = text.split(":", 2)
        c = np.array([complex(v) for v in coeffs.split(",")])
        return al.VectorState(al.AlgebraElement(filtration, int(level), c))
    if text.startswith("carvec:"):
        _, label, shift = (text.split(":") + ["0"])[:3]
        v = al.shift_embed(mt.car_vector(filtration, int(label)), int(shift))
        return al.VectorState(v)
    raise InvalidInputError("unknown state")


def _parse_automorphism(text: str, filtration: al.Filtration):
    kind, _, rest = text.partition(":")
    n = filtration.depth
    if kind == "identity":
        if filtration.family == "uhf":
            return iso.SlotAutomorphism(tuple(range(1, n + 1)))
        return iso.TreePortrait(n, (0,) * (2**n - 1))
    if kind == "switch":
        i, j = (int(v) for v in rest.split(","))
        return iso.switch(i, j, n)
    if kind == "portrait":
        return iso.TreePortrait(n, tuple(int(b) for b in rest))
    if kind == "leafperm":
        return iso.LeafPermutation(n, tuple(int(v) for v in rest.split(",")))
    if kind == "odometer":
        return iso.odometer_portrait(n)
    if kind == "locals":
        rng = np.random.default_rng(int(rest or 0))
        return iso.random_local_automorphism(filtration, rng)
    if kind == "block":
        start, width, seed = (int(v) for v in rest.split(","))
        rng = np.random.default_rng(seed)
        u = random_unitary(filtration.k**width, rng)
        return iso.SlotAutomorphism(tuple(range(1, n + 1)), None, ((start, u),))
    if kind == "global":
        rng = np.random.default_rng(int(rest or 0))
        return iso.random_block_automorphism(filtration, rng, width=n)
    raise InvalidInputError(f"unknown automorphism kind {kind!r}")


def _parse_chi(token: str) -> complex:
    token = token.strip()
    if token.startswith("exp:"):
        num, _, den = token[4:].partition("/")
        if float(den or "1") == 0.0:
            raise InvalidInputError("zero denominator")
        return complex(np.exp(2j * np.pi * float(num) / float(den or "1")))
    return 1j if token == "i" else complex(token)  # "1", "-1", "j" and literals


def _parse_flag(key: str, text: str, parse, *args):
    """``parse(text, *args)``; a malformed value is a usage error naming the flag."""
    try:
        return parse(text, *args)
    except ValueError as exc:
        raise InvalidInputError(f"--{_FLAG_OF[key]} {text!r}: {exc}") from None


def _solver_config(p) -> mt.SolverConfig:
    cfg = mt.SolverConfig()
    if p.get("max_iter") is not None:
        cfg.max_iter = int(p["max_iter"])
    return cfg


# ---------------------------------------------------------------------------
# subcommand runners: each returns a list of records
# ---------------------------------------------------------------------------


def run_distance(p) -> list:
    cfg = _solver_config(p)
    if p.get("car"):
        lam = _lambdas(p)
        records = []
        for n in _ints(p, "n", 0):
            for l in _ints(p, "l", 3):
                rec = mt.car_golden_case(lam, n, l, cfg)
                rec["record"] = "car-distance"
                triple = _triple_from_params({"depth": n + 1, "lambda": lam[: n + 1]})
                word = al.basis_element(triple.filtration, n + 1, (4,) * n + (l,))
                rec["matched_word_commutator_norm"] = triple.commutator_norm(word)
                rec["ok"] = bool(
                    rec["lower_bound"] >= rec["upper_bound"] - 1e-6
                    and abs(rec["matched_word_commutator_norm"] - lam[n]) <= 1e-10
                )
                rec.pop("diagnostics", None)
                records.append(rec)
        return records
    triple = _triple_from_params(p)
    filt = triple.filtration
    s1 = _parse_flag("state1", p["state1"], _parse_state, filt)
    s2 = _parse_flag("state2", p["state2"], _parse_state, filt)
    problem = mt.reduce_search_level(mt.DistanceProblem(triple, s1, s2))
    res = mt.distance(problem, cfg)
    diag = res.diagnostics
    return [
        {
            "record": "distance",
            "state1": p["state1"],
            "state2": p["state2"],
            "search_level": problem.search_level,
            "lower_bound": res.lower_bound,
            "upper_bound": res.upper_bound,
            "iterations": sum(s["iterations"] for s in diag.get("per_start", [])),
            "best_start": diag.get("best_start"),
            "ok": True,
        }
    ]


def run_iso_check(p) -> list:
    if p.get("round_trip"):
        return _run_round_trip(p)
    triple = _triple_from_params(p)
    spec = _parse_flag("auto", p["auto"], _parse_automorphism, triple.filtration)
    verdict = iso.iso_check(triple, spec)
    prediction = iso.iso_prediction(triple, verdict)
    rec = verdict.to_dict()
    rec.update(record="iso-check", auto=p["auto"], prediction=prediction,
               ok=bool(verdict.in_iso == prediction))
    return [rec]


def _run_round_trip(p) -> list:
    """Batch equivalence check: rigidity == (state and required levels preserved)."""
    n_struct, n_adv = _ints(p, "round_trip", count=2)
    rng = np.random.default_rng(int(p.get("seed", 0)))
    t_uhf = _triple_from_params({"depth": 3, "lambda": [1.0, 2.0, 4.0]})
    t_cantor = _triple_from_params({"family": "cantor", "depth": 3, "lambda": [1.0, 2.0, 4.0]})
    f3 = t_uhf.filtration

    # case i draws its spec from the i-th maker, cycling; all draws precede the verdicts
    structural = [
        lambda: (t_uhf, iso.random_local_automorphism(f3, rng)),
        lambda: (t_uhf, iso.random_local_automorphism(f3, rng, permute=True)),
        lambda: (t_cantor, iso.random_portrait(3, rng)),
        lambda: (t_uhf, iso.switch(1, int(rng.integers(2, 4)), 3)),
    ]
    adversarial = [
        lambda: (t_cantor, iso.random_leaf_permutation(3, rng)),
        lambda: (t_uhf, iso.random_block_automorphism(f3, rng, width=3)),
    ]
    cases = [structural[i % 4]() for i in range(n_struct)]
    cases += [adversarial[i % 2]() for i in range(n_adv)]

    mismatches = 0
    in_count = 0
    for triple, spec in cases:
        verdict = iso.iso_check(triple, spec)
        prediction = iso.iso_prediction(triple, verdict)
        mismatches += int(verdict.in_iso != prediction)
        in_count += int(verdict.in_iso)

    t_tied = _triple_from_params({"depth": 3, "lambda": [1.0, 1.0, 2.0]})
    tied_distinct = iso.iso_check(t_uhf, iso.switch(1, 2, 3))
    tied_merged = iso.iso_check(t_tied, iso.switch(1, 2, 3))
    return [
        {
            "record": "iso-round-trip",
            "structural": n_struct,
            "adversarial": n_adv,
            "in_group": in_count,
            "mismatches": mismatches,
            "ok": mismatches == 0,
        },
        {
            "record": "iso-tied-flip",
            "switch_distinct_in": tied_distinct.in_iso,
            "switch_tied_in": tied_merged.in_iso,
            "ok": bool(not tied_distinct.in_iso and tied_merged.in_iso),
        },
    ]


def run_iso_enumerate(p) -> list:
    records = []
    depths = _ints(p, "depth", 3)
    if len(depths) > 1 and p.get("lambda"):
        raise InvalidInputError("an explicit --lambda cannot serve several depths")
    for depth in depths:
        triple = _triple_from_params({**p, "family": "cantor", "depth": depth})
        mode = "exhaustive" if p.get("exhaustive") else "portraits"
        rep = iso.enumerate_cantor_iso(triple, mode=mode, progress=bool(p.get("progress")))
        rep.pop("elements", None)
        rep["record"] = "iso-enumerate"
        if mode == "exhaustive":
            rep["ok"] = bool(rep["passing"] == rep["group_order"] and rep["matches_portraits"])
        else:
            rep["ok"] = bool(rep["all_pass"])
        records.append(rep)
    return records


def run_cantor_metric(p) -> list:
    cfg = _solver_config(p)
    rep = iso.m_invariance_experiment(float(p.get("gamma", 1 / 3)), _int(p, "depth"), cfg)
    rep["classes"] = {str(k): v for k, v in rep["classes"].items()}
    rep["record"] = "cantor-metric"
    rep["ok"] = bool(
        rep["max_spread"] <= 2e-5
        and rep["separated"]
        and rep["portraits_preserve_classes"]
        and rep["violating_permutation_moves_class"]
    )
    return [rep]


def run_switch_violation(p) -> list:
    lam = _lambdas(p)
    triple = _triple_from_params({"depth": len(lam), "lambda": lam})
    records = []
    for k in _ints(p, "k", 1):
        rep = iso.switch_iso_violation(triple, k, _int(p, "l", 3))
        rep["record"] = "switch-violation"
        rep["ok"] = bool(rep["violation_certified"] if k >= 1 else rep["gap"] == 0.0)
        records.append(rep)
    return records


def run_flip_demo(p) -> list:
    rep = iso.flip_demo(
        d1=float(p.get("d1", 0.0)),
        d2=float(p.get("d2", 1.0)),
        n_pairs=int(p.get("pairs", 100)),
        n_elements=int(p.get("elements", 100)),
        seed=int(p.get("seed", 0)),
    )
    rep["record"] = "flip-demo"
    rep["ok"] = bool(
        rep["flip_outside_rigid_group"]
        and rep["max_distance_deviation"] <= 1e-6
        and rep["identity_residual"] < 1e-14
    )
    return [rep]


def run_shift_inequality(p) -> list:
    ns = _ints(p, "n", 1)
    c = float(p.get("c", 2.0))
    depth = max(max(ns) + 1, len(_lambdas(p)) if p.get("lambda") else 0)
    triple = _triple_from_params({"depth": depth, "lambda": p.get("lambda"), "power": 3.0})
    samples = int(p.get("samples", 200))
    records = []
    for n in ns:
        rng = np.random.default_rng(int(p.get("seed", 0)))
        all_hold, special_hold, min_slack = True, True, np.inf
        for _ in range(samples):
            x = al.AlgebraElement(triple.filtration, 1, rng.normal(size=4) + 1j * rng.normal(size=4))
            rep = iso.shift_inequality_check(triple, x, n, c)
            all_hold &= rep["holds"]
            min_slack = min(min_slack, rep["rhs"] - rep["lhs"])
            if "special_case" in rep:
                special_hold &= rep["special_case"]["holds"]
        records.append(
            {
                "record": "shift-inequality",
                "n": n,
                "c": c,
                "samples": samples,
                "all_hold": bool(all_hold),
                "special_case_holds": bool(special_hold),
                "min_slack": float(min_slack),
                "ok": bool(all_hold and special_hold),
            }
        )
    return records


def _crossed_suite(p) -> list:
    """Full lift matrix: both actions, three characters, rigid betas, controls."""
    radius = int(p.get("radius", 4))
    margin = int(p.get("margin", 2))
    seed = int(p.get("seed", 0))
    rng = np.random.default_rng(seed)
    chis = [1.0 + 0j, 1j, complex(np.exp(2j * np.pi / 5))]
    chi_names = ["1", "i", "exp(2 pi i/5)"]

    base_u = _triple_from_params({"depth": 2, "lambda": [1.0, 2.0]})
    lift_u = cx.build_lifted(base_u, cx.TrivialAction(), radius, margin)
    base_c = _triple_from_params({"family": "cantor", "depth": 3, "lambda": [1.0, 2.0, 4.0]})
    lift_c = cx.build_lifted(base_c, cx.OdometerAction(), radius, margin)
    f2 = base_u.filtration

    configs = []
    for chi, cname in zip(chis, chi_names):
        configs.append(("trivial", lift_u, chi, cname, None, "id", False))
        configs.append(
            ("trivial", lift_u, chi, cname, iso.random_local_automorphism(f2, rng), "id", False)
        )
        configs.append(("odometer", lift_c, chi, cname, None, "id", False))
        configs.append(("odometer", lift_c, chi, cname, iso.odometer_portrait(3), "id", False))
    # designed failures: label-flipping sigma and a non-rigid beta
    configs.append(("trivial", lift_u, 1.0 + 0j, "1", None, "neg", True))
    configs.append(("trivial", lift_u, 1.0 + 0j, "1", iso.switch(1, 2, 2), "id", True))

    records = []
    for action_name, lifted, chi, cname, beta, sigma, expect_fail in configs:
        records.append(
            {
                "record": "crossed-lift",
                "action": action_name,
                "chi": cname,
                "beta": type(beta).__name__ if beta is not None else "id",
                "sigma": sigma,
                **_lift_check(
                    lifted, chi, beta, sigma, _random_crossed(lifted.base, 1, rng), expect_fail
                ),
            }
        )
    return records


def _random_crossed(base: tr.TruncatedTriple, support: int, rng) -> cx.CrossedElement:
    """Crossed element with Gaussian real coefficients on the sites -support..support."""
    filt = base.filtration
    dim = filt.dim(filt.depth)
    return cx.CrossedElement(
        {g: al.AlgebraElement(filt, filt.depth, rng.normal(size=dim))
         for g in range(-support, support + 1)}
    )


def _lift_check(lifted, chi, beta, sigma, x, expect_fail: bool) -> dict:
    """Commutation and covariance residuals of one lift, and its verdict.

    A designed failure is ok when commutation fails loudly while the
    unitary still implements the lifted automorphism.
    """
    coc = cx.Cocycle(chi)
    u = cx.lifted_unitary(lifted, coc, beta, sigma, check_rigidity=False)
    comm = cx.lift_commutation_check(lifted, u)
    cov = cx.covariance_check(lifted, coc, beta, sigma, x, check_rigidity=False)
    commutes = comm["residual"] > 0.1 if expect_fail else comm["passes"]
    return {
        "commutation_residual": comm["residual"],
        "covariance_residual": cov["residual"],
        "expect_fail": expect_fail,
        "ok": bool(commutes and cov["passes"]),
    }


def run_crossed_lift(p) -> list:
    if p.get("suite"):
        return _crossed_suite(p)
    action_name = p.get("action", "trivial")
    if action_name == "odometer":
        if p.get("family", "cantor") != "cantor":
            raise InvalidInputError(f"--family {p['family']!r}: the odometer acts on the cantor family")
        p = {**p, "family": "cantor", "depth": p.get("depth", 3)}
        action = cx.OdometerAction()
    else:
        action = cx.TrivialAction()
    base = _triple_from_params(p)
    filt = base.filtration
    radius = int(p.get("radius", 4))
    margin = int(p.get("margin", 2))
    lifted = cx.build_lifted(base, action, radius, margin)

    beta_name = p.get("beta", "id")
    beta = None if beta_name == "id" else _parse_flag("beta", beta_name, _parse_automorphism, filt)
    sigma = p.get("sigma", "id")
    chis = [_parse_flag("chi", t, _parse_chi) for t in str(p.get("chi", "1,i,exp:1/5")).split(",")]

    rng = np.random.default_rng(int(p.get("seed", 0)))
    x = _random_crossed(base, int(p.get("support", 1)), rng)

    expect_fail = bool(p.get("expect_fail"))
    return [
        {
            "record": "crossed-lift",
            "action": action_name,
            "chi": [chi.real, chi.imag],
            "beta": beta_name,
            "sigma": sigma,
            "radius": radius,
            "margin": margin,
            **_lift_check(lifted, chi, beta, sigma, x, expect_fail),
        }
        for chi in chis
    ]


# ---------------------------------------------------------------------------
# argument wiring: every flag once, then each subcommand's runner, help and flags
# ---------------------------------------------------------------------------

# flag name -> argparse keywords; the dest is the name with "-" read as "_".
# --k, --depth and --l stay text: the runners parse them (int or comma list).
OPTIONS = {
    "config": {"help": "JSON file prefilling this subcommand's options"},
    "output": {"help": "write records to this file instead of stdout"},
    "pretty": {"action": "store_true", "help": "also print a readable table"},
    "seed": {"type": int},
    "family": {"choices": ("uhf", "cantor")},
    "k": {"help": "uhf factor size; switch-violation: switch target shift(s), comma separated"},
    "depth": {"help": "depth; iso-enumerate: depth or comma list of depths"},
    "lambda": {"help": "eigenvalues, comma separated"},
    "gamma": {"type": float},
    "power": {"type": float},
    "car": {"action": "store_true", "help": "matched vector state vs trace"},
    "n": {"help": "shift count(s), comma separated"},
    "l": {"help": "Bloch label 1..3; distance in car mode: comma separated labels"},
    "state1": {},
    "state2": {},
    "max-iter": {"type": _count},
    "auto": {"help": "switch:i,j | portrait:BITS | leafperm:... | locals:SEED | block:S,W,SEED | global:SEED | odometer | identity"},
    "round-trip": {"help": "N_STRUCT,N_ADV: batch equivalence check instead of one verdict"},
    "cantor": {"action": "store_true", "help": "accepted for clarity; always cantor"},
    "exhaustive": {"action": "store_true", "help": "scan all leaf permutations"},
    "progress": {"action": "store_true", "help": "report scan progress on stderr"},
    "d1": {"type": float},
    "d2": {"type": float},
    "pairs": {"type": _cases},
    "elements": {"type": _cases},
    "c": {"type": float},
    "samples": {"type": _cases},
    "action": {"choices": ("trivial", "odometer")},
    "radius": {"type": int},
    "margin": {"type": int},
    "chi": {"help": "comma separated: 1 | i | -1 | exp:K/M | complex literal"},
    "beta": {},
    "sigma": {"choices": ("id", "neg")},
    "support": {"type": _count},
    "expect-fail": {"action": "store_true"},
    "suite": {"action": "store_true", "help": "run the full lift matrix with designed failure controls"},
}
_FLAG_OF = {flag.replace("-", "_"): flag for flag in OPTIONS}
_COMMON = ("config", "output", "pretty")
_TRIPLE = ("family", "k", "depth", "lambda", "gamma", "power")

# subcommand -> (runner, help, flags besides the common ones)
SUBCOMMANDS = {
    "distance": (run_distance, "state distance (certified lower/upper bounds)",
                 _TRIPLE + ("car", "n", "l", "state1", "state2", "max-iter")),
    "iso-check": (run_iso_check, "unitary rigidity verdict for one automorphism",
                  _TRIPLE + ("auto", "round-trip", "seed")),
    "iso-enumerate": (run_iso_enumerate, "tree-automorphism group of the Cantor triple",
                      ("cantor", "depth", "exhaustive", "lambda", "gamma", "power", "progress")),
    "cantor-metric": (run_cantor_metric, "leaf-pair distance table grouped by split level",
                      ("gamma", "depth", "max-iter")),
    "switch-violation": (run_switch_violation, "distance gap under a tensor-slot switch",
                         ("k", "l", "lambda")),
    "flip-demo": (run_flip_demo, "two-point flip: distance preserving, Dirac moving",
                  ("d1", "d2", "pairs", "elements", "seed")),
    "shift-inequality": (run_shift_inequality, "commutator stretching under the shift",
                         ("n", "c", "lambda", "samples", "seed")),
    "crossed-lift": (run_crossed_lift, "lifted unitaries on the site window",
                     _TRIPLE + ("action", "radius", "margin", "chi", "beta", "sigma", "support",
                                "expect-fail", "suite", "seed")),
}
RUNNERS = {name: entry[0] for name, entry in SUBCOMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is a usage error: main returns 2
        # "argument --flag: ..." reads "--flag ...", as the runners name a flag
        raise InvalidInputError(re.sub(r"^argument (-\S+): ", r"\1 ", message))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="afspectral",
        description="Experiments on truncated filtered algebras with graded Dirac operators",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_, flags) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag in flags + _COMMON:
            sp.add_argument("--" + flag, **OPTIONS[flag])
    return ap


def _flag_value(flag: str, value, path: str):
    """A config value parsed as ``--flag`` would parse its text; a usage error otherwise.

    A store_true flag takes a JSON boolean, any other a string or a number (a
    list of them for a comma separated flag) that passes its type and choices.
    """
    spec, items = OPTIONS[flag], value if isinstance(value, list) else [value]
    try:
        if spec.get("action") == "store_true":
            if isinstance(value, bool):
                return value
        elif all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
            out = spec.get("type", str)(",".join(map(str, items)))
            if out in spec.get("choices", (out,)):
                return out
    except (ValueError, argparse.ArgumentTypeError):
        pass
    raise InvalidInputError(f"--{flag} in config {path}: invalid value {value!r}")


def _read_config(path: str, subcommand: str) -> dict:
    """A config file's options, keyed by flag dest and checked as the subcommand's flags are."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from None
    if not isinstance(loaded, dict) or not isinstance(loaded.get("params", {}), dict):
        raise InvalidInputError(f"config {path} is not a JSON object of options")
    if loaded.get("subcommand", subcommand) != subcommand:
        raise InvalidInputError(f"config {path} is for subcommand {loaded['subcommand']!r}")
    params = loaded.get("params", loaded)
    stray = set(loaded) - {"subcommand", "params"} if params is not loaded else set()
    known = {flag.replace("-", "_") for flag in SUBCOMMANDS[subcommand][2]} | {"subcommand"}
    unknown = sorted(stray | (set(params) - known))
    if unknown:
        raise InvalidInputError(f"config {path}: not an option of {subcommand}: {', '.join(unknown)}")
    return {k: _flag_value(_FLAG_OF[k], v, path) for k, v in params.items() if k != "subcommand"}


def _output_path(path: str) -> str:
    """``--output`` resolved under $AFSPECTRAL_OUTDIR and opened for appending,
    so a path that cannot be written is a usage error before any record is
    computed (a new path is left as an empty file if the run then fails)."""
    outdir = os.environ.get("AFSPECTRAL_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise InvalidInputError(f"--output {path!r}: {exc.strerror}") from None
    return path


def main(argv=None) -> int:
    undecidable = False
    try:
        args = build_parser().parse_args(argv)
        output = _output_path(args.output) if args.output else None
        flags = {
            key: val for key, val in vars(args).items()
            if key not in ("subcommand", "config", "output", "pretty")
            and val is not None and val is not False
        }
        file_params = _read_config(args.config, args.subcommand) if args.config else {}
        records = RUNNERS[args.subcommand]({**file_params, **flags})
    except (InvalidInputError, ValueError, KeyError, FileNotFoundError) as exc:
        missing = exc.args[0] if isinstance(exc, KeyError) and exc.args else None
        if missing in _FLAG_OF:
            exc = f"missing required option --{_FLAG_OF[missing]}"
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AmbiguousVerdictError, UnboundedObjectiveError) as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        records = [{"record": "undecidable", "ok": False, "error": str(exc)}]
        if isinstance(exc, AmbiguousVerdictError):
            records[0].update(residual=exc.residual, guard_band=list(exc.guard_band))
        undecidable = True

    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.pretty:
        for rec in records:
            status = "pass" if rec.get("ok", True) else "FAIL"
            fields = ", ".join(
                f"{k}={rec[k]}" for k in sorted(rec) if k not in ("record", "ok")
            )
            print(f"[{status}] {rec.get('record')}: {fields}")

    if undecidable:
        return 3
    return 0 if all(rec.get("ok", True) for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main())
