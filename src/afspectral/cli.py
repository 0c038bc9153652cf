"""Batch experiment runner.

Every capability is exposed as a subcommand emitting line-delimited JSON
records (deterministic for a fixed seed: keys sorted, no timestamps). Each
flag is declared once in ``OPTIONS``, its type giving the value a runner
reads; ``SUBCOMMANDS`` gives every subcommand its runner, help and flags with
their defaults, and ``build_parser`` is one loop over it. A runner takes a
plain dict keyed by flag dests (``RUNNERS``). Exit status: 0 when every
asserted record passes, 1 on a failed assertion, 2 on usage errors (a missing
required option is named), 3 when the answer is numerically undecidable (a
verdict residual inside the guard band, an objective unbounded along a
Dirac-commuting direction, or a linear algebra routine that did not converge),
with one ``undecidable`` record of the error and a verdict's residual and
guard band. A JSON config file (``{"subcommand": ..., "params": {...}}`` or
bare params, keyed by flag dest) becomes ``--flag=value`` words that the same
parser reads ahead of the command line, so explicit flags override it. Records
go to stdout or to --output (relative paths resolve under $AFSPECTRAL_OUTDIR
when set; a path that cannot be written is a usage error before any record is
computed); progress and errors go to stderr.
"""

import argparse
import functools
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
from .errors import AmbiguousVerdictError, InvalidInputError, PreconditionError, UnboundedObjectiveError
from .linalg import random_unitary


# ---------------------------------------------------------------------------
# shared parsers
# ---------------------------------------------------------------------------


def _ints(text: str, least: int = 0, count: int | None = None, most: int | None = None) -> list:
    """argparse type of an integer flag: comma separated integers in ``least``..``most``,
    ``count`` of them when given; each is a count, depth, shift, label or seed, so never negative."""
    words = text.split(",")
    if all(w.strip().isdecimal() for w in words) and count in (None, len(words)):
        if least <= min(map(int, words)) and (most is None or max(map(int, words)) <= most):
            return [int(w) for w in words]
    what = {1: "an integer", 2: "two comma separated integers"}.get(count, "comma separated integers")
    bound = f">= {least}" if most is None else f"in {least}..{most}"
    raise argparse.ArgumentTypeError(f"expects {what} {bound}, got {text!r}")


def _count(text: str, least: int = 0) -> int:
    """argparse type of a count flag: an integer >= ``least``."""
    return _ints(text, least, count=1)[0]


def _floats(text: str) -> list:
    """argparse type of --lambda: numbers, comma separated."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma separated numbers, got {text!r}") from None


def _one(p, key) -> int:
    """The one integer of list option ``key``, where a runner reads a single value."""
    if len(p[key]) != 1:
        got = ",".join(map(str, p[key]))
        raise InvalidInputError(f"--{_FLAG_OF[key]} expects an integer >= 0, got {got!r}")
    return p[key][0]


def _triple(filt: al.Filtration, dirac: tr.DiracSpec) -> tr.TruncatedTriple:
    """The triple of ``filt`` and ``dirac`` on the family's reference state."""
    ref = al.TraceState() if filt.family == "uhf" else al.UniformState()
    return tr.build_triple(filt, ref, dirac)


def _build_dirac(p, depth: int) -> tr.DiracSpec:
    if p.get("lambda"):  # build_triple refuses a list whose length is not the depth
        return tr.dirac_explicit(p["lambda"])
    if p.get("gamma") is not None:
        return tr.dirac_geometric(p["gamma"], depth)
    return tr.dirac_power(p["power"], depth)


def _triple_from_params(p) -> tr.TruncatedTriple:
    """Triple from the family/k/depth and lambda/gamma/power options, on the reference state."""
    depth = _one(p, "depth")
    filt = al.uhf(_one(p, "k"), depth) if p["family"] == "uhf" else al.cantor(depth)
    return _triple(filt, _build_dirac(p, depth))


def _parse_state(text: str, filtration: al.Filtration) -> al.State:
    """The state ``text`` names, evaluated once at the full depth: a state the
    triple cannot serve (a short character word, a family mismatch) is refused
    here, where ``_parse_flag`` names its flag."""
    if text == "trace":
        state = al.TraceState()
    elif text == "uniform":
        state = al.UniformState()
    elif text.startswith("character:"):
        state = al.CharacterState(tuple(int(b) for b in text.split(":", 1)[1]))
    elif text.startswith("vector:"):
        _, level, coeffs = text.split(":", 2)
        c = np.array([complex(v) for v in coeffs.split(",")])
        state = al.VectorState(al.AlgebraElement(filtration, int(level), c))
    elif text.startswith("carvec:"):
        label, sep, shift = text[len("carvec:"):].partition(":")
        v = al.shift_embed(mt.car_vector(filtration, int(label)), int(shift) if sep else 0)
        state = al.VectorState(v)
    else:
        raise InvalidInputError("unknown state")
    state.basis_values(filtration, filtration.depth)
    return state


def _parse_automorphism(text: str, filtration: al.Filtration):
    kind, _, rest = text.partition(":")
    n = filtration.depth
    if text == "identity":
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
    if text == "odometer":
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
    raise InvalidInputError(f"unknown automorphism {text!r}")


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


def _refused_lambda(lam, run, *args):
    """``run(*args)``; what it refuses as input is a --lambda list too short or tied for
    the run, so the usage error names that flag (numerical failures pass through)."""
    try:
        return run(*args)
    except (InvalidInputError, PreconditionError) as exc:
        raise InvalidInputError(f"--lambda {lam}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand runners: each returns a list of records
# ---------------------------------------------------------------------------


def run_distance(p) -> list:
    if p["car"]:
        lam = p["lambda"]
        records = []
        for n in p["n"]:
            for l in p["l"]:
                rec = _refused_lambda(lam, mt.car_golden_case, lam, n, l)
                rec["record"] = "car-distance"
                triple = _triple(al.uhf(2, n + 1), tr.dirac_explicit(lam[: n + 1]))
                word = al.basis_element(triple.filtration, n + 1, (4,) * n + (l,))
                rec["matched_word_commutator_norm"] = triple.commutator_norm(word)
                rec["ok"] = bool(
                    mt.closed(rec["upper_bound"], rec["lower_bound"])
                    and abs(rec["matched_word_commutator_norm"] - lam[n]) <= 1e-10
                )
                rec.pop("certificate")
                records.append(rec)
        return records
    triple = _triple_from_params(p)
    filt = triple.filtration
    s1 = _parse_flag("state1", p["state1"], _parse_state, filt)
    s2 = _parse_flag("state2", p["state2"], _parse_state, filt)
    problem = mt.reduce_search_level(mt.DistanceProblem(triple, s1, s2))
    res = mt.distance(problem)
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
            "ok": mt.closed(res.upper_bound, res.lower_bound),
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
    n_struct, n_adv = p["round_trip"]
    rng = np.random.default_rng(p["seed"])
    t_uhf = _triple(al.uhf(2, 3), tr.dirac_explicit([1.0, 2.0, 4.0]))
    t_cantor = _triple(al.cantor(3), tr.dirac_explicit([1.0, 2.0, 4.0]))
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

    t_tied = _triple(al.uhf(2, 3), tr.dirac_explicit([1.0, 1.0, 2.0]))
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
    depths = p["depth"]
    if len(depths) > 1 and p.get("lambda"):
        raise InvalidInputError("an explicit --lambda cannot serve several depths")
    for depth in depths:
        triple = _triple(al.cantor(depth), _build_dirac(p, depth))
        mode = "exhaustive" if p["exhaustive"] else "portraits"
        rep = iso.enumerate_cantor_iso(triple, mode=mode, progress=p["progress"])
        rep.pop("elements", None)
        rep["record"] = "iso-enumerate"
        if mode == "exhaustive":
            rep["ok"] = bool(rep["passing"] == rep["group_order"] and rep["matches_portraits"])
        else:
            rep["ok"] = bool(rep["all_pass"])
        records.append(rep)
    return records


def run_cantor_metric(p) -> list:
    rep = iso.m_invariance_experiment(p["gamma"], _one(p, "depth"))
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
    lam = p["lambda"]
    triple = _triple(al.uhf(2, len(lam)), tr.dirac_explicit(lam))
    records = []
    for k in p["k"]:
        if k >= len(lam):
            raise InvalidInputError(f"--k {k}: the switch 1 <-> {k + 1} needs {k + 1} --lambda values")
        rep = _refused_lambda(lam, iso.switch_iso_violation, triple, k, _one(p, "l"))
        rep["record"] = "switch-violation"
        rep["ok"] = bool(rep["violation_certified"] if k >= 1 else rep["gap"] == 0.0)
        records.append(rep)
    return records


def run_flip_demo(p) -> list:
    rep = iso.flip_demo(
        d1=p["d1"], d2=p["d2"], n_pairs=p["pairs"], n_elements=p["elements"], seed=p["seed"]
    )
    rep["record"] = "flip-demo"
    rep["ok"] = bool(
        rep["flip_outside_rigid_group"]
        and rep["max_distance_deviation"] <= 1e-6
        and rep["identity_residual"] < 1e-14
    )
    return [rep]


def run_shift_inequality(p) -> list:
    ns = p["n"]
    lam = p.get("lambda")
    depth = max(max(ns) + 1, len(lam) if lam else 0)
    dirac = tr.dirac_explicit(lam) if lam else tr.dirac_power(3.0, depth)
    triple = _triple(al.uhf(2, depth), dirac)
    records = []
    for n in ns:
        rng = np.random.default_rng(p["seed"])
        all_hold, special_hold, min_slack = True, True, np.inf
        for _ in range(p["samples"]):
            x = al.AlgebraElement(triple.filtration, 1, rng.normal(size=4) + 1j * rng.normal(size=4))
            rep = iso.shift_inequality_check(triple, x, n, p["c"])
            all_hold &= rep["holds"]
            min_slack = min(min_slack, rep["rhs"] - rep["lhs"])
            if "special_case" in rep:
                special_hold &= rep["special_case"]["holds"]
        records.append(
            {
                "record": "shift-inequality",
                "n": n,
                "c": p["c"],
                "samples": p["samples"],
                "all_hold": bool(all_hold),
                "special_case_holds": bool(special_hold),
                "min_slack": float(min_slack),
                "ok": bool(all_hold and special_hold),
            }
        )
    return records


def _crossed_suite(p) -> list:
    """Full lift matrix: both actions, three characters, rigid betas, controls."""
    rng = np.random.default_rng(p["seed"])
    chis = [1.0 + 0j, 1j, complex(np.exp(2j * np.pi / 5))]
    chi_names = ["1", "i", "exp(2 pi i/5)"]

    base_u = _triple(al.uhf(2, 2), tr.dirac_explicit([1.0, 2.0]))
    lift_u = cx.build_lifted(base_u, cx.TrivialAction(), p["radius"], p["margin"])
    base_c = _triple(al.cantor(3), tr.dirac_explicit([1.0, 2.0, 4.0]))
    lift_c = cx.build_lifted(base_c, cx.OdometerAction(), p["radius"], p["margin"])
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
    if p["suite"]:
        return _crossed_suite(p)
    # the family and depth defaults depend on the action: the odometer acts on the cantor tree
    odometer = p["action"] == "odometer"
    if odometer and p.get("family", "cantor") != "cantor":
        raise InvalidInputError(f"--family {p['family']!r}: the odometer acts on the cantor family")
    defaults = {"family": "cantor", "depth": [3]} if odometer else {"family": "uhf"}
    base = _triple_from_params({**defaults, **p})
    action = cx.OdometerAction() if odometer else cx.TrivialAction()
    lifted = cx.build_lifted(base, action, p["radius"], p["margin"])

    filt = base.filtration
    beta = None if p["beta"] == "id" else _parse_flag("beta", p["beta"], _parse_automorphism, filt)
    chis = [_parse_flag("chi", t, _parse_chi) for t in p["chi"].split(",")]

    rng = np.random.default_rng(p["seed"])
    x = _random_crossed(base, p["support"], rng)
    return [
        {
            "record": "crossed-lift",
            "action": p["action"],
            "chi": [chi.real, chi.imag],
            "beta": p["beta"],
            "sigma": p["sigma"],
            "radius": p["radius"],
            "margin": p["margin"],
            **_lift_check(lifted, chi, beta, p["sigma"], x, p["expect_fail"]),
        }
        for chi in chis
    ]


# ---------------------------------------------------------------------------
# argument wiring: every flag once, then each subcommand's runner, help and flags
# ---------------------------------------------------------------------------

# flag name -> argparse keywords; the dest is the name with "-" read as "_", and the type
# gives the value a runner reads.  --pairs, --elements and --samples count the cases a
# record checks, so are at least 1: a record over no cases would pass having checked nothing.
OPTIONS = {
    "config": {"help": "JSON file prefilling this subcommand's options"},
    "output": {"help": "write records to this file instead of stdout"},
    "pretty": {"action": "store_true", "help": "also print a readable table"},
    "seed": {"type": _count},
    "family": {"choices": ("uhf", "cantor")},
    "k": {"type": _ints, "help": "uhf factor size; switch-violation: switch target shift(s), comma separated"},
    "depth": {"type": _ints, "help": "depth; iso-enumerate: depth or comma list of depths"},
    "lambda": {"type": _floats, "help": "eigenvalues, comma separated"},
    "gamma": {"type": float},
    "power": {"type": float},
    "car": {"action": "store_true", "help": "matched vector state vs trace"},
    "n": {"type": _ints, "help": "shift count(s), comma separated"},
    "l": {"type": functools.partial(_ints, least=1, most=3),
          "help": "Bloch label 1..3; distance in car mode: comma separated labels"},
    "state1": {},
    "state2": {},
    "auto": {"help": "switch:i,j | portrait:BITS | leafperm:... | locals:SEED | block:S,W,SEED | global:SEED | odometer | identity"},
    "round-trip": {"type": functools.partial(_ints, count=2),
                   "help": "N_STRUCT,N_ADV: batch equivalence check instead of one verdict"},
    "exhaustive": {"action": "store_true", "help": "scan all leaf permutations"},
    "progress": {"action": "store_true", "help": "report scan progress on stderr"},
    "d1": {"type": float},
    "d2": {"type": float},
    "pairs": {"type": functools.partial(_count, least=1)},
    "elements": {"type": functools.partial(_count, least=1)},
    "c": {"type": float},
    "samples": {"type": functools.partial(_count, least=1)},
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
# subcommand -> (runner, help, {flag besides the common ones: its default, as the runner
# reads it}); a None default leaves the option out, so a runner that needs it names it missing
_DIRAC = {"lambda": None, "gamma": None, "power": 2.0}
_TRIPLE = {"family": "uhf", "k": [2], "depth": None, **_DIRAC}
SUBCOMMANDS = {
    "distance": (run_distance, "state distance (certified lower/upper bounds)",
                 {**_TRIPLE, "car": False, "n": [0], "l": [3], "state1": None, "state2": None}),
    "iso-check": (run_iso_check, "unitary rigidity verdict for one automorphism",
                  {**_TRIPLE, "auto": None, "round-trip": None, "seed": 0}),
    "iso-enumerate": (run_iso_enumerate, "tree-automorphism group of the Cantor triple",
                      {**_DIRAC, "depth": [3], "exhaustive": False, "progress": False}),
    "cantor-metric": (run_cantor_metric, "leaf-pair distance table grouped by split level",
                      {"gamma": 1 / 3, "depth": None}),
    "switch-violation": (run_switch_violation, "distance gap under a tensor-slot switch",
                         {"k": [1], "l": [3], "lambda": None}),
    "flip-demo": (run_flip_demo, "two-point flip: distance preserving, Dirac moving",
                  {"d1": 0.0, "d2": 1.0, "pairs": 100, "elements": 100, "seed": 0}),
    "shift-inequality": (run_shift_inequality, "commutator stretching under the shift",
                         {"n": [1], "c": 2.0, "lambda": None, "samples": 200, "seed": 0}),
    "crossed-lift": (run_crossed_lift, "lifted unitaries on the site window",
                     {**_TRIPLE, "family": None, "action": "trivial", "radius": 4, "margin": 2,
                      "chi": "1,i,exp:1/5", "beta": "id", "sigma": "id", "support": 1,
                      "expect-fail": False, "suite": False, "seed": 0}),
}
RUNNERS = {name: entry[0] for name, entry in SUBCOMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is a usage error: main returns 2
        # "argument --flag: ..." reads "--flag ...", as the runners name a flag
        raise InvalidInputError(re.sub(r"^argument (-\S+): ", r"\1 ", message))


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: a config file names its options in full, and so does the command line
    ap = _Parser(
        allow_abbrev=False,
        prog="afspectral",
        description="Experiments on truncated filtered algebras with graded Dirac operators",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_, defaults) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        for flag, default in {**defaults, **dict.fromkeys(_COMMON)}.items():
            sp.add_argument("--" + flag, default=default, **OPTIONS[flag])
    return ap


def _config_words(path: str, subcommand: str) -> list:
    """A config file's options as the ``--flag=value`` words the parser reads.

    JSON true is the bare flag, and false leaves a store_true flag out; any
    other value is the flag's text, a list joined by commas.
    """
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
    words = []
    for key, value in params.items():
        flag = _FLAG_OF.get(key)
        if key == "subcommand" or value is False and OPTIONS[flag].get("action") == "store_true":
            continue
        items = value if isinstance(value, list) else [value]
        words.append(f"--{flag}" if value is True else f"--{flag}=" + ",".join(map(str, items)))
    return words


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
    argv = sys.argv[1:] if argv is None else list(argv)
    undecidable = False
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        output = _output_path(args.output) if args.output else None
        if args.config:
            # the file's words go ahead of the command line, whose flags then win
            words = _config_words(args.config, args.subcommand)
            try:
                parser.parse_args([args.subcommand, *words])
            except InvalidInputError as exc:
                raise InvalidInputError(f"config {args.config}: {exc}") from None
            args = parser.parse_args([args.subcommand, *words, *argv[1:]])
        params = {
            key: val for key, val in vars(args).items()
            if key not in ("subcommand", *_COMMON) and val is not None
        }
        records = RUNNERS[args.subcommand](params)
    except (AmbiguousVerdictError, UnboundedObjectiveError, np.linalg.LinAlgError) as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        records = [{"record": "undecidable", "ok": False, "error": str(exc)}]
        if isinstance(exc, AmbiguousVerdictError):
            records[0].update(residual=exc.residual, guard_band=list(exc.guard_band))
        undecidable = True
    except (ValueError, KeyError, FileNotFoundError) as exc:
        if isinstance(exc, KeyError):  # a runner read an option that was not given
            flag = _FLAG_OF.get(str(exc.args[0])) if exc.args else None
            if flag not in SUBCOMMANDS[args.subcommand][2]:
                raise
            exc = f"missing required option --{flag}"
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

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
