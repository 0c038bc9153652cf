"""Seeded workloads of the afspectral benchmark.

A workload turns a seed into inputs (plain numbers, drawn here and never by
the package, so inputs stay identical across program versions), builds the
triples and windows its operations need (``setup``), and returns one batch
of operations.  An operation calls the public package API and returns its
non-timing outputs; ``check`` compares a batch of outputs with the
reference, one verdict per operation.  ``smoke`` selects the smallest input
of the workload, for the harness self-test.

Modules of the package are imported lazily, after the worker has put the
checkout's ``src`` first on the path.
"""

import hashlib
import json
from itertools import combinations, product

import numpy as np

# distinct streams per workload, so equal seeds do not give related inputs
_STREAM = {"matched-distance": 1, "cantor-split": 2, "rigidity": 3, "window-lift": 4}


def _rng(name, seed):
    return np.random.default_rng([_STREAM[name], seed])


def _api():
    from afspectral import algebra, crossed, isometry, metric, triple

    return algebra, triple, metric, isometry, crossed


def _increasing(rng, count, lo, hi):
    """lambda_1 = 1 followed by ratios drawn from [lo, hi]: strictly increasing."""
    return [float(v) for v in np.cumprod([1.0, *rng.uniform(lo, hi, size=count - 1)])]


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def array_digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def digest(obj):
    """sha256 of a canonical JSON form; floats keep every digit (repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class Op:
    __slots__ = ("kind", "run")

    def __init__(self, kind, run):
        self.kind = kind
        self.run = run


class MatchedDistance:
    """Trace versus shifted matched vector states on uhf k=2 (car_golden_case shape)."""

    name = "matched-distance"

    def __init__(self, seed, smoke=False):
        rng = _rng(self.name, seed)
        # lambda_1 = 1 fixes the distance unit; the n=0 problems depend on it
        # alone.  Solver time is erratic in lambda (ascent iterations), so the
        # ratios stay near 2 to keep runs with different seeds comparable.
        self.lam = _increasing(rng, 3, 1.95, 2.05)
        levels = (0,) if smoke else (0, 1, 2)
        labels = (1,) if smoke else (1, 2, 3)
        # sizes interleaved, so each size is timed at several moments of the batch
        self.cases = [(n, l) for l in labels for n in levels]
        self.inputs = {"lambda": self.lam, "cases": self.cases}

    def setup(self):
        al, tr, mt, _, _ = _api()
        self.mt, self.al = mt, al
        triples = {}
        self.problems = []
        for n, l in self.cases:
            depth = n + 1
            if depth not in triples:
                filt = al.uhf(2, depth)
                triples[depth] = tr.build_triple(
                    filt, al.TraceState(), tr.dirac_explicit(self.lam[:depth])
                )
            t3 = triples[depth]
            phi = al.VectorState(al.shift_embed(mt.car_vector(t3.filtration, l), n))
            # the attaining element as informed start, as car_golden_case does
            target = (4,) * n + (l,)
            idxs = al.canonical_basis(t3.filtration, depth)[1:]
            informed = np.array([1.0 if ix.word == target else 0.0 for ix in idxs])
            self.problems.append((t3, phi, informed))

    def batch(self):
        return [
            Op(f"n{n}", lambda p=p: self._solve(*p))
            for (n, _), p in zip(self.cases, self.problems)
        ]

    def _solve(self, t3, phi, informed):
        mt, al = self.mt, self.al
        problem = mt.reduce_search_level(
            mt.DistanceProblem(t3, phi, al.TraceState(), informed_starts=[informed])
        )
        return {"lower_bound": mt.distance(problem).lower_bound}

    def check(self, outputs):
        verdicts = []
        for (n, _), out in zip(self.cases, outputs):
            ref = 1.0 / self.lam[n]  # exact d = 1/lambda_{n+1}
            verdicts.append(
                out is not None and ref - 1e-6 <= out["lower_bound"] <= ref + 1e-9
            )
        return verdicts


class CantorSplit:
    """All leaf-character pairs of the depth-3 Cantor triple, geometric Dirac."""

    name = "cantor-split"

    def __init__(self, seed, smoke=False):
        rng = _rng(self.name, seed)
        self.depth = 2 if smoke else 3
        # split-level invariance needs gamma < (3 - sqrt 5)/2 = 0.382; solver
        # work grows as gamma falls (about 1.5x from 0.34 to 0.28), so gamma
        # stays near 1/3 to keep runs with different seeds comparable
        self.gamma = float(rng.uniform(0.33, 0.34))
        leaves = list(product((0, 1), repeat=self.depth))
        # seeded order, so each split level is timed at several moments of the batch
        pairs = list(combinations(leaves, 2))
        self.pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        self.inputs = {"gamma": self.gamma, "depth": self.depth, "pairs": self.pairs}

    def setup(self):
        al, tr, mt, _, _ = _api()
        self.mt, self.al = mt, al
        filt = al.cantor(self.depth)
        self.triple = tr.build_triple(
            filt, al.UniformState(), tr.dirac_geometric(self.gamma, self.depth)
        )
        self.states = [(al.CharacterState(x), al.CharacterState(y)) for x, y in self.pairs]
        self.leaf_basis = None  # reference data, built on first check: not timed, not traced

    def _reference(self):
        """Leaf values of the GNS basis and the Dirac on its grades."""
        al = self.al
        filt = self.triple.filtration
        idxs = al.canonical_basis(filt, self.depth)
        eye = np.eye(len(idxs))
        self.leaf_basis = np.stack(
            [al.AlgebraElement(filt, self.depth, eye[i]).materialize() for i in range(len(idxs))]
        )
        self.d_ref = np.array([0.0, *(self.gamma ** (1 - g) for g in range(1, self.depth + 1))])[
            [ix.grade for ix in idxs]
        ]

    def batch(self):
        return [
            Op(f"m{_split_level(x, y)}", lambda s=s: self._solve(*s))
            for (x, y), s in zip(self.pairs, self.states)
        ]

    def _solve(self, s1, s2):
        mt = self.mt
        res = mt.distance(mt.reduce_search_level(mt.DistanceProblem(self.triple, s1, s2)))
        return {"lower_bound": res.lower_bound, "witness": res.witness}

    def _witness_norm(self, w):
        vals = w.materialize(self.depth)
        b = self.leaf_basis
        rep = np.einsum("il,l,jl->ij", np.conj(b), vals, b) / b.shape[1]
        comm = self.d_ref[:, None] * rep - rep * self.d_ref[None, :]
        return float(np.linalg.norm(comm, 2))

    def check(self, outputs):
        if self.leaf_basis is None:
            self._reference()
        classes = {}
        for (x, y), out in zip(self.pairs, outputs):
            if out is not None:
                classes.setdefault(_split_level(x, y), []).append(out["lower_bound"])
        medians = {m: float(np.median(v)) for m, v in classes.items()}
        verdicts = []
        for (x, y), out in zip(self.pairs, outputs):
            if out is None:
                verdicts.append(False)
                continue
            out["witness_norm"] = self._witness_norm(out.pop("witness"))
            verdicts.append(
                abs(out["lower_bound"] - medians[_split_level(x, y)]) <= 2e-5
                and out["witness_norm"] <= 1.0 + 1e-9
            )
        return verdicts


def _split_level(x, y):
    return next(i for i, (a, b) in enumerate(zip(x, y), start=1) if a != b)


class Rigidity:
    """iso_check verdicts: the rigidity round-trip mix plus uhf depth-4 slot automorphisms."""

    name = "rigidity"
    STRUCTURAL = ("local", "permuted-local", "portrait", "switch")
    # Criterion 3 alternates leafperm and global-block.  With that split the
    # median verdict falls exactly between the switch class and the slower
    # local/global-block class, so op_p50_ms jumped between the two as speed
    # drifted; five leafperm per global-block puts it inside the switch class.
    ADVERSARIAL = ("leafperm",) * 5 + ("global-block",)

    def __init__(self, seed, smoke=False):
        rng = _rng(self.name, seed)
        self.lam3 = _increasing(rng, 3, 1.5, 2.5)
        self.lam_c = _increasing(rng, 3, 1.5, 2.5)
        self.lam4 = _increasing(rng, 4, 1.5, 2.5)
        n_struct, n_adv, n_deep = (4, 6, 0) if smoke else (52, 12, 1)
        kinds = [self.STRUCTURAL[i % 4] for i in range(n_struct)]
        kinds += [self.ADVERSARIAL[i % len(self.ADVERSARIAL)] for i in range(n_adv)]
        self.cases = [(kind, self._draw(kind, rng)) for kind in kinds]
        for _ in range(n_deep):
            kind = ("deep-local", "deep-permuted-local")[int(rng.integers(0, 2))]
            self.cases.append((kind, self._draw(kind, rng)))
        self.inputs = {
            "lambda_uhf3": self.lam3,
            "lambda_cantor3": self.lam_c,
            "lambda_uhf4": self.lam4,
            "cases": [(k, _describe(p)) for k, p in self.cases],
        }

    @staticmethod
    def _draw(kind, rng):
        slots = 4 if kind.startswith("deep") else 3
        if kind in ("local", "deep-local"):
            locs = [haar_unitary(2, rng) for _ in range(slots)]
            return {"perm": list(range(1, slots + 1)), "locals": locs}
        if kind in ("permuted-local", "deep-permuted-local"):
            perm = [int(v) + 1 for v in rng.permutation(slots)]
            return {"perm": perm, "locals": [haar_unitary(2, rng) for _ in range(slots)]}
        if kind == "portrait":
            return {"bits": [int(b) for b in rng.integers(0, 2, size=7)]}
        if kind == "switch":
            return {"pair": [1, int(rng.integers(2, 4))]}
        if kind == "leafperm":
            return {"perm": [int(v) for v in rng.permutation(8)]}
        return {"block": haar_unitary(8, rng)}  # global-block on slots 1..3

    def setup(self):
        al, tr, _, iso, _ = _api()
        self.iso = iso
        self.t_uhf3 = tr.build_triple(al.uhf(2, 3), al.TraceState(), tr.dirac_explicit(self.lam3))
        self.t_cantor3 = tr.build_triple(
            al.cantor(3), al.UniformState(), tr.dirac_explicit(self.lam_c)
        )
        deep = any(kind.startswith("deep") for kind, _ in self.cases)
        self.t_uhf4 = (
            tr.build_triple(al.uhf(2, 4), al.TraceState(), tr.dirac_explicit(self.lam4))
            if deep
            else None
        )
        self.specs = [self._spec(kind, p) for kind, p in self.cases]

    def _spec(self, kind, p):
        iso = self.iso
        if "local" in kind:
            triple = self.t_uhf4 if kind.startswith("deep") else self.t_uhf3
            return triple, iso.SlotAutomorphism(tuple(p["perm"]), tuple(p["locals"]))
        if kind == "portrait":
            return self.t_cantor3, iso.TreePortrait(3, tuple(p["bits"]))
        if kind == "switch":
            return self.t_uhf3, iso.switch(*p["pair"], 3)
        if kind == "leafperm":
            return self.t_cantor3, iso.LeafPermutation(3, tuple(p["perm"]))
        return self.t_uhf3, iso.SlotAutomorphism((1, 2, 3), None, ((1, p["block"]),))

    def batch(self):
        return [
            Op(kind, lambda s=s: self._verdict(*s))
            for (kind, _), s in zip(self.cases, self.specs)
        ]

    def _verdict(self, triple, spec):
        v = self.iso.iso_check(triple, spec)
        return {
            "in_iso": v.in_iso,
            "state_preserved": v.state_preserved,
            "levels": v.filtration_levels_preserved,
            "residual": v.commutator_residual,
            "verdict": v,
        }

    def check(self, outputs):
        verdicts = []
        for (triple, _), out in zip(self.specs, outputs):
            if out is None:
                verdicts.append(False)
                continue
            v = out.pop("verdict")
            out["prediction"] = bool(self.iso.iso_prediction(triple, v))
            verdicts.append(out["in_iso"] == out["prediction"])
        return verdicts


class WindowLift:
    """Lift-suite matrix: uhf depth 2 (trivial action) and Cantor depth 4 (odometer)."""

    name = "window-lift"
    RADIUS, MARGIN = 4, 2

    def __init__(self, seed, smoke=False):
        rng = _rng(self.name, seed)
        # uhf depth 2: doubled Dirac of side 2*16*(2R+1) = 288.  At depth 3 the
        # dense products dominate and, on a shared 2-core machine, their time
        # spread by ~20% between runs.
        self.uhf_depth, self.cantor_depth = (2, 3) if smoke else (2, 4)
        self.radius = 3 if smoke else self.RADIUS
        self.lam_u = _increasing(rng, self.uhf_depth, 1.5, 2.5)
        self.lam_c = _increasing(rng, self.cantor_depth, 1.5, 2.5)
        n_chars = 1 if smoke else 3
        thetas = [float(t) for t in rng.uniform(0.0, 1.0, size=n_chars)]
        self.configs = []
        for theta in thetas:
            # (base, character angle, beta, sigma, designed failure)
            self.configs.append(("uhf", theta, None, "id", False))
            locs = [haar_unitary(2, rng) for _ in range(self.uhf_depth)]
            self.configs.append(("uhf", theta, ("local", locs), "id", False))
            self.configs.append(("cantor", theta, None, "id", False))
            power = int(rng.integers(1, 2**self.cantor_depth))
            self.configs.append(("cantor", theta, ("odometer", power), "id", False))
        # designed failures: label-flipping sigma and a non-rigid beta
        self.configs.append(("uhf", 0.0, None, "neg", True))
        self.configs.append(("uhf", 0.0, ("switch", [1, 2]), "id", True))
        dims = {"uhf": 4**self.uhf_depth, "cantor": 2**self.cantor_depth}
        self.elements = [
            {g: rng.normal(size=dims[base]) for g in (-1, 0, 1)} for base, *_ in self.configs
        ]
        self.inputs = {
            "lambda_uhf": self.lam_u,
            "lambda_cantor": self.lam_c,
            "radius": self.radius,
            "configs": [_describe(c) for c in self.configs],
            "elements": [_describe(e) for e in self.elements],
        }

    def setup(self):
        al, tr, _, iso, cx = _api()
        self.iso, self.cx = iso, cx
        fu, fc = al.uhf(2, self.uhf_depth), al.cantor(self.cantor_depth)
        base_u = tr.build_triple(fu, al.TraceState(), tr.dirac_explicit(self.lam_u))
        base_c = tr.build_triple(fc, al.UniformState(), tr.dirac_explicit(self.lam_c))
        self.lifted = {
            "uhf": cx.build_lifted(base_u, cx.TrivialAction(), self.radius, self.MARGIN),
            "cantor": cx.build_lifted(base_c, cx.OdometerAction(), self.radius, self.MARGIN),
        }
        self.filts = {"uhf": fu, "cantor": fc}
        self.prepared = []
        for (base, theta, beta, sigma, _), coeffs in zip(self.configs, self.elements):
            filt = self.filts[base]
            x = cx.CrossedElement(
                {g: al.AlgebraElement(filt, filt.depth, c) for g, c in coeffs.items()}
            )
            coc = cx.Cocycle(complex(np.exp(2j * np.pi * theta)))
            self.prepared.append((self.lifted[base], coc, self._beta(beta, filt), sigma, x))

    def _beta(self, beta, filt):
        iso = self.iso
        if beta is None:
            return None
        kind, p = beta
        n = filt.depth
        if kind == "local":
            return iso.SlotAutomorphism(tuple(range(1, n + 1)), tuple(p))
        if kind == "switch":
            return iso.switch(*p, n)
        # odometer power: add `p` to the leaf word read least significant bit first
        rev = [int(format(i, f"0{n}b")[::-1], 2) for i in range(2**n)]
        return iso.LeafPermutation(n, tuple(rev[(rev[i] + p) % 2**n] for i in range(2**n)))

    def batch(self):
        return [
            Op(f"{c[0]}-{'fail' if c[4] else 'pass'}", lambda p=p: self._lift(*p))
            for c, p in zip(self.configs, self.prepared)
        ]

    def _lift(self, lifted, coc, beta, sigma, x):
        cx = self.cx
        u = cx.lifted_unitary(lifted, coc, beta, sigma, check_rigidity=False)
        comm = cx.lift_commutation_check(lifted, u)
        cov = cx.covariance_check(lifted, coc, beta, sigma, x, check_rigidity=False)
        return {"commutation": comm["residual"], "covariance": cov["residual"]}

    def check(self, outputs):
        verdicts = []
        for config, out in zip(self.configs, outputs):
            if out is None:
                verdicts.append(False)
            elif config[4]:
                verdicts.append(out["commutation"] > 0.1)
            else:
                verdicts.append(out["commutation"] < 1e-10 and out["covariance"] < 1e-10)
        return verdicts


def _describe(obj):
    """JSON-able form of generated inputs; arrays enter by digest."""
    if isinstance(obj, np.ndarray):
        return array_digest(obj)
    if isinstance(obj, dict):
        return {str(k): _describe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_describe(v) for v in obj]
    return obj


WORKLOADS = {w.name: w for w in (MatchedDistance, CantorSplit, Rigidity, WindowLift)}
