"""Seeded op lists for the four benchmark workloads, with their output checks.

Every input comes from this module's own generator, keyed by the workload
family and ``--seed``; nothing here calls ``multconv.harness``, so editing the
library's generators cannot change what the benchmark measures.  An op is a
closure over inputs built during set-up; the timed region is exactly one call
of that closure.  Checks run outside the timed region and re-derive results
from definitions (double loops over atoms) rather than trusting the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from multconv.lifting import lift, lift_inverse
from multconv.measures import Measure, mconv, symmetrize
from multconv.scalars import Surd
from multconv.sphere import SphereMeasure, sconv
from multconv.subsets import GeneratingPair, SubsetMask
from multconv.universality import decide_special, decide_universal_rn, decide_universal_sphere

WORKLOADS = ("decide-rn", "decide-sphere", "algebra", "cli")

# Zero is in the pool on purpose: atoms then populate lower-order coordinate
# components too, which is what gives the deciders' projections work.
COORDS = tuple(Fraction(v) for v in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2))
ZERO = Fraction(0)
NONZERO = tuple(c for c in COORDS if c)
WEIGHTS = tuple(
    Fraction(v) for v in (-2, Fraction(-3, 2), -1, Fraction(-1, 2), Fraction(1, 2), 1, Fraction(3, 2), 2)
)
CLASSES = ("unconditional", "symmetric", "antisymmetric", "none")

DECIDE_DIM = 4
DECIDE_OPS = 120
DECIDE_ATOMS = range(4, 15)
ALGEBRA_DIM = 3
ALGEBRA_OPS = 100
ALGEBRA_ATOMS = (10, 60)
ALGEBRA_SECOND = (10, 20)
CLI_DIM = 3


@dataclass
class Op:
    """One timed call plus what the benchmark needs to judge and describe it."""

    label: str
    call: Callable[[], object]
    # returns a failure name, or None when the result passed every check
    check: Callable[[object], Optional[str]]
    # canonical text of the result; its digest is compared across passes and
    # against the committed digests of the default seed
    render: Callable[[object], str]
    atoms: int
    setting: str = "point"
    malformed: bool = False
    conditions: Callable[[object], int] = lambda result: 0
    negative: Callable[[object], bool] = lambda result: False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(family: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{family}:{seed}")


def _zero_plan(dim: int) -> list[int]:
    """Nonzero-coordinate masks that atoms take in turn: mostly full, one
    zero in rotating position, now and then two.

    Which coordinates vanish decides the projections' sizes and so most of
    a decision's cost.  Drawing them at random made the cost quantiles of a
    120-op list move by 7-8% from seed to seed; a fixed plan leaves the seed
    only the nonzero values and weights, which moves them by about 1%.
    """
    full = (1 << dim) - 1
    out = []
    for t in range(2 * dim):
        out += [full, full & ~(1 << t % dim)]
        if t % 4 == 3:
            out.append(full & ~(1 << t % dim) & ~(1 << (t + 1) % dim))
    return out


def _random_atoms(rng: random.Random, dim: int, count: int) -> dict:
    plan = _zero_plan(dim)
    points: set = set()
    for t in range(count):
        mask = plan[t % len(plan)]
        while True:
            pt = tuple(rng.choice(NONZERO) if mask >> i & 1 else ZERO for i in range(dim))
            if pt not in points:
                break
        points.add(pt)
    return {pt: rng.choice(WEIGHTS) for pt in sorted(points)}


def _one_generator(rng: random.Random, dim: int, variant: int) -> tuple[list[int], list[int]]:
    """A proper pair with one random generator whose size and parity come
    from ``variant``; its condition count depends only on those two."""
    members = rng.sample(range(dim), 1 + variant % dim)
    generator = [sum(1 << i for i in members)]
    return (generator, []) if variant // dim % 2 == 0 else ([], generator)


def _class_bits(klass: str, dim: int) -> tuple[list[int], list[int]]:
    full = (1 << dim) - 1
    return {
        "unconditional": (list(range(1 << dim)), []),
        "symmetric": ([full], []),
        "antisymmetric": ([], [full]),
        "none": ([], []),
    }[klass]


def _pair(dim: int, evens: list[int], odds: list[int]) -> GeneratingPair:
    return GeneratingPair.make(dim, [SubsetMask(b, dim) for b in evens], [SubsetMask(b, dim) for b in odds])


# -- definition-level reference computations ---------------------------------


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _pattern(coords) -> int:
    return sum(1 << i for i, c in enumerate(coords) if c)


def _index_pairs(dim: int, supports: list[int], evens: list[int], odds: list[int]) -> set:
    """All (E, J) with J inside E meeting evens evenly and odds oddly."""
    out = set()
    for e in supports:
        for j in range(1 << dim):
            if j & ~e:
                continue
            if all(_popcount(j & f) % 2 == 0 for f in evens) and all(_popcount(j & f) % 2 == 1 for f in odds):
                out.add((e, j))
    return out


def _point_product(a: dict, b: dict) -> dict:
    acc: dict = {}
    for x, wx in a.items():
        for y, wy in b.items():
            pt = tuple(p * q for p, q in zip(x, y))
            acc[pt] = acc.get(pt, Surd(0)) + wx * wy
    return {pt: w for pt, w in acc.items() if w}


def _sphere_product(a: dict, b: dict) -> dict:
    acc: dict = {}
    for d, wd in a.items():
        nd = sum(c * c for c in d)
        for e, we in b.items():
            prod = tuple(p * q for p, q in zip(d, e))
            if not any(prod):
                continue
            g = math.gcd(*prod)
            ray = tuple(c // g for c in prod)
            factor = Surd.sqrt(Fraction(sum(c * c for c in prod), nd * sum(c * c for c in e)))
            acc[ray] = acc.get(ray, Surd(0)) + wd * we * factor
    return {r: w for r, w in acc.items() if w}


def _reflect(atoms: dict, f: int) -> dict:
    return {tuple(-c if f >> i & 1 else c for i, c in enumerate(pt)): w for pt, w in atoms.items()}


def _witness_failure(nu, report, evens, odds, sphere: bool) -> Optional[str]:
    """Re-verify a negative decision's witness from the definitions."""
    w = dict(report.witness.atoms)
    if not w:
        return "witness-zero"
    product = _sphere_product if sphere else _point_product
    if product(dict(nu.atoms), w):
        return "witness-not-annihilated"
    first = next(c for c in report.conditions if not c.satisfied)
    if any(_pattern(pt) != first.support.bits for pt in w):
        return "witness-wrong-pattern"
    neg = {pt: -x for pt, x in w.items()}
    if any(_reflect(w, f) != w for f in evens) or any(_reflect(w, f) != neg for f in odds):
        return "witness-outside-class"
    return None


def _report_json(report) -> str:
    return json.dumps(report.to_json(), separators=(",", ":"))


# -- decide-rn and decide-sphere -----------------------------------------------


def _decide_inputs(seed: int) -> list[tuple]:
    """The n=4 decision list shared by both decide workloads.

    A quarter of the ops use the empty pair, a quarter name a symmetry class
    (routed through ``decide_special`` on points), and half use one seeded
    generator, even or odd, whose size follows the plan: the condition count
    of a one-generator pair depends only on that size and parity, which keeps
    the cost mix the same for every seed.  One measure in four is made even
    under a random reflection, so negative decisions and their witness
    construction get a fixed share of the work.  A seed changes the points,
    weights, generators, reflections and order, not the mix.
    """
    rng = _rng("decide", seed)
    sizes = list(DECIDE_ATOMS)
    plan = []
    for i in range(DECIDE_OPS):
        # sizes ascend in equal strata while kind and shape cycle through all
        # 16 combinations every 16 ops
        count = sizes[i * len(sizes) // DECIDE_OPS]
        kind = ("empty", "pair", "special", "pair")[i % 4]
        shape = "even" if (i + i // 4) % 4 == 3 else "plain"
        variant = i // 4 % 8  # class of a special op; parity and size of a pair's generator
        plan.append((count, kind, variant, shape))
    rng.shuffle(plan)
    out = []
    for count, kind, variant, shape in plan:
        if shape == "even":
            f = rng.randrange(1, 1 << DECIDE_DIM)
            atoms: dict = {}
            for pt, w in _random_atoms(rng, DECIDE_DIM, (count + 1) // 2).items():
                for q in (pt, tuple(-c if f >> i & 1 else c for i, c in enumerate(pt))):
                    atoms[q] = atoms.get(q, 0) + w
        else:
            atoms = _random_atoms(rng, DECIDE_DIM, count)
        klass = None
        if kind == "special":
            klass = CLASSES[variant % 4]
            evens, odds = _class_bits(klass, DECIDE_DIM)
        elif kind == "empty":
            evens, odds = [], []
        else:
            evens, odds = _one_generator(rng, DECIDE_DIM, variant)
        out.append((atoms, evens, odds, klass))
    return out


def _radial(atoms: dict) -> dict:
    """Point atoms pushed to primitive rays with norm-weighted surd weights."""
    acc: dict = {}
    for pt, w in atoms.items():
        if not any(pt):
            continue
        scale = math.lcm(*(c.denominator for c in pt))
        ints = [int(c * scale) for c in pt]
        g = math.gcd(*ints)
        ray = tuple(v // g for v in ints)
        add = Surd(w) * Surd.sqrt(sum(c * c for c in pt))
        acc[ray] = acc.get(ray, Surd(0)) + add
    return acc


def _decide_op(index: int, atoms: dict, evens, odds, klass, sphere: bool) -> Op:
    n = DECIDE_DIM
    supports = [e for e in range(1 << n) if e or not sphere]
    if sphere:
        nu = SphereMeasure(n, _radial(atoms))
        support = [SubsetMask(e, n) for e in supports]
        pair = _pair(n, evens, odds)
        call = lambda: decide_universal_sphere(nu, support, pair)  # noqa: E731
    elif klass is not None:
        nu = Measure(n, atoms)
        call = lambda: decide_special(nu, klass, "full")  # noqa: E731
    else:
        nu = Measure(n, atoms)
        support = [SubsetMask(e, n) for e in supports]
        pair = _pair(n, evens, odds)
        call = lambda: decide_universal_rn(nu, support, pair)  # noqa: E731
    expected = _index_pairs(n, supports, evens, odds)

    def check(report) -> Optional[str]:
        if {(c.support.bits, c.index.bits) for c in report.conditions} != expected:
            return "condition-list"
        if report.universal != all(c.satisfied for c in report.conditions):
            return "decision-inconsistent"
        if not report.universal:
            return _witness_failure(nu, report, evens, odds, sphere)
        return None

    kind = "special" if klass is not None else ("pair" if evens or odds else "empty")
    return Op(
        label=f"{index}:{kind}:{len(atoms)}",
        call=call,
        check=check,
        render=_report_json,
        atoms=nu.atom_count(),
        setting="sphere" if sphere else "point",
        conditions=lambda report: len(report.conditions),
        negative=lambda report: not report.universal,
    )


def _decide_ops(seed: int, sphere: bool) -> Iterator[Op]:
    for i, spec in enumerate(_decide_inputs(seed)):
        yield _decide_op(i, *spec, sphere)


# -- algebra --------------------------------------------------------------------


def _algebra_ops(seed: int) -> Iterator[Op]:
    """Chains on pairs of n=3 measures: the first operand's size steps evenly
    through 10..60 atoms and the second cycles through 10..20, so op cost
    grows about linearly with the first size and has no sparse tail."""
    rng = _rng("algebra", seed)
    lo, hi = ALGEBRA_ATOMS
    lo2, hi2 = ALGEBRA_SECOND
    plan = [
        (lo + (hi - lo) * i // (ALGEBRA_OPS - 1), lo2 + i % (hi2 - lo2 + 1), i % (2 * ALGEBRA_DIM))
        for i in range(ALGEBRA_OPS)
    ]
    rng.shuffle(plan)
    n = ALGEBRA_DIM
    return (
        _chain_op(
            index,
            Measure(n, _random_atoms(rng, n, k)),
            Measure(n, _random_atoms(rng, n, k2)),
            SubsetMask(rng.randrange(1, 1 << n), n),
            _pair(n, *_one_generator(rng, n, variant)),
        )
        for index, (k, k2, variant) in enumerate(plan)
    )


def _chain_op(index: int, a: Measure, b: Measure, e: SubsetMask, pair: GeneratingPair) -> Op:
    def call():
        m = mconv(a, b)
        return m, sconv(a, b), m.project(e), m.restrict_order(e), symmetrize(m, pair), lift_inverse(lift(a))

    def check(result) -> Optional[str]:
        m, _, _, _, _, back = result
        if dict(back.atoms) != dict(a.atoms):
            return "lift-round-trip"
        if dict(m.atoms) != _point_product(dict(a.atoms), dict(b.atoms)):
            return "mconv-vs-double-loop"
        return None

    return Op(
        label=f"{index}:chain:{a.atom_count()}",
        call=call,
        check=check,
        render=lambda result: json.dumps([x.to_json() for x in result], separators=(",", ":")),
        atoms=a.atom_count() + b.atom_count(),
    )


# -- cli --------------------------------------------------------------------------

# Request mix: (command, setting, count).  Counts sum to CLI_OPS.
CLI_MIX = (
    ("universal", "point", 72),
    ("universal", "sphere", 72),
    ("convolve", "point", 40),
    ("convolve", "sphere", 20),
    ("project", "point", 14),
    ("project", "sphere", 14),
    ("decompose", "point", 28),
    ("symmetrize", "point", 28),
    ("lift", "point", 24),
    ("lift-inverse", "sphere", 24),
    ("zonoid", "sphere", 24),
    ("verify", "other", 20),
    ("malformed", "other", 20),
)
CLI_OPS = sum(count for _, _, count in CLI_MIX)
CLI_SUITES = (
    "field-laws",
    "convolution-oracle",
    "banach-norm",
    "projection-products",
    "radial-projection",
    "reflection-symmetrization",
    "index-transformation",
    "density-convolution",
)
# Two kinds of malformed input escape ``main()`` with a traceback at the time
# this benchmark was written (a zero denominator and a top-level JSON list).
# They stay in the mix so that fixing them shows up as a higher success_frac.
MALFORMED = (
    "zero-denominator",
    "top-level-list",
    "zero-denominator",
    "top-level-list",
    "bad-json",
    "radicand-not-square-free",
    "float-coordinate",
    "subset-out-of-range",
    "unknown-suite",
    "unknown-command",
)


class Request:
    """A ``multconv.cli.main`` call captured in-process."""

    def __init__(self, argv: list[str]):
        # imported here so that only the cli workload's set-up pays for it
        from multconv.cli import main

        self.argv = argv
        self.main = main

    def __call__(self):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(self.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped traceback is the failure being counted
            return None, "", type(exc).__name__
        return code, out.getvalue(), None


def _family(masks: list[int]) -> str:
    parts = []
    for bits in masks:
        idx = [str(i + 1) for i in range(CLI_DIM) if bits >> i & 1]
        parts.append(",".join(idx) or "0")
    return ";".join(parts)


class Files:
    """Input files of cli requests: named during generation, written to
    ``workdir`` in one batch afterwards."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.texts: dict[str, str] = {}

    def add(self, name: str, payload) -> str:
        path = os.path.join(self.workdir, name)
        self.texts[path] = payload if isinstance(payload, str) else json.dumps(payload)
        return path

    def write(self) -> None:
        for path, text in self.texts.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        self.texts.clear()


def _malformed_argv(kind: str, files: Files, name: str) -> list[str]:
    one = {"point": ["1", "1", "1"], "weight": [["1", 1]]}
    if kind == "zero-denominator":
        bad = {"point": ["1/0", "1", "2"], "weight": [["1", 1]]}
        return ["universal", files.add(name, {"dim": 3, "atoms": [one, bad]})]
    if kind == "top-level-list":
        return ["decompose", files.add(name, [one])]
    if kind == "bad-json":
        return ["project", files.add(name, '{"dim": 3, "atoms": ['), "--E", "1"]
    if kind == "radicand-not-square-free":
        bad = {"point": ["1", "2", "1"], "weight": [["1", 12]]}
        other = files.add(name + ".b", {"dim": 3, "atoms": [one]})
        return ["convolve", files.add(name, {"dim": 3, "atoms": [bad]}), other]
    if kind == "float-coordinate":
        bad = {"point": [0.5, "1", "1"], "weight": [["1", 1]]}
        return ["symmetrize", files.add(name, {"dim": 3, "atoms": [bad]}), "--evens", "1"]
    if kind == "subset-out-of-range":
        return ["project", files.add(name, {"dim": 3, "atoms": [one]}), "--E", "1,4"]
    if kind == "unknown-suite":
        return ["verify", "--suite", "no-such-suite"]
    return ["frobnicate", files.add(name, {"dim": 3, "atoms": [one]})]


def _cli_ops(seed: int, files: Files) -> Iterator[Op]:
    """Requests against JSON files added to ``files`` during set-up.

    Each command's sizes step evenly through a range chosen so that request
    costs overlap between commands instead of forming separate clusters; the
    seed picks the points, weights, pairs and request order, not the sizes.
    """
    rng = _rng("cli", seed)
    plan = [(cmd, setting, j, count) for cmd, setting, count in CLI_MIX for j in range(count)]
    rng.shuffle(plan)
    n = CLI_DIM
    for index, (cmd, setting, j, count) in enumerate(plan):
        def size(lo: int, hi: int) -> int:
            return lo + j * (hi - lo + 1) // count

        name = f"r{index}.json"
        atoms = 0
        expect = (0,)
        if cmd == "malformed":
            kind = MALFORMED[j % len(MALFORMED)]
            argv = _malformed_argv(kind, files, name)
            expect = (2,)
            label = f"{index}:malformed:{kind}"
        else:
            label = f"{index}:{cmd}:{setting}"
            if cmd == "universal":
                evens, odds = _one_generator(rng, n, j // 2) if j % 2 else ([], [])
                mu = Measure.zero(n)
                while not mu:  # radial projection can cancel every atom
                    raw = _random_atoms(rng, n, size(3, 16))
                    mu = SphereMeasure(n, _radial(raw)) if setting == "sphere" else Measure(n, raw)
                argv = ["universal", files.add(name, mu.to_json()), "--support", "all"]
                if evens:
                    argv += ["--evens", _family(evens)]
                if odds:
                    argv += ["--odds", _family(odds)]
                if setting == "sphere":
                    argv.append("--sphere")
                atoms, expect = mu.atom_count(), (0, 3)
            elif cmd == "convolve":
                a = Measure(n, _random_atoms(rng, n, size(4, 25)))
                b = Measure(n, _random_atoms(rng, n, 4 + j * 7 % 22))
                argv = ["convolve", files.add(name, a.to_json()), files.add(name + ".b", b.to_json())]
                if setting == "sphere":
                    argv.append("--sphere")
                atoms = a.atom_count() + b.atom_count()
            elif cmd == "zonoid":
                gens = []
                while len(gens) < 1 + j % 5:
                    g = [rng.choice(COORDS) for _ in range(n)]
                    if any(g):
                        gens.append([str(c) for c in g])
                check = ("d-universal", "unc-d-universal", "singleton-support")[j % 3]
                argv = ["zonoid", files.add(name, {"dim": n, "generators": gens}), "--check", check]
                atoms = 2 * len(gens)
            elif cmd == "verify":
                argv = ["verify", "--suite", CLI_SUITES[j % len(CLI_SUITES)], "--seed", str(rng.randrange(1000)),
                        "--trials", str(size(2, 11))]
            else:
                atoms = size(8, 59)
                mu = Measure(n, _random_atoms(rng, n, atoms))
                if cmd == "lift-inverse":
                    mu = lift(mu)
                argv = [cmd, files.add(name, mu.to_json())]
                if cmd == "project":
                    argv += ["--E", _family([rng.randrange(1, 1 << n)])]
                    if setting == "sphere":
                        argv.append("--sphere")
                elif cmd == "symmetrize":
                    evens, odds = _one_generator(rng, n, j)
                    argv += ["--evens", _family(evens), "--odds", _family(odds)]
        yield _cli_op(label, argv, expect, atoms, setting, cmd == "malformed")


def _cli_op(label: str, argv: list[str], expect: tuple, atoms: int, setting: str, malformed: bool) -> Op:
    def check(result) -> Optional[str]:
        code, out, escaped = result
        if escaped:
            return f"escaped:{escaped}"
        if code not in expect:
            return f"exit-code:{code}"
        if argv[0] == "universal" and not malformed and code != (0 if json.loads(out)["universal"] else 3):
            return "exit-code-vs-report"
        return None

    def conditions(result) -> int:
        code, out, _ = result
        if malformed or code not in (0, 3) or argv[0] not in ("universal", "zonoid"):
            return 0
        payload = json.loads(out)
        return len(payload.get("report", payload).get("conditions", ()))

    def negative(result) -> bool:
        return argv[0] == "universal" and not malformed and result[0] == 3

    return Op(
        label=label,
        call=Request(argv),
        check=check,
        render=lambda result: f"{result[0]}|{result[2]}|{result[1]}",
        atoms=atoms,
        setting=setting,
        malformed=malformed,
        conditions=conditions,
        negative=negative,
    )


def build(workload: str, seed: int, files: Files) -> Iterator[Op]:
    """The workload's ops in order, generated one at a time so that set-up
    can be timed in short laps; cli input files go to ``files``."""
    if workload == "decide-rn":
        return _decide_ops(seed, sphere=False)
    if workload == "decide-sphere":
        return _decide_ops(seed, sphere=True)
    if workload == "algebra":
        return _algebra_ops(seed)
    if workload == "cli":
        return _cli_ops(seed, files)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, files: Files) -> list[Op]:
    """Small fixed ops that touch the workload's code paths before timing.

    They do not depend on the seed, so set-up time does not either.
    """
    atoms = {pt: WEIGHTS[i] for i, pt in enumerate(sorted({
        (Fraction(1), Fraction(2), Fraction(0), Fraction(-1)),
        (Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)),
        (Fraction(2), Fraction(-1), Fraction(1), Fraction(0)),
    }))}
    if workload in ("decide-rn", "decide-sphere"):
        sphere = workload == "decide-sphere"
        return [_decide_op(0, atoms, [], [], None, sphere), _decide_op(1, atoms, [3], [], "symmetric", sphere)]
    if workload == "algebra":
        a = Measure(ALGEBRA_DIM, {pt[:3]: w for pt, w in atoms.items()})
        b = Measure(ALGEBRA_DIM, {pt[1:]: w for pt, w in atoms.items()})
        return [_chain_op(0, a, b, SubsetMask(5, ALGEBRA_DIM), _pair(ALGEBRA_DIM, [1], [6]))]
    mu = Measure(CLI_DIM, {pt[:3]: w for pt, w in atoms.items()})
    path = files.add("warmup.json", mu.to_json())
    return [
        _cli_op("warmup", ["universal", path, "--support", "all"], (0, 3), 4, "point", False),
        _cli_op("warmup", ["convolve", path, path, "--sphere"], (0,), 8, "sphere", False),
        _cli_op("warmup", ["frobnicate"], (2,), 0, "other", True),
    ]
