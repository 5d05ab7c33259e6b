#!/usr/bin/env python3
"""Time the product kernels on coordinates that do not repeat.

Every coordinate of every input is a distinct prime, signed at random, so
no two products of coordinates coincide and no per-value table could help:
``mconv`` on points over per-coordinate denominators (2, 3, 5, ...) and
``sconv`` on the radial projections of integer points, with 60 x 20 atoms
at n = 3 and 16 x 16 atoms at n = 8.  One more ``sconv`` case takes
sphere measures from the public constructor with rational weights at
n = 3, 16 x 16 atoms on the first 96 primes: each mass is the weight over
its ray's norm, so the measures hold about one part per atom.  Two more
cases read the 65,280-atom witness of ``scripts/bound_case.py --dim 8``'s
sphere decision: ``component_patterns`` and ``SphereMeasure.from_json``
of its JSON.  The codec cases read and write a 60-atom n = 3 point measure
whose coordinates are distinct signed primes over distinct prime
denominators (``from_json`` of its JSON, the text writer ``to_json_text``
and ``json.dumps`` of ``to_json()``), and write that witness both ways;
one more ``from_json`` reads that measure's JSON with one coordinate
written as a JSON int, one weight given a second term and one atom
repeated, and another with every weight one term over radicands 1, 2 and
3, the first of radicand 3 zero.  The lift cases run ``lift`` and
``lift_inverse`` (on the lift) of such measures at n = 3 with 60 atoms and
at n = 8 with 24.  The constructor case builds that measure
with ``Measure(3, rows)`` from its atoms as ``Fraction`` locations and
:class:`Surd` weights, sorted by location: the public entry reads the
coordinates as one column, as ``from_json`` does, on values that do not
repeat.
The decision cases run ``decide_universal_rn`` on one
10-atom point measure over the full support with 40 distinct
``harness.gen_pair`` pairs, at n = 4 and n = 8, twice: cold, with the
decider's plan cache cleared before each decision, and warm, with the
plans cached (the first of the ``REPEAT`` calls fills the cache).

Prints one line per case: the best time of ``REPEAT`` calls, the result's
atom count (for the decisions, their condition count) and the SHA-256 of
its JSON.  A decision case also prints, in both modes, the support sets
that one call's condition pass grouped over those its reports list, a
count that does not drift with the machine as the times do.  A first
line gives the bytes that a full plan cache retains: the tracemalloc size
of the decider's 64 plans for 64 distinct ``gen_pair`` pairs over the
full support at n = 8, built cold before any case runs, whose garbage
would refill the interpreter's free lists.  With
``--check`` nothing is timed or traced: each case runs once and its
result is compared with a per-atom reference
(``harness.brute_force_convolution``, the double loop over the decoded
atoms, for ``mconv``; its radial projection for ``sconv`` of projected
points; the double loop over the decoded sphere atoms for ``sconv`` of
several parts; one zero pattern per atom; for ``from_json`` and the
constructor, the atoms and their stored order as ``read_atoms`` reads the
measure's JSON through ``Fraction`` and ``Surd`` alone, with no measure
built; for ``lift``, the composed definition
``radial_project(msym(tensor(dirac([1]), mu)))`` in its stored order; for
``lift_inverse``, the measure lifted, in its stored order, whose composed
lift is the input; for the writers, the bytes of the other writer and the
measure read back; for the decisions, each report's JSON with that of the
same decision in the other mode), and the script exits 1 on a mismatch.

    PYTHONPATH=src python scripts/kernel_bench.py [--check]
"""

import argparse
import hashlib
import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import chain
from operator import mul

from multconv import (
    GeneratingPair,
    Measure,
    SubsetMask,
    SphereMeasure,
    Surd,
    all_subsets,
    decide_universal_sphere,
    lift,
    lift_inverse,
    mconv,
    msym,
    radial_project,
    sconv,
    tensor,
    universality,
    zero_pattern,
)
from multconv.harness import brute_force_convolution, gen_interfering_measure, gen_measure, gen_pair
from multconv.points import primitive_ray, ray_norm_sq
from multconv.subsets import _lex_table
from multconv.universality import _plan, decide_universal_rn

PRIMES = [p for p in range(2, 3000) if all(p % d for d in range(2, int(p**0.5) + 1))]
REPEAT = 9


def distinct_pair(
    seed: int, dim: int, sizes: tuple[int, int], dens: list[int], primes: list[int] = PRIMES
) -> tuple[Measure, Measure]:
    """Two point measures whose coordinates are distinct signed primes
    ``p / dens[i]`` on coordinate ``i``, no prime used twice."""
    rng = random.Random(f"kernel:{seed}:{dim}")
    primes = iter(rng.sample(primes, dim * sum(sizes)))
    out = []
    for size in sizes:
        atoms = {}
        for _ in range(size):
            point = tuple(Fraction(rng.choice((-1, 1)) * next(primes), q) for q in dens)
            atoms[point] = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 6))
        out.append(Measure(dim, atoms))
    return out[0], out[1]


def distinct_measure(seed: int, dim: int, size: int) -> Measure:
    """A point measure whose coordinates are distinct signed primes over
    distinct prime denominators, no prime used twice."""
    rng = random.Random(f"codec:{seed}:{dim}")
    primes = iter(rng.sample(PRIMES, 2 * dim * size))
    atoms = {}
    for _ in range(size):
        point = tuple(Fraction(rng.choice((-1, 1)) * next(primes), next(primes)) for _ in range(dim))
        atoms[point] = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 6))
    return Measure(dim, atoms)


def dumps(mu) -> str:
    return json.dumps(mu.to_json(), separators=(",", ":"))


def writers(name: str, mu):
    """The text writer and ``json.dumps`` of ``to_json()`` on ``mu``, each
    checked against the other's bytes and by reading its text back."""
    def check(text):
        return text == dumps(mu) == mu.to_json_text() and type(mu).from_json(json.loads(text)) == mu

    yield (f"to_json_text {name}", mu.to_json_text, check)
    yield (f"json.dumps {name}", lambda: dumps(mu), check)


def on_rays(mu: Measure) -> SphereMeasure:
    """The integer points of ``mu`` as rays with the same rational weights."""
    return SphereMeasure(mu.dim, {tuple(map(int, x)): w for x, w in mu.atoms.items()})


def sphere_product(a: SphereMeasure, b: SphereMeasure) -> dict:
    """``sconv`` as a double loop over the decoded atoms: the unit vectors
    of rays ``d`` and ``e`` multiply to ``d * e / (|d| |e|)``, whose weight
    ``w_d * w_e`` moves to the ray of ``d * e`` times that point's norm."""
    acc = {}
    for d, wd in a.atoms.items():
        for e, we in b.atoms.items():
            v = tuple(map(mul, d, e))
            norm = Surd.sqrt(Fraction(ray_norm_sq(v), ray_norm_sq(d) * ray_norm_sq(e)))
            ray = primitive_ray(v)
            acc[ray] = acc.get(ray, Surd(0)) + wd * we * norm
    return {ray: w for ray, w in acc.items() if w}


def read_atoms(data: dict) -> dict:
    """The atoms of a measure's JSON read one by one through ``Fraction``
    and ``Surd`` alone: a point by ``Fraction`` coordinates, a ray divided
    by the gcd of its entries, a weight as the sum of its terms
    ``Fraction(c) * sqrt(r)``, repeats summed and zero weights dropped.
    They are listed in a measure's stored order: its parts (one per
    radicand of the stored masses, on the sphere the weight over the ray's
    norm) are made location by location, each location's terms in
    radicand order, and the locations listed part by part."""
    weights: dict = {}
    for atom in data["atoms"]:
        if "ray" in atom:
            entries = [int(c) for c in atom["ray"]]
            g = math.gcd(*entries)
            loc = tuple(c // g for c in entries)
        else:
            loc = tuple(Fraction(c) for c in atom["point"])
        w = sum((Surd(Fraction(c)) * Surd.sqrt(r) for c, r in atom["weight"]), Surd(0))
        weights[loc] = weights.get(loc, Surd(0)) + w
    parts: dict = {}
    for loc, w in weights.items():
        mass = w * Surd.sqrt(Fraction(1, sum(c * c for c in loc))) if "ray" in data["atoms"][0] else w
        for r, _ in mass.terms:
            parts.setdefault(r, []).append(loc)
    return {loc: weights[loc] for loc in dict.fromkeys(chain.from_iterable(parts.values()))}


def same_atoms(mu, data: dict) -> bool:
    """Whether ``mu`` holds the atoms of ``read_atoms(data)``, in its order."""
    return list(mu.atoms.items()) == list(read_atoms(data).items())


def composed_lift(mu: Measure) -> SphereMeasure:
    """``lift`` by its definition: a unit leading coordinate, the origin
    average, the radial projection."""
    return radial_project(msym(tensor(Measure.dirac([1]), mu)))


def same_order(mu, nu) -> bool:
    """Whether two measures are equal and store their parts and keys in the
    same order."""
    return mu == nu and [list(part) for part in mu._parts.values()] == [list(part) for part in nu._parts.values()]


def witness(dim: int) -> SphereMeasure:
    """The witness of the sphere decision that ``bound_case.py`` times."""
    nu = radial_project(gen_interfering_measure(5, dim, 10))
    pair = GeneratingPair.make(dim, evens=[SubsetMask.full(dim)])
    return decide_universal_sphere(nu, [e for e in all_subsets(dim) if e.size], pair).witness


def distinct_pairs(dim: int, count: int) -> list[GeneratingPair]:
    """The first ``count`` distinct ``gen_pair`` pairs at ``dim``."""
    pairs, seed = [], 0
    while len(pairs) < count:
        pair = gen_pair(seed, dim)
        seed += 1
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def decisions(dim: int, count: int = 40):
    """The cold and the warm call deciding one measure over the full
    support with ``count`` distinct pairs."""
    nu = gen_measure(6, dim, 10)
    support = list(all_subsets(dim))
    pairs = distinct_pairs(dim, count)

    def cold():
        reports = []
        for pair in pairs:
            _plan.cache_clear()
            reports.append(decide_universal_rn(nu, support, pair))
        return reports

    def warm():
        return [decide_universal_rn(nu, support, pair) for pair in pairs]

    return cold, warm


def plan_cache_bytes(dim: int = 8) -> tuple[int, int]:
    """The plan count of a full cache and the bytes it retains, built cold
    for distinct pairs over the whole space at ``dim``; the dimension's
    mask table is built before tracing, since every plan shares it."""
    count = _plan.cache_info().maxsize
    pairs = distinct_pairs(dim, count)
    family = (1 << (1 << dim)) - 1
    _lex_table(dim)
    _plan.cache_clear()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for pair in pairs:
        _plan(family, pair)
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return count, retained


def grouped_listed(call) -> tuple[int, int]:
    """Over one call of a decision case: the support sets that the
    condition pass grouped, and the distinct support sets its reports list."""
    grouped = []
    classes = universality._classes

    def counting(code, bits, sphere):
        grouped.append(bits)
        return classes(code, bits, sphere)

    universality._classes = counting
    try:
        reports = call()
    finally:
        universality._classes = classes
    return len(grouped), sum(len({e.bits for e, _ in r.groups}) for r in reports)


def same_reports(a: list, b: list) -> bool:
    return [r.to_json() for r in a] == [r.to_json() for r in b]


def cases():
    """``(name, call, check)`` triples; ``check(result)`` is true when the
    result agrees with its reference."""
    for dim, sizes in ((3, (60, 20)), (8, (16, 16))):
        a, b = distinct_pair(1, dim, sizes, PRIMES[:dim])
        yield (
            f"mconv n={dim} {sizes[0]}x{sizes[1]}",
            lambda a=a, b=b: mconv(a, b),
            lambda r, a=a, b=b: r == brute_force_convolution(a, b),
        )
        p, q = distinct_pair(2, dim, sizes, [1] * dim)
        sp, sq = radial_project(p), radial_project(q)
        yield (
            f"sconv n={dim} {sizes[0]}x{sizes[1]}",
            lambda sp=sp, sq=sq: sconv(sp, sq),
            lambda r, p=p, q=q: r == radial_project(brute_force_convolution(p, q)),
        )
    sp, sq = map(on_rays, distinct_pair(3, 3, (16, 16), [1] * 3, PRIMES[:96]))
    yield (
        f"sconv parts={len(sp._parts)}x{len(sq._parts)} n=3 16x16",
        lambda: sconv(sp, sq),
        lambda r: dict(r.atoms) == sphere_product(sp, sq),
    )
    w = witness(8)
    data = json.loads(json.dumps(w.to_json()))
    yield (
        "component_patterns witness n=8",
        w.component_patterns,
        lambda r: r == frozenset(zero_pattern(v) for v in w.atoms),
    )
    yield ("from_json witness n=8", lambda: SphereMeasure.from_json(data), lambda r: same_atoms(r, data))
    yield from writers("witness n=8", w)
    mu = distinct_measure(4, 3, 60)
    text = json.loads(dumps(mu))
    yield ("from_json n=3 60 distinct", lambda: Measure.from_json(text), lambda r: same_atoms(r, text))
    rows = sorted(mu.atoms.items())
    yield ("constructor n=3 60 distinct", lambda: Measure(3, rows), lambda r: same_atoms(r, text))
    # no other coordinate is an int: each has a prime denominator
    mixed = json.loads(dumps(mu))
    mixed["atoms"][0]["point"][0] = 1
    mixed["atoms"][1]["weight"].append(["1/7", 2])
    mixed["atoms"].append(dict(mixed["atoms"][3]))
    yield ("from_json n=3 60 mixed", lambda: Measure.from_json(mixed), lambda r: same_atoms(r, mixed))
    # one term per weight, over three radicands, an early one zero
    zero = json.loads(dumps(mu))
    zero["atoms"][1]["weight"] = [["0", 3]]
    zero["atoms"][2]["weight"] = [["1/7", 2]]
    zero["atoms"][5]["weight"] = [["-2/3", 3]]
    yield ("from_json n=3 60 zero", lambda: Measure.from_json(zero), lambda r: same_atoms(r, zero))
    yield from writers("n=3 60 distinct", mu)
    for dim, size in ((3, 60), (8, 24)):
        nu = distinct_measure(5, dim, size)
        lifted = lift(nu)
        yield (
            f"lift n={dim} {size} distinct",
            lambda nu=nu: lift(nu),
            lambda r, nu=nu: same_order(r, composed_lift(nu)),
        )
        yield (
            f"lift_inverse n={dim} {size} distinct",
            lambda lifted=lifted: lift_inverse(lifted),
            lambda r, nu=nu, lifted=lifted: same_order(r, nu) and composed_lift(r) == lifted,
        )
    for dim in (4, 8):
        cold, warm = decisions(dim)
        yield (f"decide cold n={dim} 40 pairs", cold, lambda r, warm=warm: same_reports(r, warm()))
        yield (f"decide warm n={dim} 40 pairs", warm, lambda r, cold=cold: same_reports(r, cold()))


def render(result) -> str:
    if isinstance(result, str):
        return result
    if isinstance(result, frozenset):
        return json.dumps(sorted(m.bits for m in result))
    if isinstance(result, list):
        return json.dumps([r.to_json() for r in result], separators=(",", ":"))
    return json.dumps(result.to_json(), separators=(",", ":"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare results with references; time nothing")
    args = parser.parse_args()
    failed = 0
    if not args.check:
        count, retained = plan_cache_bytes()
        print(f"{f'plan cache n=8 {count} cold':32s} retained_mb={retained / 1e6:.2f}")
    for name, call, check in cases():
        grouped = " grouped=%d/%d" % grouped_listed(call) if name.startswith("decide") else ""
        if args.check:
            ok = check(call())
            failed += not ok
            print(f"{name:32s} {'ok' if ok else 'MISMATCH'}{grouped}")
            continue
        best = float("inf")
        for _ in range(REPEAT):
            start = time.perf_counter()
            result = call()
            best = min(best, time.perf_counter() - start)
        if isinstance(result, list):
            size = sum(len(r.outcomes) for r in result)
        elif isinstance(result, str):
            size = len(result)
        else:
            size = len(result) if isinstance(result, frozenset) else result.atom_count()
        digest = hashlib.sha256(render(result).encode()).hexdigest()[:16]
        print(f"{name:32s} best_ms={best * 1e3:9.3f} size={size} sha256={digest}{grouped}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
