#!/usr/bin/env python3
"""Digest the package's observable behaviour on seeded inputs.

Prints one ``group count sha256`` line per group, so that two trees can be
compared by running this script against each of them and diffing the
output:

- ``decisions``: the report JSON of both general deciders and of
  ``decide_special`` at every scope and class, on random, reflection-even
  and interfering inputs, as point measures and radially projected; an
  error is recorded as its message;
- ``grids``: the atoms of ``delta_ej`` and ``sigma0_on`` in insertion
  order, and the witness probe ``_probe_product`` as JSON;
- ``sphere``: ``sconv``, subsphere projections, ``radial_project`` and the
  lift round trip;
- ``cli``: stdout, stderr and exit code of well-formed command-line
  requests on seeded files;
- ``cli-malformed``: the same for malformed input files and arguments,
  and for argv that the command table refuses;
- ``groups``: the closure ``gamma`` of seeded pairs (both parts and
  ``proper``), ``gen_subgroup``, ``is_group`` on subgroups, on closures and
  on families one member away from them, and ``j_dual``;
- ``algebra``: on point measures, ``mconv`` (its atoms in insertion order
  too), ``tensor``, ``project``, ``restrict_order``, ``symmetrize`` by
  seeded, dependent and improper pairs, ``msym`` and ``munc``;
- ``linear``: on point and sphere measures, ``+`` and ``-`` (their atoms
  in insertion order too), sums that cancel on some or all atoms, scalar
  ``*`` by rational, irrational and zero factors, ``jordan`` and
  ``sign_density`` at every index set;
- ``surds``: on point measures whose weights carry several radicands
  (``1 + sqrt(2)``, ``sqrt(3) - 1/2``, ``sqrt(6)``) and on sphere measures
  built by the public constructor on rays of different norms, ``mconv``,
  ``sconv``, ``tensor``, ``project``, ``restrict_order``, ``symmetrize``,
  ``jordan``, ``sign_density``, the lift round trip and decisions in both
  settings, as JSON (the atoms of a measure with several radicands are
  listed part by part, so their insertion order is not recorded);
- ``surface``: the weight readers on the ``surds`` inputs and the radial
  projections of their point measures: ``atoms`` in insertion order (the
  weights as text), ``weight_at`` at each support location,
  ``total_mass``, ``tv_norm`` and ``jordan``, and once the message of a
  sphere weight whose norm is too large to factor (``moment_g`` is left
  out, as its floats may differ between Python versions);
- ``codec``: seeded payloads in every form the readers accept (as
  ``to_json`` writes them, with ints among the strings, weights of several
  terms, repeats that cancel, zero coefficients, multiples of a ray and
  other number forms) and each bad value of the codec tests at each slot
  (point coordinate, ray entry, coefficient, radicand), read by
  ``from_json`` and by the public constructor: ``atoms`` in insertion order
  and ``to_json()``, or the exception's type and message;
- ``refusals``: the malformed payloads of the codec tests, and locations
  that mix types or hold equal values of different types in one column
  (``(1, True)``, ``(1, 1.0)``, ``Decimal("1.5")`` beside ``Fraction(3,
  2)``, digit groups, a generator, ...), read by ``from_json`` (where JSON
  can hold them), by the public constructor and, location by location, by
  ``weight_at``: the measure read, or the exception's type and message;
  one payload per setting with an atom that is not an object, read by
  ``from_json`` alone; each payload that JSON holds also goes through ``universal <file>`` in
  the cli (exit code, stdout and stderr).  It runs once, whatever
  ``--max-dim`` is;
- ``dense``: ``to_json_text()`` of ``decide_special`` at full scope on
  every named class, for seeded measures at n = 6, 7, 8 with 40, 100 and
  250 atoms, with few or many zero coordinates, as point measures and
  radially projected, and at n = 6 and 7 also made even under a
  reflection, alone and with three atoms at coordinates 0 and +-3 added.
  These sizes run whatever ``--max-dim`` is.

The cli requests run in-process in a temporary directory, with relative
file names, so the output does not depend on where that directory is.

    PYTHONPATH=src python scripts/behaviour_digest.py --max-dim 5

``scripts/behaviour_digest_dim5.txt`` holds the output at ``--max-dim 5``,
and CI diffs against it; a change that alters behaviour on purpose
refreshes that file and says so.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from decimal import Decimal
from fractions import Fraction

from multconv import (
    GeneratingPair,
    Measure,
    SphereMeasure,
    SubsetMask,
    Surd,
    all_subsets,
    decide_special,
    decide_universal_rn,
    decide_universal_sphere,
    delta_ej,
    gamma,
    lift,
    lift_inverse,
    mconv,
    msym,
    munc,
    radial_project,
    sconv,
    sigma0_on,
    subsets_of,
    symmetrize,
    tensor,
)
from multconv.cli import main as cli_main
from multconv.harness import (
    gen_interfering_measure,
    gen_mask,
    gen_measure,
    gen_pair,
    gen_sphere_measure,
    gen_subgroup,
)
from multconv.subsets import is_group, j_dual
from multconv.universality import _probe_product

F = Fraction
SEEDS = 16
CLASSES = ("unconditional", "symmetric", "antisymmetric", "none")
SCOPES = ("full", "top-order", "positive-orthant")
NONZERO = tuple(F(v) for v in (-2, -1, F(1, 2), 1, 2))
SUITES = (
    "field-laws",
    "convolution-oracle",
    "symmetry-decomposition",
    "radial-projection",
    "lifting",
    "universality-witness",
    "condition-oracle",
    "zonoid",
)


class Group:
    def __init__(self):
        self.count = 0
        self.hash = hashlib.sha256()

    def add(self, record) -> None:
        self.count += 1
        self.hash.update(json.dumps(record, separators=(",", ":")).encode())
        self.hash.update(b"\n")


def outcome(call, *args):
    try:
        return call(*args).to_json()
    except ValueError as exc:
        return f"error: {exc}"


def decision_inputs(seed: int, n: int):
    full = gen_measure(seed, n, 1 + seed % 5, coordinate_pool=NONZERO)
    yield "random", gen_measure(seed, n, 1 + seed % 6)
    yield "full-order", full
    yield "reflection-even", full + full.reflect(gen_mask(seed, n))
    yield "interfering", gen_interfering_measure(seed, n, 1 + seed % 4)


def decisions(group: Group, n: int) -> None:
    supports = list(all_subsets(n))
    for seed in range(SEEDS):
        pair = gen_pair(seed, n)
        some = [e for k, e in enumerate(supports) if seed >> k % 4 & 1]
        for kind, mu in decision_inputs(seed, n):
            settings = (
                ("point", mu, decide_universal_rn, lambda e: True),
                # the sphere has no empty pattern
                ("sphere", radial_project(mu), decide_universal_sphere, lambda e: e.size),
            )
            for setting, nu, decide, allowed in settings:
                label = [n, seed, kind, setting]
                for name, family in (("all", supports), ("some", some)):
                    family = [e for e in family if allowed(e)]
                    group.add(label + [name, outcome(decide, nu, family, pair)])
                for klass in CLASSES:
                    for scope in SCOPES:
                        group.add(label + [klass, scope, outcome(decide_special, nu, klass, scope)])


def grids(group: Group, n: int) -> None:
    def atoms(mu):
        return [[[str(c) for c in loc], w.to_json()] for loc, w in mu.atoms.items()]

    for e in all_subsets(n):
        group.add([n, e.to_json(), "sigma0_on", atoms(sigma0_on(e))])
        for j in subsets_of(e):
            group.add([n, e.to_json(), j.to_json(), "delta_ej", atoms(delta_ej(e, j))])
            group.add([n, e.to_json(), j.to_json(), "probe", _probe_product(e, j).to_json()])
    group.add([n, "delta_ej", outcome(delta_ej, SubsetMask.empty(n), SubsetMask.full(n))])


def sphere_layer(group: Group, n: int) -> None:
    for seed in range(SEEDS):
        mu = gen_sphere_measure(seed, n, 1 + seed % 6)
        nu = gen_sphere_measure(seed + 500, n, 1 + (seed + 3) % 6)
        raw = gen_measure(seed + 1000, n, 1 + seed % 6)
        lifted = lift(raw)
        group.add([n, seed, "sconv", sconv(mu, nu).to_json()])
        group.add([n, seed, "radial_project", radial_project(raw).to_json()])
        group.add([n, seed, "lift", lifted.to_json(), lift_inverse(lifted).to_json()])
        for e in all_subsets(n):
            group.add([n, seed, "project", e.to_json(), mu.project(e).to_json()])


def reflection_groups(group: Group, n: int) -> None:
    def members(family):
        return sorted(m.to_json() for m in family)

    for seed in range(SEEDS):
        for max_members in (3, 5):
            sym = gamma(gen_pair(seed, n, max_members))
            label = [n, seed, max_members]
            group.add(label + ["gamma", members(sym.evens), members(sym.odds), sym.proper])
            group.add(label + ["is_group", is_group(sym.evens), is_group(sym.evens | sym.odds)])
        sub = gen_subgroup(seed, n)
        near = gen_mask(seed, n)
        group.add([n, seed, "gen_subgroup", members(sub), members(j_dual(sub))])
        group.add([n, seed, "is_group", is_group(sub - {near}), is_group(sub | {near})])


def algebra(group: Group, n: int) -> None:
    full = SubsetMask.full(n)
    for seed in range(SEEDS):
        a = gen_measure(seed + 2000, n, 1 + seed % 7)
        b = gen_measure(seed + 2500, n, 1 + (seed + 3) % 6)
        e, f = gen_mask(seed, n), gen_mask(seed + 1, n)
        m = mconv(a, b)
        pairs = (
            gen_pair(seed, n, 5),
            # a generator that is the sum of two others, on each side
            GeneratingPair.make(n, evens=[e, f, e ^ f], odds=[full, full ^ e]),
            # improper: the odd generator lies in the span of the evens
            GeneratingPair.make(n, evens=[e, f], odds=[e ^ f]),
        )
        label = [n, seed]
        group.add(label + ["mconv", [[str(c) for c in pt] for pt in m.atoms], m.to_json()])
        group.add(label + ["tensor", tensor(a, b).to_json()])
        group.add(label + ["project", e.to_json(), m.project(e).to_json()])
        group.add(label + ["restrict_order", e.to_json(), m.restrict_order(e).to_json()])
        for pair in pairs:
            group.add(label + ["symmetrize", pair.to_json(), symmetrize(m, pair).to_json()])
        group.add(label + ["msym", msym(m).to_json()])
        group.add(label + ["munc", munc(m).to_json()])


def linear(group: Group, n: int) -> None:
    for seed in range(SEEDS):
        a = gen_measure(seed + 3000, n, 1 + seed % 6)
        b = gen_measure(seed + 3500, n, 1 + (seed + 2) % 5)
        e = gen_mask(seed, n)
        settings = (
            ("point", a, b),
            ("radial", radial_project(a), radial_project(b)),
            ("sphere", gen_sphere_measure(seed + 4000, n, 1 + seed % 6),
             gen_sphere_measure(seed + 4500, n, 1 + (seed + 2) % 5)),
        )
        for setting, x, y in settings:
            pos, neg = x.jordan()
            results = (
                ("add", x + y),
                ("sub", x - y),
                # cancel on every atom of x that y lacks, and on all of x
                ("cancel", x + (y - x)),
                ("cancel-all", (x + y) - (y + x)),
                # cancel on the atoms of zero pattern e
                ("cancel-order", x - x.restrict_order(e)),
                ("mul", x * Fraction(-3, 2)),
                ("mul-surd", Surd.sqrt(2) * x),
                ("mul-zero", x * 0),
                ("jordan+", pos),
                ("jordan-", neg),
            )
            label = [n, seed, setting]
            for name, mu in results:
                group.add(label + [name, [[str(c) for c in loc] for loc in mu.atoms], mu.to_json()])
            for j in all_subsets(n):
                group.add(label + ["sign_density", j.to_json(), x.sign_density(j).to_json()])


SURDS = (1 + Surd.sqrt(2), Surd.sqrt(3) - F(1, 2), Surd.sqrt(6), Surd(F(-2, 3)), -Surd.sqrt(2))


def surd_inputs(seed: int, n: int):
    """Two point measures with weights of several radicands, and two sphere
    measures built by the public constructor on the rays of seeded points,
    whose masses ``w/|r|`` carry the radicands of the norms: one with those
    weights of several radicands, one with rational weights."""
    def scaled(mu, shift):
        atoms = sorted(mu.atoms.items())
        return [(loc, w * SURDS[(shift + k) % len(SURDS)]) for k, (loc, w) in enumerate(atoms)]

    a = Measure(n, scaled(gen_measure(seed + 5000, n, 1 + seed % 6), seed))
    b = Measure(n, scaled(gen_measure(seed + 5500, n, 1 + (seed + 2) % 5), seed + 1))
    s = SphereMeasure(n, scaled(gen_sphere_measure(seed + 6000, n, 1 + seed % 5), seed + 2))
    rays = gen_sphere_measure(seed + 6500, n, 1 + (seed + 1) % 6).support()
    t = SphereMeasure(n, [(ray, F(1 + k % 3, 2)) for k, ray in enumerate(rays)])
    return a, b, s, t


def surds(group: Group, n: int) -> None:
    supports = list(all_subsets(n))
    for seed in range(SEEDS):
        a, b, s, t = surd_inputs(seed, n)
        e, j = gen_mask(seed, n), gen_mask(seed + 7, n)
        pair = gen_pair(seed, n)
        m = mconv(a, b)
        label = [n, seed]
        group.add(label + ["inputs", a.to_json(), b.to_json(), s.to_json(), t.to_json()])
        group.add(label + ["mconv", m.to_json()])
        group.add(label + ["tensor", tensor(a, b).to_json()])
        for name, x, y in (("points", a, b), ("sphere", s, t), ("mixed", a, t)):
            group.add(label + ["sconv", name, sconv(x, y).to_json()])
        for name, mu in (("mconv", m), ("sphere", s)):
            pos, neg = mu.jordan()
            group.add(label + [name, "project", e.to_json(), mu.project(e).to_json()])
            group.add(label + [name, "restrict_order", e.to_json(), mu.restrict_order(e).to_json()])
            group.add(label + [name, "symmetrize", pair.to_json(), symmetrize(mu, pair).to_json()])
            group.add(label + [name, "jordan", pos.to_json(), neg.to_json()])
            group.add(label + [name, "sign_density", j.to_json(), mu.sign_density(j).to_json()])
        lifted = lift(a)
        group.add(label + ["lift", lifted.to_json(), lift_inverse(lifted).to_json()])
        for setting, nu, family in (("point", a, supports), ("sphere", s, supports[1:])):
            group.add(label + [setting, "decide", outcome(decide_universal_rn, nu, family, pair)])
            for klass in CLASSES:
                group.add(label + [setting, klass, outcome(decide_special, nu, klass, "full")])


def surface(group: Group, n: int) -> None:
    for seed in range(SEEDS):
        a, b, s, t = surd_inputs(seed, n)
        measures = (("a", a), ("b", b), ("radial-a", radial_project(a)), ("radial-b", radial_project(b)),
                    ("s", s), ("t", t))
        for name, mu in measures:
            pos, neg = mu.jordan()
            group.add([n, seed, name, "atoms", [[[str(c) for c in loc], str(w)] for loc, w in mu.atoms.items()]])
            group.add([n, seed, name, "weight_at", [str(mu.weight_at(loc)) for loc in mu.support()]])
            group.add([n, seed, name, "mass", str(mu.total_mass()), str(mu.tv_norm())])
            group.add([n, seed, name, "jordan", pos.to_json(), neg.to_json()])
    if n == 1:
        # the mass form holds this ray, but trial division to the bound
        # leaves a cofactor of its squared norm too large to certify, so
        # its weight cannot be read
        x = (F(1, 999983), F(-2, 999979), F(3, 999961), F(1, 999959))
        group.add(["factor-limit", outcome(radial_project, Measure(4, {x: 1}))])


CODEC_FORMS = ("written", "ints", "several-terms", "cancelling", "zero", "ray-multiple", "other-forms")
BAD_VALUES = ("1/0", "1e5", "1/-2", "1 /2", "1/ 2", "", "--1", "abc", "1/", 0.5, True, None, [1])


def codec_payload(seed: int, n: int, form: str) -> tuple[type, dict]:
    """A seeded payload in the written form, then changed into ``form``."""
    rng = random.Random(f"codec:{seed}:{n}:{form}")
    cls = SphereMeasure if form == "ray-multiple" or rng.random() < 0.5 else Measure
    field = cls._loc_field

    def ratio(low, high, den):
        return f"{rng.randrange(low, high)}/{rng.randrange(1, den)}"

    atoms = []
    for k in range(1 + seed % 6):
        loc = [str(rng.randrange(-4, 5)) if cls is SphereMeasure else ratio(-4, 5, 4) for _ in range(n)]
        loc[k % n] = str(rng.randrange(1, 9))  # never the zero ray
        atoms.append({field: loc, "weight": [[ratio(-9, 10, 5), rng.choice((1, 2, 3, 6))]]})
    data = cls.from_json({"dim": n, "atoms": atoms}).to_json()
    atoms = data["atoms"] or [{field: ["1"] * n, "weight": [["1", 1]]}]
    data["atoms"] = atoms
    for atom in atoms:
        loc, weight = atom[field], atom["weight"]
        if form == "ints":
            atom[field] = [int(c) if "/" not in c and rng.random() < 0.5 else c for c in loc]
        elif form == "several-terms" and rng.random() < 0.7:
            weight.insert(0, [ratio(-5, 6, 4), rng.choice((1, 2, 5, 6, 10))])
        elif form == "zero" and rng.random() < 0.4:
            weight[0][0] = rng.choice(("0", "-0/3"))
        elif form == "other-forms":
            atom[field] = [rng.choice(("+3", " 7 ", "6/4", "1_000", "-0", "1.25", c)) for c in loc]
            weight[0][0] = rng.choice(("+2", "0.5", "4/6", weight[0][0]))
    for atom in list(atoms):
        if form == "cancelling" and rng.random() < 0.6:
            atoms.append({field: atom[field], "weight": [[str(-Fraction(c)), r] for c, r in atom["weight"]]})
        elif form == "ray-multiple" and rng.random() < 0.6:
            atoms.append({field: [str(3 * int(c)) for c in atom[field]], "weight": [["1/2", 3]]})
    rng.shuffle(atoms)
    return cls, data


def read_outcome(call, *args):
    """``atoms`` in insertion order and ``to_json()`` of the measure read,
    or the type and message of the exception raised."""
    try:
        mu = call(*args)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return [[[str(c) for c in loc] for loc in mu.atoms], mu.to_json()]


def read_both_ways(group: Group, label: list, cls: type, data: dict) -> None:
    """``data`` read by ``from_json`` and, with each weight read by
    ``Surd.from_json``, by the constructor."""
    def construct():
        field = cls._loc_field
        return cls(data["dim"], [(tuple(atom[field]), Surd.from_json(atom["weight"])) for atom in data["atoms"]])

    group.add(label + ["from_json", read_outcome(cls.from_json, data)])
    group.add(label + ["constructor", read_outcome(construct)])


def codec(group: Group, n: int) -> None:
    for seed in range(SEEDS):
        for form in CODEC_FORMS:
            cls, data = codec_payload(seed, n, form)
            read_both_ways(group, [n, seed, form], cls, data)
    good = ["1"] * n
    for bad in BAD_VALUES:
        for slot in ("point", "ray", "coefficient", "radicand"):
            cls = SphereMeasure if slot == "ray" else Measure
            field = cls._loc_field
            loc = good[:-1] + [bad] if slot in ("point", "ray") else good
            weight = [[bad, 1]] if slot == "coefficient" else [["1/2", bad]] if slot == "radicand" else [["1", 1]]
            data = {"dim": n, "atoms": [{field: good, "weight": [["1", 2]]}, {field: loc, "weight": weight}]}
            read_both_ways(group, [n, repr(bad), slot], cls, data)
        # the constructor reads a weight given as the bad value itself
        rows = [(tuple(good), 1), (tuple(good), bad)]
        group.add([n, repr(bad), "weight", read_outcome(Measure, n, rows)])


def _atoms(field, *atoms, dim=2):
    return {"dim": dim, "atoms": [{field: loc, "weight": weight} for loc, weight in atoms]}


# the malformed payloads of ``tests/test_codec.py``
MALFORMED = (
    (Measure, [{"point": ["1"], "weight": [["1", 1]]}]),
    (Measure, {"dim": 2, "atoms": 5}),
    (Measure, {"dim": 2, "atoms": [5]}),
    (Measure, {"dim": 2, "atoms": [{"weight": [["1", 1]]}]}),
    (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"]}]}),
    (Measure, {"atoms": [{"point": ["1", "1"], "weight": [["1", 1]]}]}),
    (Measure, {"dim": "2", "atoms": []}),
    (Measure, {"dim": 0, "atoms": []}),
    (Measure, {"dim": True, "atoms": []}),
    (Measure, _atoms("point", (["1/2", "3"], [["1", 1]]), dim=3)),
    (Measure, _atoms("point", (["1/2", "x"], [["1", 1]]), dim=3)),
    (Measure, _atoms("point", ([], [["1", 1]]), dim=1)),
    (Measure, _atoms("point", ("12", [["1", 1]]))),
    (Measure, _atoms("point", (12, [["1", 1]]))),
    (Measure, _atoms("point", (["1", 0.5], [["1/0", 1]]))),
    (Measure, _atoms("point", (["1/0", 0.5], [["1", 1]]))),
    (Measure, _atoms("point", (["1", "1"], [["1", 4]]))),
    (Measure, _atoms("point", (["1", "1"], [["1", 0]]))),
    (Measure, _atoms("point", (["1", "1"], [["1", 2.0]]))),
    (Measure, _atoms("point", (["1", "1"], [["1", "2"]]))),
    (Measure, _atoms("point", (["1", "1"], [["1", True]]))),
    (Measure, _atoms("point", (["1", "1"], 5))),
    (Measure, _atoms("point", (["1", "1"], [["1"]]))),
    (Measure, _atoms("point", (["1", "1"], [["1", 1, 2]]))),
    (Measure, _atoms("point", (["1", "x"], [["y", 1]]))),
    (SphereMeasure, _atoms("ray", (["2", "4"], [["1", 1]]), dim=3)),
    (SphereMeasure, _atoms("ray", (["0", "-0"], [["1", 1]]))),
    (SphereMeasure, _atoms("ray", (["1/2", "1"], [["1", 1]]))),
    (SphereMeasure, _atoms("ray", ("12", [["1", 1]]))),
    (SphereMeasure, _atoms("point", (["1", "1"], [["1", 1]]))),
    (SphereMeasure, _atoms("ray", ([2000000009, 1], [["1", 1]]))),
)

# atoms that are not objects, one payload per setting, which ``from_json``
# refuses by index: read by it and the cli only, since the constructor
# takes no atom objects
NON_OBJECTS = (
    (Measure, {"dim": 2, "atoms": [{"point": ["1", "2"], "weight": [["1", 1]]}, "x"]}),
    (SphereMeasure, {"dim": 2, "atoms": ["ray"]}),
)

# locations of two coordinates that mix types, or hold equal values of
# different types, in one column, and other number forms: each a function
# giving the locations, since a generator is read once
MIXED = (
    (Measure, lambda: [(1, True)]),
    (Measure, lambda: [(True, 1)]),
    (Measure, lambda: [(1, 1.0)]),
    (Measure, lambda: [(Fraction(1), True)]),
    (Measure, lambda: [(1, 2), (True, 1)]),
    (Measure, lambda: [(Decimal("1.5"), 1), (Fraction(3, 2), 2)]),
    (Measure, lambda: [(Decimal("1"), 1), (1, 2)]),
    (Measure, lambda: [("1_000", 1), (" 7 ", "+3"), ("1/2", 1000)]),
    (Measure, lambda: [(c for c in (1, "1/2")), (1, 2)]),
    (Measure, lambda: [("1/2", Decimal("0.5")), (F(1, 2), "2/4")]),
    (SphereMeasure, lambda: [(1, True)]),
    (SphereMeasure, lambda: [(1, 1.0)]),
    (SphereMeasure, lambda: [(Decimal("2"), 4)]),
    (SphereMeasure, lambda: [("1_000", " 7 "), ("+3", 1), (3, 1)]),
    (SphereMeasure, lambda: [(c for c in (2, 4)), (1, 2)]),
    (SphereMeasure, lambda: [(Fraction(4), "2"), (Decimal("2.5"), 1)]),
)


def json_holds(value) -> bool:
    """Whether JSON can hold ``value`` as it is."""
    if isinstance(value, (list, tuple)):
        return all(map(json_holds, value))
    return value is None or isinstance(value, (str, int, float, dict))


def weight_at_outcomes(cls: type, locs) -> list:
    """``weight_at`` of a fixed measure of dimension 2 at each location
    that ``locs`` holds: the weight as text, or the exception's type and
    message."""
    probe = cls(2, {(1, 2): F(1, 3), (2, -1): Surd.sqrt(2), (3, 3): -1})
    out = []
    for loc in locs:
        try:
            out.append(str(probe.weight_at(loc)))
        except Exception as exc:
            out.append([type(exc).__name__, str(exc)])
    return out


def refusals(group: Group) -> None:
    files = {}
    for k, (cls, data) in enumerate(MALFORMED):
        field = cls._loc_field

        def construct(data=data, field=field):
            return cls(data["dim"], [(atom[field], Surd.from_json(atom["weight"])) for atom in data["atoms"]])

        locs = [atom[field] for atom in data.get("atoms", []) if isinstance(atom, dict) and field in atom] \
            if isinstance(data, dict) and isinstance(data.get("atoms"), list) else []
        group.add(["malformed", k, "from_json", read_outcome(cls.from_json, data)])
        group.add(["malformed", k, "constructor", read_outcome(construct)])
        group.add(["malformed", k, "weight_at", weight_at_outcomes(cls, locs)])
        files[f"malformed-{k}.json"] = data
    for k, (cls, data) in enumerate(NON_OBJECTS):
        group.add(["non-object", k, "from_json", read_outcome(cls.from_json, data)])
        files[f"non-object-{k}.json"] = data
    for k, (cls, make) in enumerate(MIXED):
        rows = [(loc, F(j + 1, 2)) for j, loc in enumerate(make())]
        group.add(["mixed", k, "constructor", read_outcome(cls, 2, rows)])
        group.add(["mixed", k, "weight_at", weight_at_outcomes(cls, make())])
        locs = [list(loc) for loc in make()]
        if json_holds(locs):
            data = _atoms(cls._loc_field, *[(loc, [["1/2", 1]]) for loc in locs])
            group.add(["mixed", k, "from_json", read_outcome(cls.from_json, data)])
            files[f"mixed-{k}.json"] = data
    # a coefficient column of an int and a bool
    data = _atoms("point", (["1", "2"], [[1, 1]]), (["2", "1"], [[True, 1]]))
    group.add(["coefficients", "from_json", read_outcome(Measure.from_json, data)])
    group.add(["coefficients", "constructor", read_outcome(Measure, 2, [((1, 2), 1), ((2, 1), True)])])
    files["coefficients.json"] = data
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for name, payload in files.items():
                with open(name, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                group.add(["cli", name, run_cli(["universal", name])])
        finally:
            os.chdir(home)


# (dimension, atoms): many atoms per support set, beyond ``--max-dim 5``
DENSE = ((6, 40), (7, 100), (8, 250))
# one zero coordinate in seven, or one in two
DENSE_POOLS = (("few-zeros", NONZERO + (F(0), F(-1, 2))), ("many-zeros", NONZERO + (F(0),) * 5))


def dense(group: Group) -> None:
    for n, atoms in DENSE:
        for pool_name, pool in DENSE_POOLS:
            mu = gen_measure(n, n, atoms, coordinate_pool=pool)
            inputs = [("random", mu)]
            if n < 8:
                # conditions fail on the classes that do not allow the
                # reflection, except where one of three added atoms at
                # coordinates +-3 is alone
                even = mu + mu.reflect(gen_mask(atoms, n))
                few = gen_measure(atoms, n, 3, coordinate_pool=(F(0), F(3), F(-3)))
                inputs += [("reflection-even", even), ("even-plus-three", even + few)]
            for kind, base in inputs:
                for setting, nu in (("point", base), ("sphere", radial_project(base))):
                    for klass in CLASSES:
                        group.add([n, atoms, pool_name, kind, setting, klass, decide_special(nu, klass).to_json_text()])


def subset_arg(mask: SubsetMask) -> str:
    return ",".join(str(i) for i in mask.indices()) or "0"


def cli_requests(n: int, seed: int):
    """One seeded battery: a list of ``(malformed, argv)`` and a dict from
    relative file names to the JSON they hold."""
    a = gen_measure(seed, n, 1 + seed % 6)
    b = gen_measure(seed + 500, n, 1 + (seed + 2) % 6)
    s = gen_sphere_measure(seed + 1000, n, 1 + seed % 5)
    full = gen_measure(seed, n, 1 + seed % 5, coordinate_pool=NONZERO)
    gens = [[str(c) for c in pt] for pt in full.support()]
    files = {
        "a.json": a.to_json(),
        "b.json": b.to_json(),
        "s.json": s.to_json(),
        "f.json": full.to_json(),
        "l.json": lift(a).to_json(),
        "z.json": {"dim": n, "generators": gens},
    }
    e = subset_arg(gen_mask(seed, n))
    pair = gen_pair(seed, n)
    evens = ";".join(subset_arg(m) for m in sorted(pair.evens, key=lambda m: m.bits))
    odds = ";".join(subset_arg(m) for m in sorted(pair.odds, key=lambda m: m.bits))
    ok = [
        ["convolve", "a.json", "b.json"],
        ["convolve", "a.json", "b.json", "--sphere"],
        ["convolve", "s.json", "s.json"],
        # a point operand of the sphere product is projected radially
        ["convolve", "a.json", "s.json"],
        ["project", "a.json", "--E", e],
        ["project", "a.json", "--E", e, "--sphere"],
        ["project", "s.json", "--E", e],
        ["decompose", "a.json"],
        ["--format", "pretty", "decompose", "s.json"],
        ["symmetrize", "a.json", "--evens", evens, "--odds", odds],
        ["lift", "a.json"],
        ["lift-inverse", "l.json"],
        ["universal", "a.json", "--evens", evens, "--odds", odds],
        ["universal", "f.json", "--support", "top", "--evens", evens],
        ["universal", "s.json", "--sphere", "--odds", odds],
        ["universal", "a.json", "--support", e if e != "0" else "1"],
        ["zonoid", "z.json", "--check", "d-universal"],
        ["zonoid", "z.json", "--check", "unc-d-universal"],
        ["zonoid", "z.json", "--check", "singleton-support"],
        ["verify", "--suite", SUITES[seed % len(SUITES)], "--seed", str(seed), "--trials", "2"],
    ]
    def atom(field, loc, weight=(("1", 1),)):
        return {"dim": n, "atoms": [{field: loc, "weight": weight}]}

    rest = ["1"] * (n - 1)
    bad = {
        "float-point.json": atom("point", [0.5] + rest),
        "bool-point.json": atom("point", [True] + rest),
        "float-ray.json": atom("ray", [1.5] + [1] * (n - 1)),
        "bool-ray.json": atom("ray", [True] + [1] * (n - 1)),
        "float-generator.json": {"dim": n, "generators": [rest + [1.5]]},
        "bool-generator.json": {"dim": n, "generators": [[True] + rest]},
        "zero-generator.json": {"dim": n, "generators": [["0"] * n]},
        "zero-denominator.json": atom("point", ["1/0"] + rest),
        "radicand.json": atom("point", ["2"] * n, [["1", 12]]),
        "float-dim.json": {"dim": n + 0.5, "atoms": []},
        "top-level-list.json": [atom("point", ["1"] * n)],
        "big.json": {"dim": 9, "atoms": []},
    }
    files.update(bad)
    files["bad-json.json"] = '{"dim": 1, "atoms": ['
    malformed = [
        ["decompose", "float-point.json"],
        ["decompose", "bool-point.json"],
        ["decompose", "float-ray.json"],
        ["decompose", "bool-ray.json"],
        ["zonoid", "float-generator.json", "--check", "d-universal"],
        ["zonoid", "bool-generator.json", "--check", "d-universal"],
        ["zonoid", "zero-generator.json", "--check", "d-universal"],
        ["zonoid", "a.json", "--check", "d-universal"],
        ["universal", "zero-denominator.json"],
        ["decompose", "float-dim.json"],
        ["convolve", "radicand.json", "a.json"],
        ["decompose", "top-level-list.json"],
        ["universal", "big.json"],
        ["project", "bad-json.json", "--E", "1"],
        ["project", "missing.json", "--E", "1"],
        ["project", "a.json", "--E", str(n + 1)],
        ["universal", "a.json", "--sphere"],
        ["lift", "s.json"],
        ["verify", "--suite", "no-such-suite"],
        ["verify", "--suite", "field-laws", "--trials", "0"],
        ["verify", "--suite", "field-laws", "--trials", "-1"],
        ["frobnicate", "a.json"],
        # argv the command table refuses
        ["convolve", "a.json"],
        ["project", "a.json"],
        ["zonoid", "z.json", "--check", "nope"],
        ["--format", "yaml", "decompose", "a.json"],
        ["verify", "--suite", "field-laws", "--seed", "x"],
        ["decompose", "a.json", "--bogus"],
        ["universal", "a.json", "--s", "top"],
        ["convolve", "a.json", "b.json", "c.json"],
        ["project", "a.json", "--E"],
        ["decompose", "a.json", "--format", "pretty"],
    ]
    return [(False, argv) for argv in ok] + [(True, argv) for argv in malformed], files


def run_cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except Exception as exc:  # a traceback escaping main()
        code = f"escaped: {type(exc).__name__}"
    return [code, out.getvalue(), err.getvalue()]


def cli(groups: tuple[Group, Group], n: int) -> None:
    for seed in range(4):
        requests, files = cli_requests(n, seed)
        with tempfile.TemporaryDirectory() as tmp:
            home = os.getcwd()
            os.chdir(tmp)
            try:
                for name, payload in files.items():
                    with open(name, "w", encoding="utf-8") as fh:
                        fh.write(payload if isinstance(payload, str) else json.dumps(payload))
                for malformed, argv in requests:
                    groups[malformed].add([n, seed, argv, run_cli(argv)])
            finally:
                os.chdir(home)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-dim", type=int, default=3)
    max_dim = parser.parse_args().max_dim
    names = ("decisions", "grids", "sphere", "cli", "cli-malformed", "groups", "algebra", "linear", "surds",
             "surface", "codec", "refusals", "dense")
    groups = {name: Group() for name in names}
    for n in range(1, max_dim + 1):
        decisions(groups["decisions"], n)
        grids(groups["grids"], n)
        sphere_layer(groups["sphere"], n)
        cli((groups["cli"], groups["cli-malformed"]), n)
        reflection_groups(groups["groups"], n)
        algebra(groups["algebra"], n)
        linear(groups["linear"], n)
        surds(groups["surds"], n)
        surface(groups["surface"], n)
        codec(groups["codec"], n)
    refusals(groups["refusals"])
    dense(groups["dense"])
    for name in names:
        print(f"{name} {groups[name].count} {groups[name].hash.hexdigest()}")


if __name__ == "__main__":
    main()
