"""The integer JSON codec of measures against the ``Fraction`` route it
replaced (``fraction_codec``): equal measures in the same stored order,
byte-equal output, and the same refusals with the same messages.  The
column readers against that route and against ``_coerce_rational``, and the
text writers of measures and reports against ``json.dumps`` of their
``to_json()``."""

import json
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import _check_trusted
from fraction_codec import measure_from_json, measure_to_json, surd_from_json
from multconv.harness import gen_measure, gen_pair, gen_sphere_measure
from multconv.measures import Measure, mconv, symmetrize
from multconv.points import make_point, primitive_ray
from multconv import measures, scalars, sphere
from multconv.scalars import FactorLimitError, Surd, _coerce_rational, _rational_column
from multconv.sphere import SphereMeasure, radial_project, sconv
from multconv.subsets import GeneratingPair, SubsetMask, all_subsets
from multconv.universality import class_pair, decide_special, decide_universal_rn

PRIMES = [p for p in range(2, 8000) if all(p % d for d in range(2, int(p**0.5) + 1))]
# written forms that the fast string match leaves to ``Fraction``
ODD_FORMS = ["6/4", "+3", " 7 ", "1.25", "1_000", "-0"]
RADICANDS = [1, 1, 2, 3, 5, 6, 7, 10, 15, 30, 1155]
BAD_VALUES = ["1/0", "1e5", "1/-2", "1 /2", "1/ 2", "", "--1", "abc", "1/", 0.5, True, None, [1]]


def _outcome(fn, *args):
    """What ``fn(*args)`` raises, as its type and message, or ``None``."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _rational(rng, numerators):
    """A rational in one of the JSON forms the codec reads, its numerator a
    fresh prime (with a sign) where the form has one."""
    p = numerators.pop() * rng.choice((1, -1))
    kind = rng.randrange(6)
    if kind == 0:
        return p
    if kind == 1:
        return str(p)
    q = rng.randrange(2, 10**6 + 1)
    if kind == 2:
        return f"{p}/{q}"
    if kind == 3:
        k = rng.randrange(2, 40)
        return f"{p * k}/{q * k}"  # not reduced
    if kind == 4:
        return f"{p}/{rng.choice(PRIMES)}"
    return rng.choice(ODD_FORMS)


def _same_value(c):
    """Another JSON form of the coordinate ``c``."""
    if isinstance(c, int):
        return str(c)
    f = _coerce_rational(c)
    return f"{f.numerator * 3}/{f.denominator * 3}"


def _weight(rng, numerators):
    return [[_rational(rng, numerators), rng.choice(RADICANDS)] for _ in range(rng.randrange(1, 4))]


def _point_payload(seed):
    rng = random.Random(seed)
    numerators = rng.sample(PRIMES, len(PRIMES))
    dim = rng.randrange(1, 5)
    atoms = []
    for _ in range(rng.randrange(1, 9)):
        if atoms and rng.random() < 0.3:
            # a repeat, written another way, that may cancel
            first = rng.choice(atoms)
            point = [_same_value(c) for c in first["point"]]
            weight = [[f"-{c}" if isinstance(c, str) and c[:1].isdigit() else c, r] for c, r in first["weight"]]
            atoms.append({"point": point, "weight": weight if rng.random() < 0.5 else _weight(rng, numerators)})
        else:
            atoms.append({"point": [_rational(rng, numerators) for _ in range(dim)], "weight": _weight(rng, numerators)})
    return {"dim": dim, "atoms": atoms}


def _ray_payload(seed):
    rng = random.Random(seed)
    numerators = rng.sample(PRIMES, len(PRIMES))
    small = [p for p in PRIMES if p < 100]
    dim = rng.randrange(1, 5)
    atoms = []
    for _ in range(rng.randrange(1, 9)):
        if atoms and rng.random() < 0.3:
            # a multiple of an earlier ray is the same ray
            k = rng.randrange(2, 5)
            ray = [str(k * int(c)) for c in rng.choice(atoms)["ray"]]
        else:
            ray = [rng.choice(small) * rng.choice((1, -1)) for _ in range(dim)]
            ray = [rng.choice(("+3", " 7 ", "-0", str(c), c)) if rng.random() < 0.3 else c for c in ray]
            ray[rng.randrange(dim)] = rng.choice(small)  # never the zero vector
        atoms.append({"ray": ray, "weight": _weight(rng, numerators)})
    return {"dim": dim, "atoms": atoms}


def _stored_order(mu):
    return [(s, list(part)) for s, part in mu._parts.items()]


def _dumps(payload):
    return json.dumps(payload, separators=(",", ":"))


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("cls, payload_of", [(Measure, _point_payload), (SphereMeasure, _ray_payload)],
                         ids=["point", "sphere"])
def test_from_json_matches_the_fraction_route(seed, cls, payload_of):
    payload = payload_of(seed)
    got = cls.from_json(payload)
    ref = measure_from_json(cls, payload)
    assert got == ref
    assert _stored_order(got) == _stored_order(ref)
    _check_trusted({"from_json": got})
    # a JSON round trip through the writer
    assert cls.from_json(json.loads(_dumps(got.to_json()))) == got


@pytest.mark.parametrize("seed", range(40))
def test_to_json_is_byte_equal_to_the_fraction_route(seed):
    mu = Measure.from_json(_point_payload(seed))
    nu = Measure.from_json(_point_payload(seed + 1000))
    rays = _ray_payload(seed)
    sphere = SphereMeasure.from_json(rays)
    # the rays read as points: small integers, whose squared norms factor
    # within the trial-division bound (large denominators need not)
    small = Measure.from_json({"dim": rays["dim"], "atoms": [{"point": a["ray"], "weight": a["weight"]}
                                                             for a in rays["atoms"]]})
    results = {
        "point": mu,
        "sphere": sphere,
        "radial": radial_project(small),
        "sconv": sconv(small, sphere),
        "zero": Measure.zero(2),
    }
    if mu.dim == nu.dim:
        results["mconv"] = mconv(mu, nu)
    if mu.dim > 1:
        pair = GeneratingPair.make(mu.dim, [SubsetMask.single(mu.dim, 1)], [])
        results["symmetrize"] = symmetrize(mu, pair)
    for name, r in results.items():
        assert _dumps(r.to_json()) == _dumps(measure_to_json(r)), name


@pytest.mark.parametrize("slot", ["point", "ray", "coefficient"])
@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
def test_bad_values_raise_as_the_fraction_route(slot, bad):
    if slot == "coefficient":
        cls, entry = Measure, {"point": ["1", "2"], "weight": [["1", 2], [bad, 1]]}
    else:
        cls = Measure if slot == "point" else SphereMeasure
        entry = {slot: ["1", bad], "weight": [["1", 1]]}
    good = {slot if slot != "coefficient" else "point": ["1", "1"], "weight": [["1", 1]]}
    payload = {"dim": 2, "atoms": [good, entry]}
    expected = _outcome(measure_from_json, cls, payload)
    assert expected is not None
    assert _outcome(cls.from_json, payload) == expected
    if slot == "coefficient":
        assert _outcome(Surd.from_json, entry["weight"]) == _outcome(surd_from_json, entry["weight"])


@pytest.mark.parametrize(
    "cls, payload",
    [
        (Measure, [{"point": ["1"], "weight": [["1", 1]]}]),
        (Measure, {"dim": 2, "atoms": 5}),
        (Measure, {"dim": 2, "atoms": [5]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "2"], "weight": [["1", 1]]}, "x"]}),
        (SphereMeasure, {"dim": 2, "atoms": ["ray"]}),
        (SphereMeasure, {"dim": 2, "atoms": [["1", "2"]]}),
        (Measure, {"dim": 2, "atoms": [{"weight": [["1", 1]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"]}]}),
        (Measure, {"atoms": [{"point": ["1", "1"], "weight": [["1", 1]]}]}),
        (Measure, {"dim": "2", "atoms": []}),
        (Measure, {"dim": 0, "atoms": []}),
        (Measure, {"dim": True, "atoms": []}),
        (Measure, {"dim": 3, "atoms": [{"point": ["1/2", "3"], "weight": [["1", 1]]}]}),
        (Measure, {"dim": 3, "atoms": [{"point": ["1/2", "x"], "weight": [["1", 1]]}]}),
        (Measure, {"dim": 1, "atoms": [{"point": [], "weight": [["1", 1]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": "12", "weight": [["1", 1]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": 12, "weight": [["1", 1]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", 0.5], "weight": [["1/0", 1]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1/0", 0.5], "weight": [["1", 1]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", 4]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", 0]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", 2.0]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", "2"]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", True]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": 5}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1"]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", 1, 2]]}]}),
        (Measure, {"dim": 2, "atoms": [{"point": ["1", "x"], "weight": [["y", 1]]}]}),
        (SphereMeasure, {"dim": 3, "atoms": [{"ray": ["2", "4"], "weight": [["1", 1]]}]}),
        (SphereMeasure, {"dim": 2, "atoms": [{"ray": ["0", "-0"], "weight": [["1", 1]]}]}),
        (SphereMeasure, {"dim": 2, "atoms": [{"ray": ["1/2", "1"], "weight": [["1", 1]]}]}),
        (SphereMeasure, {"dim": 2, "atoms": [{"ray": "12", "weight": [["1", 1]]}]}),
        (SphereMeasure, {"dim": 2, "atoms": [{"point": ["1", "1"], "weight": [["1", 1]]}]}),
        # a squared norm with a prime factor beyond the trial-division bound
        (SphereMeasure, {"dim": 2, "atoms": [{"ray": [2000000009, 1], "weight": [["1", 1]]}]}),
    ],
    ids=lambda value: None if isinstance(value, type) else json.dumps(value)[:60],
)
def test_malformed_payloads_raise_as_the_fraction_route(cls, payload):
    expected = _outcome(measure_from_json, cls, payload)
    assert expected is not None
    assert _outcome(cls.from_json, payload) == expected


@pytest.mark.parametrize(
    "slot, bad, exc, message",
    [
        ("ray", "1.25", ValueError, "ray entry '1.25' is not an integer"),
        ("ray", "6/4", ValueError, "ray entry '6/4' is not an integer"),
        ("ray", "", ValueError, "ray entry '' is not an integer"),
        ("ray", None, TypeError, "refusing NoneType ray entries; use integers"),
        ("ray", [1], TypeError, "refusing list ray entries; use integers"),
        ("point", None, TypeError, "refusing NoneType coordinates; use Fraction, int, or 'p/q' strings"),
        ("point", [1], TypeError, "refusing list coordinates; use Fraction, int, or 'p/q' strings"),
        ("coefficient", None, TypeError, "refusing NoneType coefficients; use Fraction, int, or 'p/q' strings"),
        ("coefficient", [1], TypeError, "refusing list coefficients; use Fraction, int, or 'p/q' strings"),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_refusals_name_the_field_and_the_rule(slot, bad, exc, message):
    # the same text from ``from_json``, the constructor and ``Surd.from_json``
    cls = SphereMeasure if slot == "ray" else Measure
    loc = ["1", bad] if slot in ("point", "ray") else ["1", "2"]
    weight = [["1", 2], [bad, 1]] if slot == "coefficient" else [["1", 1]]
    payload = {"dim": 2, "atoms": [{cls._loc_field: ["1", "1"], "weight": [["1", 1]]}, {cls._loc_field: loc, "weight": weight}]}
    calls = [lambda: cls.from_json(payload)]
    if slot == "coefficient":
        calls.append(lambda: Surd.from_json(weight))
    else:
        calls.append(lambda: cls(2, [(tuple(loc), 1)]))
    for call in calls:
        with pytest.raises(exc) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "text", ["0", "-0", "+3", " 7 ", "12", "-12", "6/4", "-6/4", "0/5", "1.25", "1_000", "١٢", "²",
             "1/0", "1e5", "1/-2", "1 /2", "", "-", "--1", "1/", "/2", "1/2/3", "9" * 5000],
)
def test_rational_pair_reads_as_coerce_rational(text):
    # ``_rational_column`` on the text alone and among ints and "p/q" texts:
    # the values that ``_coerce_rational`` reads, or None for a text it refuses
    refused = _outcome(_coerce_rational, text) is not None
    for column in ([text], [text, 3, "1/2"], [1, "-2/3", text, text]):
        read = _rational_column(column)
        if refused:
            assert read is None, column
        else:
            nums, dens = read
            dens = dens or [1] * len(column)
            assert all(q > 0 for q in dens)
            assert list(map(Fraction, nums, dens)) == list(map(_coerce_rational, column))


@pytest.mark.parametrize("cls", [Measure, SphereMeasure], ids=["point", "sphere"])
def test_both_entries_check_every_weight_before_any_location(cls):
    # a location of the wrong dimension first, a float weight second
    field = cls._loc_field
    payload = {
        "dim": 2,
        "atoms": [{field: [1, 2, 3], "weight": [["1", 1]]}, {field: [1, 2], "weight": [[0.5, 1]]}],
    }
    expected = (TypeError, "refusing float input; use Fraction or int for exactness")
    assert _outcome(cls, 2, [((1, 2, 3), 1), ((1, 2), 0.5)]) == expected
    assert _outcome(cls.from_json, payload) == expected


def _atom_json(cls, loc, coeff="1"):
    return {"dim": len(loc), "atoms": [{cls._loc_field: list(loc), "weight": [[coeff, 1]]}]}


# each builder reads one number of ``long`` digits; a ray entry is read by
# ``primitive_ray``, a point coordinate or weight coefficient by the scalar
# readers.  Each ray is an axis, so a ray read at the limit has norm 1
_LONG_BUILDERS = {
    "point-constructor": lambda long: Measure(2, {(long, 1): 1}),
    "point-denominator-constructor": lambda long: Measure(2, {(f"1/{long}", 1): 1}),
    "point-decimal-constructor": lambda long: Measure(2, {("0." + long, 1): 1}),
    "point-from-json": lambda long: Measure.from_json(_atom_json(Measure, ["-" + long, "1"])),
    "point-groups-from-json": lambda long: Measure.from_json(_atom_json(Measure, [long[:9] + "_" + long[9:], 1])),
    "weight-constructor": lambda long: Measure(1, {(1,): long}),
    "weight-from-json": lambda long: Measure.from_json(_atom_json(Measure, [1], long)),
    "weight-denominator-from-json": lambda long: Measure.from_json(_atom_json(Measure, [1], "1/" + long)),
    "ray-constructor": lambda long: SphereMeasure(2, {(long, 0): 1}),
    "ray-from-json": lambda long: SphereMeasure.from_json(_atom_json(SphereMeasure, [long, "0"])),
    "sphere-weight-from-json": lambda long: SphereMeasure.from_json(_atom_json(SphereMeasure, [1, 1], long)),
}


@pytest.mark.parametrize("build", list(_LONG_BUILDERS.values()), ids=list(_LONG_BUILDERS))
def test_over_long_numbers_are_refused_alike_on_every_python(build):
    # int's own refusal reads "Exceeds the limit (4300) ..." on 3.10 and
    # "Exceeds the limit (4300 digits) ..." on 3.11 on
    limit = sys.get_int_max_str_digits()
    message = (
        f"refusing a number of {limit + 1} digits: integer string conversion is limited"
        f" to {limit} digits (sys.set_int_max_str_digits)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build("7" * (limit + 1))
    build("7" * limit)  # at the limit the number is read


# -- the column reader and the text writers ------------------------------------------


def _written(payload):
    """``payload`` sent through JSON text and read back."""
    return json.loads(json.dumps(payload))


def _text_corpus():
    """Measures of both settings: the codec corpus, several radicands per
    measure, ``_den > 1`` and the empty measure."""
    out = {}
    for seed in range(40):
        rays = _ray_payload(seed)
        out[f"point-{seed}"] = Measure.from_json(_point_payload(seed))
        out[f"sphere-{seed}"] = sphere = SphereMeasure.from_json(rays)
        # the rays read as points, whose squared norms factor within the
        # trial-division bound; the sphere weights of their point masses carry
        # the radicands of the norms
        small = Measure.from_json({"dim": rays["dim"], "atoms": [{"point": a["ray"], "weight": a["weight"]}
                                                                 for a in rays["atoms"]]})
        out[f"radial-{seed}"] = radial_project(small)
        out[f"sconv-{seed}"] = sconv(small, sphere)
    out["several-radicands"] = Measure(2, {(1, "1/2"): Surd.sqrt(2), (3, 0): Surd.sqrt(3) + 1, (0, 1): 5})
    out["rays-several-radicands"] = SphereMeasure(2, {(1, 2): Surd.sqrt(2), (3, 1): Surd.sqrt(3) + 1})
    out["zero"] = Measure.zero(2)
    out["sphere-zero"] = SphereMeasure.zero(3)
    assert any(mu._den > 1 for mu in out.values())
    assert any(len(mu._parts) > 1 for mu in out.values())
    return out


TEXT_CORPUS = _text_corpus()


@pytest.mark.parametrize("name, mu", list(TEXT_CORPUS.items()), ids=list(TEXT_CORPUS))
def test_text_writer_is_byte_equal_to_json_dumps(name, mu):
    assert mu.to_json_text() == _dumps(mu.to_json())
    # the reader takes what the writer writes
    assert type(mu).from_json(_written(mu.to_json())) == mu


def test_report_text_writer_is_byte_equal_to_json_dumps():
    # the reports of the plan-cache corpus in both settings, negative ones
    # with their witnesses
    written = negative = 0
    for n in range(1, 7):
        pairs = [gen_pair(seed, n, m) for seed in range(12) for m in (3, 5)]
        pairs += [class_pair(klass, n) for klass in ("unconditional", "symmetric", "antisymmetric", "none")]
        rng = random.Random(n)
        for sphere in (False, True):
            base = gen_sphere_measure(n + 20, n, 6) if sphere else gen_measure(n + 20, n, 6)
            everything = [e for e in all_subsets(n) if e.size or not sphere]
            supports = (everything, rng.sample(everything, min(3, len(everything))))
            for nu in (base, base + base.reflect(SubsetMask.full(n))):
                reports = [decide_universal_rn(nu, support, pair) for pair in pairs for support in supports]
                reports += [decide_special(nu, klass) for klass in ("unconditional", "symmetric", "none")]
                for report in reports:
                    assert report.to_json_text() == _dumps(report.to_json())
                    written += 1
                    negative += not report.universal
    assert written and negative


def _column_payloads(seed):
    """A payload in the form ``to_json`` writes, mostly, with other forms
    that the column reader reads mixed in at random: repeats, several
    terms, zero and unreduced coefficients, ints among strings."""
    rng = random.Random(seed)
    sphere = rng.random() < 0.5
    dim = rng.randrange(1, 5)
    pool = ["0", "1", "-1", "2", "-3", "5", "1/2", "-2/3", "7/4", "6/4", "-0/5", "11"]
    ints = rng.random() < 0.15
    atoms = []
    for _ in range(rng.randrange(1, 12)):
        if sphere:
            loc = [rng.choice(["2", "-3", "0", "1", "4", "-1", "-007", "+6"]) for _ in range(dim)]
            loc[0] = rng.choice(["1", "-5", "7"])
        else:
            loc = [rng.choice(pool) for _ in range(dim)]
        if ints:
            loc = [int(c) if c.lstrip("-").isdigit() else c for c in loc]
        weight = [[rng.choice(pool[1:-2]), rng.choice((1, 1, 2, 3, 6))]]
        if rng.random() < 0.02:
            weight.append(["1/3", 5])
        if rng.random() < 0.02:
            weight = [[rng.choice(("0", "-0/5")), rng.choice((1, 2, 3))]]
        atoms.append({"ray" if sphere else "point": loc, "weight": weight})
    return (SphereMeasure if sphere else Measure), {"dim": dim, "atoms": atoms}


@pytest.fixture
def walks(monkeypatch):
    """The values that the readers walk one by one, as they are walked: the
    weights by ``_json_terms``, the locations by ``make_point`` and
    ``primitive_ray``.  A payload read by columns walks none."""
    walked = []
    for module, name in ((scalars, "_json_terms"), (measures, "make_point"), (sphere, "primitive_ray")):
        def walk(value, read=getattr(module, name)):
            walked.append(value)
            return read(value)
        monkeypatch.setattr(module, name, walk)
    return walked


def test_column_reader_equals_the_per_atom_reader(walks):
    # the payloads in and near the written form against the Fraction route
    for seed in range(400):
        cls, payload = _column_payloads(seed)
        ref = measure_from_json(cls, payload)
        got = cls.from_json(payload)
        assert got == ref, seed
        assert _stored_order(got) == _stored_order(ref), seed
        assert (got._den, got._wden) == (ref._den, ref._wden), seed
    # the columns read every payload
    assert not walks


def _atoms(field, *atoms):
    return {"dim": 2, "atoms": [{field: loc, "weight": weight} for loc, weight in atoms]}


# the squared norm of the ray (2000000009, 1), whose prime factor is beyond the
# trial-division bound
BEYOND = 2000000009**2 + 1

# payloads outside the written form that the columns read with no value
# walked, one per form, each as the Fraction route reads it or with the same
# refusal
READ_BY_COLUMNS = {
    # a zero weight must not make the part of its radicand first
    "zero-coefficient": _atoms("point", (["1", "2"], [["0", 2]]), (["1", "3"], [["1", 3]]), (["2", "3"], [["1", 2]])),
    "repeat": _atoms("point", (["1", "2"], [["1", 1]]), (["2/2", "2"], [["1", 1]])),
    "repeat-across-radicands": _atoms("point", (["1", "2"], [["1", 3]]), (["1", "2"], [["1", 2]])),
    "several-terms": _atoms("point", (["1", "2"], [["1", 3], ["1", 2]]),),
    "mixed-types": _atoms("point", ([1, "2"], [["1", 1]]), (["1/2", "2"], [["1", 1]])),
    "ray-multiple": _atoms("ray", (["1", "2"], [["1", 1]]), (["2", "4"], [["1", 1]])),
    # a squared norm with a prime factor beyond the trial-division bound
    "ray-norm-beyond-the-bound": _atoms("ray", ([2000000009, 1], [["1", 1]]),),
}

# other payloads outside the written form, one per reason: most hold a value
# to refuse, which the readers walk to raise in the Fraction route's order
LEFT_TO_THE_PER_ATOM_READER = {
    "no-term": _atoms("point", (["1", "2"], []),),
    "other-form": _atoms("point", (["+1", "2"], [["1", 1]]),),
    "zero-denominator": _atoms("point", (["1/00", "2"], [["1", 1]]),),
    "comma": _atoms("point", (["1,2", "2"], [["1", 1]]),),
    "not-square-free": _atoms("point", (["1", "2"], [["1", 4]]),),
    # a radicand beyond the bound, and one refused before it
    "radicand-beyond-the-bound": _atoms("point", (["1", "2"], [["1", 2]]), (["1", "3"], [["1", BEYOND]])),
    "not-square-free-first": _atoms("point", (["1", "2"], [["1", 4]]), (["1", "3"], [["1", BEYOND]])),
    "ray-fraction": _atoms("ray", (["1/1", "2"], [["1", 1]]),),
    "ray-zero": _atoms("ray", (["0", "-0"], [["1", 1]]),),
    "no-atoms": {"dim": 2},
    "bool-dim": {"dim": True, "atoms": [{"point": ["1"], "weight": [["1", 1]]}]},
}

FORMS = {**READ_BY_COLUMNS, **LEFT_TO_THE_PER_ATOM_READER}


@pytest.mark.parametrize("name", list(FORMS), ids=list(FORMS))
def test_the_column_reader_leaves_other_forms_to_the_per_atom_reader(name, walks):
    # every form is read, or refused, as the Fraction route does; those of
    # READ_BY_COLUMNS without walking a value
    payload = FORMS[name]
    cls = SphereMeasure if "ray" in str(payload) else Measure
    expected = _outcome(measure_from_json, cls, payload)
    assert _outcome(cls.from_json, payload) == expected
    if name in READ_BY_COLUMNS:
        assert not walks
    if expected is None:
        got, ref = cls.from_json(payload), measure_from_json(cls, payload)
        assert got == ref
        assert _stored_order(got) == _stored_order(ref)
        assert (got._den, got._wden) == (ref._den, ref._wden)


@pytest.mark.parametrize("cls", [Measure, SphereMeasure], ids=["point", "sphere"])
def test_merged_parts_follow_the_fraction_route_order(cls, walks):
    # a first atom whose weight is zero, key A whose radicand-3 term cancels
    # later, key B at radicand 2, key C at radicand 3 with terms not sorted:
    # parts made as the rows come would put the zero and cancelled terms'
    # radicands first
    field = cls._loc_field
    a, b, c, z = ["1", "2"], ["3", "1"], ["1", "1"], ["2", "5"]
    atoms = [
        (z, [["0", 5]]),
        (a, [["1", 3], ["2", 7]]),
        (b, [["1", 2]]),
        (c, [["5", 6], ["-1/2", 3]]),
        (a, [["-1", 3]]),
    ]
    payload = {"dim": 2, "atoms": [{field: loc, "weight": weight} for loc, weight in atoms]}
    expected = _stored_order(measure_from_json(cls, payload))
    assert _stored_order(cls.from_json(payload)) == expected
    # read by columns
    assert not walks
    rows = [(tuple(loc), surd_from_json(weight)) for loc, weight in atoms]
    assert _stored_order(cls(2, rows)) == expected
    # the zero weight leaves no atom, and A keeps only its radicand-7 term
    mu = cls.from_json(payload)
    assert mu.atom_count() == 3
    assert len(mu.atoms[1, 2].terms) == 1


@pytest.mark.parametrize("cls", [Measure, SphereMeasure], ids=["point", "sphere"])
@pytest.mark.parametrize("atom", ["x", 5, None, ["1", "2"], [{"weight": [["1", 1]]}]], ids=repr)
def test_an_atom_that_is_not_an_object_is_refused_by_index(cls, atom):
    field = cls._loc_field
    good = {field: ["1", "2"], "weight": [["1", 1]]}
    message = f'atom 1 must be an object with "{field}" and "weight" fields, got {type(atom).__name__}'
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        cls.from_json({"dim": 2, "atoms": [good, atom, good]})
    # an earlier atom's bad weight is refused first
    bad = {field: ["1", "2"], "weight": [["1", 4]]}
    with pytest.raises(ValueError, match="radicand 4 is not square-free"):
        cls.from_json({"dim": 2, "atoms": [bad, atom]})


@pytest.mark.parametrize("cls", [Measure, SphereMeasure], ids=["point", "sphere"])
@pytest.mark.parametrize("later", ["dimension", "radicand", None])
def test_refusals_keep_the_per_atom_order(cls, later):
    # each bad value at several atoms and columns of a payload in the written
    # form, some with a later atom of the wrong dimension or a bad radicand
    field = cls._loc_field
    def atom(loc, coeff="1/2", r=2):
        return {field: list(loc), "weight": [[coeff, r]]}
    checked = 0
    for bad in BAD_VALUES:
        for at in range(3):
            for column in ("coefficient", 0, 1, 2):
                atoms = [atom(["1", "2", "3"]), atom(["-1", "4", "5"]), atom(["2", "-2", "7"])]
                if column == "coefficient":
                    atoms[at]["weight"][0][0] = bad
                else:
                    atoms[at][field][column] = bad
                if later == "dimension":
                    atoms.append(atom(["1", "1"]))
                elif later == "radicand":
                    atoms.append(atom(["3", "1", "1"], r=12))
                payload = {"dim": 3, "atoms": atoms}
                expected = _outcome(measure_from_json, cls, payload)
                assert _outcome(cls.from_json, payload) == expected, (bad, at, column)
                checked += expected is not None
    assert checked


def test_a_ray_norm_over_the_digit_limit_gets_the_library_message():
    # the ray is read; its squared norm has 4,400 digits, and the cofactor
    # that the trial division names is over the int digit limit
    message = "radicand of 4390 digits exceeds the trial-division bound 1000000"
    with pytest.raises(FactorLimitError, match=f"^{message}$"):
        SphereMeasure(2, {("7" * 2200, 1): 1})


# -- one column of mixed and equal-valued types -------------------------------------

# locations of two coordinates that mix types, or hold equal values of
# different types, in one column: each a function giving the locations, since
# a generator is read once.  A bool or a float hashes equal to its int, so a
# reader that merged equal values before refusing would load them
MIXED_COLUMNS = {
    "int-bool": (Measure, lambda: [(1, True)]),
    "bool-int": (Measure, lambda: [(True, 1)]),
    "int-float": (Measure, lambda: [(1, 1.0)]),
    "fraction-bool": (Measure, lambda: [(Fraction(1), True)]),
    "bool-in-a-later-atom": (Measure, lambda: [(1, 2), (True, 1)]),
    "decimal-beside-fraction": (Measure, lambda: [(Decimal("1.5"), 1), (Fraction(3, 2), 2)]),
    "decimal-beside-int": (Measure, lambda: [(Decimal("1"), 1), (1, 2)]),
    "written-forms": (Measure, lambda: [("1_000", 1), (" 7 ", "+3"), ("1/2", 1000)]),
    "generator": (Measure, lambda: [(c for c in (1, "1/2")), (1, 2)]),
    "ray-int-bool": (SphereMeasure, lambda: [(1, True)]),
    "ray-int-float": (SphereMeasure, lambda: [(1, 1.0)]),
    "ray-decimal": (SphereMeasure, lambda: [(Decimal("2"), 4)]),
    "ray-written-forms": (SphereMeasure, lambda: [("1_000", " 7 "), ("+3", 1), (3, 1)]),
    "ray-generator": (SphereMeasure, lambda: [(c for c in (2, 4)), (1, 2)]),
    "ray-decimal-not-an-integer": (SphereMeasure, lambda: [(Fraction(4), "2"), (Decimal("2.5"), 1)]),
}


def _per_value(cls, locs, dim=2):
    """The locations read one by one by ``make_point`` or ``primitive_ray``,
    each then checked for its dimension."""
    read = primitive_ray if cls is SphereMeasure else make_point
    out = []
    for loc in locs:
        v = read(loc)
        if len(v) != dim:
            raise ValueError(f"{cls._loc_field} {v} has dimension {len(v)}, expected {dim}")
        out.append(v)
    return out


def _json_holds(value):
    if isinstance(value, (list, tuple)):
        return all(map(_json_holds, value))
    return isinstance(value, (str, int, float))


@pytest.mark.parametrize("name", list(MIXED_COLUMNS))
def test_a_column_of_mixed_types_reads_as_each_value_alone(name):
    cls, make = MIXED_COLUMNS[name]
    expected = _outcome(_per_value, cls, make())
    weights = [Fraction(k + 1, 2) for k in range(len(make()))]
    # the constructor, and its measure against the per-value locations
    assert _outcome(cls, 2, list(zip(make(), weights))) == expected
    if expected is None:
        got = cls(2, list(zip(make(), weights)))
        ref = {}
        for v, w in zip(_per_value(cls, make()), weights):
            ref[v] = ref.get(v, Surd(0)) + w
        assert dict(got.atoms) == {v: w for v, w in ref.items() if w}
        _check_trusted({name: got})
    # ``from_json``, where JSON holds the values
    locs = [list(loc) for loc in make()]
    if _json_holds(locs):
        payload = {"dim": 2, "atoms": [{cls._loc_field: loc, "weight": [[str(w), 1]]} for loc, w in zip(locs, weights)]}
        assert _outcome(cls.from_json, payload) == expected
        assert _outcome(measure_from_json, cls, payload) == expected
        if expected is None:
            mu, ref = cls.from_json(payload), measure_from_json(cls, payload)
            assert mu == ref == got
            assert _stored_order(mu) == _stored_order(ref)
            assert (mu._den, mu._wden) == (ref._den, ref._wden)
    # ``weight_at``, location by location
    probe = cls(2, {(1, 2): Fraction(1, 3), (3, 2): Surd.sqrt(2), (1000, 1): -1})
    for k in range(len(make())):
        refused = _outcome(_per_value, cls, [make()[k]])
        if refused is not None:
            assert _outcome(probe.weight_at, make()[k]) == refused
        else:
            (v,) = _per_value(cls, [make()[k]])
            assert probe.weight_at(make()[k]) == probe.atoms.get(v, Surd(0))


def test_a_coefficient_column_refuses_a_bool_beside_an_int():
    payload = {"dim": 2, "atoms": [{"point": ["1", "2"], "weight": [[1, 1]]},
                                   {"point": ["2", "1"], "weight": [[True, 1]]}]}
    expected = (TypeError, "refusing bool coefficient True")
    assert _outcome(measure_from_json, Measure, payload) == expected
    assert _outcome(Measure.from_json, payload) == expected
    assert _outcome(Measure, 2, [((1, 2), 1), ((2, 1), True)]) == _outcome(Surd, True)


# -- seeded mutations against the Fraction route -------------------------------------

# non-int values of a dim, and atoms that are not objects
BAD_DIMS = ["2", 2.0, True, None, [2]]
NOT_OBJECTS = [5, "point", None, [1, 2], [], True]


def _mutated(seed):
    """A payload of either setting with one to three mutations: dropped keys,
    values of the wrong type or form at any slot, wrong dims, malformed
    weights and radicands, and locations of the wrong dimension."""
    rng = random.Random(f"mutate:{seed}")
    cls, payload_of = (Measure, _point_payload) if seed % 2 == 0 else (SphereMeasure, _ray_payload)
    data = payload_of(seed // 2 + 1000)
    field = cls._loc_field
    for _ in range(rng.randrange(1, 4)):
        atoms = data.get("atoms")
        objects = [a for a in atoms if isinstance(a, dict)] if isinstance(atoms, list) else []
        atom = rng.choice(objects) if objects else {}
        loc, weight = atom.get(field), atom.get("weight")
        terms = [t for t in weight if isinstance(t, list) and t] if isinstance(weight, list) else []
        kind = rng.randrange(12)
        if kind == 0 and atom:
            atom.pop(rng.choice([field, "weight"]), None)
        elif kind == 1:
            data.pop("dim", None)
        elif kind == 2 and rng.random() < 0.3:
            data["atoms"] = rng.choice([5, "atoms", None, {field: ["1"], "weight": [["1", 1]]}, tuple(objects)])
        elif kind == 3 and isinstance(atoms, list) and atoms:
            atoms[rng.randrange(len(atoms))] = rng.choice(NOT_OBJECTS)
        elif kind in (4, 5) and isinstance(loc, list) and loc:
            loc[rng.randrange(len(loc))] = rng.choice(BAD_VALUES)
        elif kind == 6 and terms:
            rng.choice(terms)[0] = rng.choice(BAD_VALUES)
        elif kind == 7 and terms:
            rng.choice(terms)[-1] = rng.choice(BAD_VALUES)
        elif kind == 8:
            dim = data.get("dim")
            data["dim"] = rng.choice(BAD_DIMS) if rng.random() < 0.5 else rng.choice([0, -1, 1, 2, 3, 5])
        elif kind == 9 and atom:
            atom["weight"] = rng.choice([5, "1", None, {"1": 1}, [], [["1"]], [["1", 1, 1]], [[]]])
        elif kind == 10 and terms:
            # the bound's trial division takes tens of milliseconds: seldom
            beyond = rng.random() < 0.02
            rng.choice(terms)[-1] = BEYOND if beyond else rng.choice([4, 8, 12, 18, 50, 0, -3])
        elif kind == 11 and isinstance(loc, list):
            if loc and rng.random() < 0.5:
                loc.pop()
            else:
                loc.append(rng.choice(["1", 2, "3/4"]))
    return cls, data


def _read_outcome(read, data):
    try:
        mu = read(data)
    except Exception as exc:
        return type(exc), str(exc)
    return _stored_order(mu), mu._parts, mu._den, mu._wden


@pytest.mark.parametrize("block", range(10))
def test_mutated_payloads_read_as_the_fraction_route(block):
    refused = 0
    for seed in range(300 * block, 300 * block + 300):
        cls, data = _mutated(seed)
        expected = _read_outcome(lambda d: measure_from_json(cls, d), data)
        assert _read_outcome(cls.from_json, data) == expected, seed
        refused += isinstance(expected[0], type)
    # most payloads are refused, some read
    assert 100 < refused < 300, refused
