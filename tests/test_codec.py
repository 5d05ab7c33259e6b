"""The integer JSON codec of measures against the ``Fraction`` route it
replaced (``fraction_codec``): equal measures in the same stored order,
byte-equal output, and the same refusals with the same messages."""

import json
import random
import re
import sys
from fractions import Fraction

import pytest

from conftest import _check_trusted
from fraction_codec import measure_from_json, measure_to_json, surd_from_json
from multconv.measures import Measure, mconv, symmetrize
from multconv.scalars import Surd, _coerce_rational, _rational_pair
from multconv.sphere import SphereMeasure, radial_project, sconv
from multconv.subsets import GeneratingPair, SubsetMask

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
    "text", ["0", "-0", "+3", " 7 ", "12", "-12", "6/4", "-6/4", "0/5", "1.25", "1_000", "١٢", "²",
             "1/0", "1e5", "1/-2", "1 /2", "", "-", "--1", "1/", "/2", "1/2/3", "9" * 5000],
)
def test_rational_pair_reads_as_coerce_rational(text):
    expected = _outcome(_coerce_rational, text)
    if expected is None:
        p, q = _rational_pair(text)
        assert q > 0 and Fraction(p, q) == _coerce_rational(text)
    else:
        assert _outcome(_rational_pair, text) == expected


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
