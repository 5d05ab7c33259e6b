"""The column-form operators against per-atom references built from ``atoms``.

Every nonzero coordinate of every input is a distinct prime, over one
denominator per coordinate for points, so no two products of coordinates
coincide by accident; a seeded plan zeroes some coordinates, so every zero
pattern can occur.  Weights carry surd terms in some inputs, so those
measures have several parts (sphere measures from the public constructor
always do: each mass is divided by its ray's norm).  Each reference loops
over the decoded atoms one at a time, as the operators did before they
moved to columns, and compares values; where the result has one part it
compares the order of ``atoms`` too.  Products of several parts compare
the order of ``atoms`` with a reference kernel that loops over the stored
parts pair by pair.
"""

import math
import random
from fractions import Fraction
from operator import mul

import pytest

from multconv.lifting import lift, lift_inverse
from multconv.measures import (
    Measure,
    _root_product,
    mconv,
    msym,
    munc,
    symmetrize,
    unc_forward,
    unc_inverse,
)
from multconv.points import primitive_ray, reflect_point, zero_pattern
from multconv.scalars import Surd
from multconv.sphere import SphereMeasure, radial_project, sconv
from multconv.subsets import GeneratingPair, SubsetMask, all_subsets, gamma

F = Fraction
PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))]
DIMS = [1, 2, 3, 4, 5, 6]


def _coordinates(rng: random.Random, n: int, count: int) -> list[list[int]]:
    """``count`` rows of ``n`` signed distinct primes, about one entry in
    five zeroed, no row all zero."""
    primes = iter(rng.sample(PRIMES, n * count))
    rows = []
    for _ in range(count):
        row = [rng.choice((-1, 1)) * next(primes) for _ in range(n)]
        for i in range(n):
            if n > 1 and rng.random() < 0.2:
                row[i] = 0
        if not any(row):
            row[0] = 1
        rows.append(row)
    return rows


def _weight(rng: random.Random, surds: bool) -> Surd:
    w = Surd(F(rng.choice((-1, 1)) * rng.randrange(1, 8), rng.randrange(1, 5)))
    if surds and rng.random() < 0.5:
        w = w + Surd.sqrt(rng.choice((2, 3, 6))) * F(rng.choice((-1, 1)), rng.randrange(1, 4))
    return w


def points(seed: int, n: int, count: int, surds: bool = False, dens: bool = True) -> Measure:
    """Point atoms at distinct primes over distinct denominators, one per
    coordinate (all 1 without ``dens``)."""
    rng = random.Random(f"column-points:{seed}:{n}:{count}:{surds}")
    dens = rng.sample(range(1, 10), n) if dens else [1] * n
    atoms = {}
    for row in _coordinates(rng, n, count):
        atoms[tuple(F(c, q) for c, q in zip(row, dens))] = _weight(rng, surds)
    return Measure(n, atoms)


def rays(seed: int, n: int, count: int) -> SphereMeasure:
    """Sphere atoms at the given rays (several parts: the masses are
    divided by the norms)."""
    rng = random.Random(f"column-rays:{seed}:{n}:{count}")
    return SphereMeasure(n, {tuple(row): _weight(rng, False) for row in _coordinates(rng, n, count)})


def inputs(n: int) -> list:
    """Point and sphere measures: zero, one atom, one part, several parts."""
    return [
        Measure.zero(n),
        points(1, n, 1),
        points(2, n, 7),
        points(3, n, 6, surds=True),
        SphereMeasure.zero(n),
        rays(4, n, 1),
        rays(5, n, 6),
        # one part; integer points keep the products' norms small enough to factor
        radial_project(points(6, n, 6, dens=False)),
    ]


def _nonzero(acc: dict) -> dict:
    return {k: w for k, w in acc.items() if w}


def _check(result, expected: dict, assert_trusted) -> None:
    """Equal values; equal ``atoms`` order where the result has one part."""
    assert_trusted({"result": result})
    assert dict(result.atoms) == expected
    if len(result._parts) <= 1:
        assert list(result.atoms) == list(expected)


def _norm_sq(v) -> int:
    return sum(c * c for c in v)


def _mass(w: Surd, ray) -> Surd:
    """The weight ``w`` at the unit vector of ``ray``, as mass at ``ray``: ``w / |ray|``."""
    return w * Surd.sqrt(F(1, _norm_sq(ray)))


def _push(acc: dict, v, m: Surd) -> None:
    """Add mass ``m`` at the integer vector ``v`` radially to the sphere."""
    if any(v):
        ray = primitive_ray(v)
        acc[ray] = acc.get(ray, Surd(0)) + m * Surd.sqrt(_norm_sq(v))


# -- products ------------------------------------------------------------------


def reference_mconv(a: Measure, b: Measure) -> dict:
    acc = {}
    for x, wx in a.atoms.items():
        for y, wy in b.atoms.items():
            z = tuple(map(mul, x, y))
            acc[z] = acc.get(z, Surd(0)) + wx * wy
    return _nonzero(acc)


def reference_sconv(a: SphereMeasure, b: SphereMeasure) -> dict:
    acc = {}
    for d, wd in a.atoms.items():
        for e, we in b.atoms.items():
            _push(acc, tuple(map(mul, d, e)), _mass(wd, d) * _mass(we, e))
    return _nonzero(acc)


def reference_parts(left: dict, right: dict) -> dict:
    """The stored parts of a product, one double loop per pair of parts:
    left part, right part, then ``x``, then ``y``, each part and each key
    in the order of its first product."""
    out = {}
    for s1, xs in left.items():
        for s2, ys in right.items():
            g, s = _root_product(s1, s2)
            acc = out.setdefault(s, {})
            for x, wx in xs.items():
                for y, wy in ys.items():
                    key = tuple(map(mul, x, y))
                    acc[key] = acc.get(key, 0) + g * wx * wy
    return out


@pytest.mark.parametrize("n", DIMS)
def test_products_match_double_loop(n, assert_trusted):
    measures = inputs(n)
    point_inputs = [m for m in measures if isinstance(m, Measure)] + [points(7, n, 4)]
    sphere_inputs = [m for m in measures if isinstance(m, SphereMeasure)] + [rays(8, n, 4)]
    for a in point_inputs:
        for b in point_inputs:
            got = mconv(a, b)
            _check(got, reference_mconv(a, b), assert_trusted)
            parts = reference_parts(a._parts, b._parts)
            want = Measure._of(n, parts, a._den * b._den, a._wden * b._wden)
            assert list(got.atoms) == list(want.atoms)
    for a in sphere_inputs:
        for b in sphere_inputs:
            got = sconv(a, b)
            _check(got, reference_sconv(a, b), assert_trusted)
            lanes = [(s, part.items()) for s, part in reference_parts(a._parts, b._parts).items()]
            want = SphereMeasure._gather(n, lanes, 1, a._wden * b._wden)
            assert list(got.atoms) == list(want.atoms)


# -- projections, reflections and restrictions -------------------------------------


def reference_project(mu, e: SubsetMask) -> dict:
    acc = {}
    for x, w in mu.atoms.items():
        y = tuple(c if e.bits >> i & 1 else 0 for i, c in enumerate(x))
        if isinstance(mu, SphereMeasure):
            _push(acc, y, _mass(w, x))
        else:
            acc[y] = acc.get(y, Surd(0)) + w
    return _nonzero(acc)


@pytest.mark.parametrize("n", DIMS)
def test_coordinatewise_operators_match_per_atom_loops(n, assert_trusted):
    for mu in inputs(n):
        atoms = mu.atoms
        for e in all_subsets(n):
            _check(mu.project(e), reference_project(mu, e), assert_trusted)
            # a bijection and filters: the order of ``atoms`` is kept in every part
            reflected = mu.reflect(e)
            assert_trusted({"reflect": reflected})
            assert list(reflected.atoms.items()) == [(reflect_point(x, e), w) for x, w in atoms.items()]
            restricted = mu.restrict_order(e)
            assert_trusted({"restrict_order": restricted})
            assert list(restricted.atoms.items()) == [(x, w) for x, w in atoms.items() if zero_pattern(x) == e]
        assert mu.component_patterns() == frozenset(zero_pattern(x) for x in atoms)
        if isinstance(mu, Measure):
            positive = mu.restrict_positive()
            assert_trusted({"restrict_positive": positive})
            assert list(positive.atoms.items()) == [(x, w) for x, w in atoms.items() if all(c >= 0 for c in x)]


# -- symmetrisations -----------------------------------------------------------------


def reference_average(mu, members: list[tuple[SubsetMask, int]], scale: Fraction) -> dict:
    """``scale * sum(sign * T_f mu)`` over the ``(f, sign)`` members, the
    identity first, each reflection over all atoms in turn."""
    acc = {}
    for f, sign in members:
        for x, w in mu.atoms.items():
            y = reflect_point(x, f)
            acc[y] = acc.get(y, Surd(0)) + w * (sign * scale)
    return _nonzero(acc)


@pytest.mark.parametrize("n", DIMS)
def test_symmetrisations_match_group_sums(n, assert_trusted):
    full = SubsetMask.full(n)
    empty = SubsetMask.empty(n)
    rng = random.Random(f"column-pairs:{n}")
    for mu in inputs(n):
        _check(msym(mu), reference_average(mu, [(empty, 1), (full, 1)], F(1, 2)), assert_trusted)
        group = list(all_subsets(n))
        got = munc(mu)
        assert_trusted({"munc": got})
        assert dict(got.atoms) == reference_average(mu, [(f, 1) for f in group], F(1, 1 << n))
        for _ in range(3):
            pair = GeneratingPair.make(
                n,
                [SubsetMask(rng.randrange(1 << n), n) for _ in range(rng.randrange(3))],
                [SubsetMask(rng.randrange(1 << n), n) for _ in range(rng.randrange(3))],
            )
            closed = gamma(pair)
            members = [(f, 1) for f in closed.evens] + [(f, -1) for f in closed.odds]
            expected = reference_average(mu, members, F(1, len(members))) if closed.proper else {}
            got = symmetrize(mu, pair)
            assert_trusted({"symmetrize": got})
            assert dict(got.atoms) == expected


@pytest.mark.parametrize("n", DIMS)
def test_unc_inverse_matches_orthant_collapse(n, assert_trusted):
    for mu in inputs(n):
        if not isinstance(mu, Measure):
            continue
        for spread in (munc(mu), unc_forward(mu.restrict_positive())):
            got = unc_inverse(spread)
            expected = {
                x: w * (1 << zero_pattern(x).size) for x, w in spread.atoms.items() if all(c >= 0 for c in x)
            }
            _check(got, expected, assert_trusted)


# -- lifting -----------------------------------------------------------------------------


def reference_lift(mu: Measure) -> dict:
    """Half of each weight at the rays through ``(1, x)`` and ``-(1, x)``,
    times ``|(1, x)|``."""
    acc = {}
    for x, w in mu.atoms.items():
        pinned = (F(1),) + x
        scale = math.lcm(*(c.denominator for c in pinned))
        v = tuple(int(c * scale) for c in pinned)
        for u in (v, tuple(-c for c in v)):
            _push(acc, u, w * F(1, 2 * scale))
    return _nonzero(acc)


def reference_lift_inverse(nu: SphereMeasure) -> dict:
    """The point ``r[1:] / r[0]`` with weight ``2 * w * r[0] / |r|`` for
    each ray ``r`` with a positive lead."""
    return {
        tuple(F(c, r[0]) for c in r[1:]): 2 * _mass(w, r) * r[0] for r, w in nu.atoms.items() if r[0] > 0
    }


@pytest.mark.parametrize("n", DIMS[:-1])
def test_lift_round_trip_matches_per_atom_formulas(n, assert_trusted):
    for mu in inputs(n):
        if not isinstance(mu, Measure):
            continue
        lifted = lift(mu)
        assert_trusted({"lift": lifted})
        assert dict(lifted.atoms) == reference_lift(mu)
        back = lift_inverse(lifted)
        _check(back, reference_lift_inverse(lifted), assert_trusted)
        assert back == mu
        if len(mu._parts) <= 1:
            assert list(back.atoms) == list(mu.atoms)
    # a symmetric sphere measure off the equator, with several parts
    base = rays(9, n + 1, 6)
    sym = msym(SphereMeasure(n + 1, {r: w for r, w in base.atoms.items() if r[0]}))
    _check(lift_inverse(sym), reference_lift_inverse(sym), assert_trusted)
