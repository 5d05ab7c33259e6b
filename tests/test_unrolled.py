"""The per-atom loops compiled once per dimension (``measures._unrolled``):
the pair loop under ``mconv`` and ``sconv``, the sphere's radial gather and
the decider's atom coding, each against a per-pair (or per-coordinate)
reference on values and on stored atom order, on both sides of
``subsets.MAX_DIM`` and well above it, since every dimension is compiled;
and the compile cache, once per (loop, dimension) within its bound."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from multconv import measures, universality
from multconv.harness import brute_force_convolution
from multconv.measures import Measure, _unrolled, mconv
from multconv.scalars import Surd
from multconv.sphere import SphereMeasure, radial_project, sconv
from multconv.subsets import MAX_DIM

DIMS = [*range(1, 9), MAX_DIM, MAX_DIM + 1, 200]
# weights over radicands 1, 2, 3 and 6, some of two terms
WEIGHTS = [Surd(1), Surd(-2), Surd(Fraction(1, 3)), Surd.sqrt(2), -Surd.sqrt(3), Surd.sqrt(6) * 2,
           Surd(1) + Surd.sqrt(2), Surd(Fraction(-1, 2)) + Surd.sqrt(3)]


def stored(mu) -> tuple:
    """A measure's stored form, parts and keys in stored order."""
    return mu.dim, mu._den, mu._wden, [(s, list(part.items())) for s, part in mu._parts.items()]


def random_measure(rng: random.Random, dim: int, size: int, cls=Measure, pool=(0, 1, -1, 2, -2, Fraction(1, 2))):
    """A measure of ``size`` draws on coordinates of ``pool``, so products
    merge, sum to zero and, with zeros, reach the origin; weights over
    several radicands."""
    atoms = {}
    for _ in range(size):
        loc = tuple(rng.choice(pool) for _ in range(dim))
        if any(loc) or cls is Measure:  # the origin spans no ray
            atoms[loc] = rng.choice(WEIGHTS)
    return cls(dim, atoms)


def reference_products(left: dict, right: dict) -> dict:
    """``_products`` pair by pair of atoms: per left radicand, right
    radicand, left key and right key, in that order."""
    out = {}
    for s1, xs in left.items():
        for s2, ys in right.items():
            g = math.gcd(s1, s2)
            acc = out.setdefault(s1 // g * (s2 // g), {})
            for x, wx in xs.items():
                for y, wy in ys.items():
                    key = tuple(a * b for a, b in zip(x, y))
                    acc[key] = acc.get(key, 0) + wx * wy * g
    return out


def reference_gather(lanes) -> dict:
    """``SphereMeasure._gather``'s sums, vector by vector: each nonzero
    vector to its primitive ray, its mass times the gcd."""
    out = {}
    for s, masses in lanes:
        part = out.setdefault(s, {})
        for v, c in masses:
            g = math.gcd(*v)
            if g:
                ray = tuple(x // g for x in v)
                part[ray] = part.get(ray, 0) + c * g
    return out


def reference_code(nu) -> list:
    """``_code`` coordinate by coordinate."""
    code = []
    for part in nu._parts.values():
        rows = []
        for loc, c in part.items():
            nonzero = negative = 0
            for i, x in enumerate(loc):
                if x:
                    nonzero |= 1 << i
                    if x < 0:
                        negative |= 1 << i
            rows.append((nonzero, negative, tuple(abs(x) for x in loc), c))
        code.append(rows)
    return code


def operand_pairs(dim: int):
    rng = random.Random(f"unrolled:{dim}")
    sizes = [(1, 1), (2, 3), (6, 5)] if dim > 8 else [(1, 1), (2, 3), (6, 5), (12, 9)]
    return [(random_measure(rng, dim, m), random_measure(rng, dim, k)) for m, k in sizes]


@pytest.mark.parametrize("dim", DIMS)
def test_mconv_matches_the_pair_loop_and_the_double_loop(dim):
    for a, b in operand_pairs(dim):
        r = mconv(a, b)
        assert r == brute_force_convolution(a, b)
        expected = Measure._of(dim, reference_products(a._parts, b._parts), a._den * b._den, a._wden * b._wden)
        assert stored(r) == stored(expected)


@pytest.mark.parametrize("dim", DIMS)
def test_sconv_matches_the_pair_loop_and_the_projected_double_loop(dim):
    rng = random.Random(f"unrolled-sphere:{dim}")
    pairs = operand_pairs(dim)
    # public sphere measures hold about one part per ray
    pairs.append(tuple(random_measure(rng, dim, k, SphereMeasure, (0, 1, -1, 2, 3)) for k in (5, 4)))
    for a, b in pairs:
        r = sconv(a, b)
        if type(a) is Measure:
            assert r == radial_project(brute_force_convolution(a, b))
        sa, sb = radial_project(a), radial_project(b)
        lanes = [(s, part.items()) for s, part in reference_products(sa._parts, sb._parts).items()]
        expected = SphereMeasure._of(dim, reference_gather(lanes), 1, sa._wden * sb._wden)
        assert stored(r) == stored(expected)


@pytest.mark.parametrize("dim", DIMS[1:])
def test_sconv_drops_products_through_the_origin(dim):
    a = Measure(dim, {(1,) + (0,) * (dim - 1): 1, (1,) * dim: 2})
    b = Measure(dim, {(0,) * (dim - 1) + (3,): Surd.sqrt(2)})
    r = sconv(a, b)
    # the first atom of ``a`` meets ``b`` at the origin
    assert list(r.atoms) == [(0,) * (dim - 1) + (1,)]
    assert r == radial_project(brute_force_convolution(a, b))


@pytest.mark.parametrize("dim", DIMS)
def test_radial_gather_matches_the_vector_by_vector_sum(dim):
    rng = random.Random(f"unrolled-gather:{dim}")
    lanes = []
    for s in (1, 2, 1, 6):  # a radicand twice: two lanes sum into one part
        vectors = [tuple(rng.choice((0, 1, -2, 3, 4, -6)) for _ in range(dim)) for _ in range(12)]
        vectors += [(0,) * dim, tuple(range(2, 2 * dim + 2, 2))]  # the origin, a non-primitive ray
        lanes.append((s, [(v, rng.choice((-3, -1, 1, 2, 5))) for v in vectors]))
    r = SphereMeasure._gather(dim, lanes, 2, 3)
    assert stored(r) == stored(SphereMeasure._of(dim, reference_gather(lanes), 1, 6))


@pytest.mark.parametrize("dim", range(1, 9))
def test_code_matches_the_coordinate_loop(dim):
    rng = random.Random(f"unrolled-code:{dim}")
    for cls in (Measure, SphereMeasure):
        nu = random_measure(rng, dim, 10, cls, (0, 1, -1, 2, -2, 3))
        assert universality._code(nu) == reference_code(nu)
        assert [[tuple(map(type, row[:2])) for row in rows] for rows in universality._code(nu)] == [
            [(int, int)] * len(rows) for rows in reference_code(nu)
        ]


@pytest.fixture
def compiled(monkeypatch):
    """The pseudo filenames of the loops compiled while the test runs, from
    an empty compile cache, which is emptied again after it."""
    names = []
    real = compile
    monkeypatch.setattr(measures, "compile", lambda source, name, mode: names.append(name) or real(source, name, mode),
                        raising=False)
    _unrolled.cache_clear()
    yield names
    _unrolled.cache_clear()


def test_each_loop_compiles_once_per_dimension(compiled):
    dims = (1, 3, MAX_DIM, MAX_DIM + 1, 200)
    for _ in range(2):
        for dim in dims:
            a, b = operand_pairs(dim)[1]
            mconv(a, b)
            sconv(a, b)
            if dim <= 8:
                universality._code(a)
    assert sorted(compiled) == sorted(
        [f"<multconv {loop} dim={dim}>" for loop in ("pair_loop", "radial_loop") for dim in dims]
        + [f"<multconv code dim={dim}>" for dim in (1, 3)]
    )


def test_the_compile_cache_stays_at_its_bound(compiled):
    bound = _unrolled.cache_info().maxsize
    dims = range(1, bound + 11)
    for dim in dims:
        one = Measure(dim, {(2,) * dim: 3})
        assert mconv(one, one) == Measure(dim, {(4,) * dim: 9})
    assert _unrolled.cache_info().currsize == bound
    assert compiled == [f"<multconv pair_loop dim={dim}>" for dim in dims]
    # the latest dimension stays cached; the first, evicted, compiles again
    last = Measure(dims[-1], {(1,) * dims[-1]: 1})
    mconv(last, last)
    a, b = operand_pairs(1)[1]
    expected = Measure._of(1, reference_products(a._parts, b._parts), a._den * b._den, a._wden * b._wden)
    for _ in range(2):
        assert stored(mconv(a, b)) == stored(expected)
    assert compiled[len(dims):] == ["<multconv pair_loop dim=1>"]
    assert _unrolled.cache_info().currsize == bound


def test_import_compiles_no_loop():
    code = "import multconv\nfrom multconv.measures import _unrolled\nprint(_unrolled.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(measures.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
