import math
from fractions import Fraction

import pytest

from multconv.measures import Measure
from multconv.points import ray_norm_sq
from multconv.scalars import Surd
from multconv.sphere import SphereMeasure


def _check_trusted(results: dict) -> None:
    for name, r in results.items():
        # what the public constructor builds from the same atoms
        assert r == type(r)(r.dim, dict(r.atoms)), name
        # the stored form: integer keys over the least common denominator,
        # which is 1 on the sphere
        for v in r._atoms:
            assert len(v) == r.dim and all(type(c) is int for c in v), (name, v)
        assert r._den >= 1 and math.gcd(r._den, *(c for v in r._atoms for c in v)) == 1, (name, r._den)
        assert isinstance(r, Measure) or r._den == 1, (name, r._den)
        coord = Fraction if isinstance(r, Measure) else int
        for loc, w in r.atoms.items():
            assert type(w) is Surd and w, (name, loc, w)
            # ``type(c) is`` rather than ``==``: an int key equals its Fraction
            assert len(loc) == r.dim and all(type(c) is coord for c in loc), (name, loc)
            assert type(r)._key(loc) == loc, (name, loc)
        if isinstance(r, SphereMeasure):
            # mass form: the stored value at a ray is the point mass w/|r|,
            # and the weight is m*|r|
            for ray, w in r.atoms.items():
                assert w == r._atoms[ray] * Surd.sqrt(ray_norm_sq(ray)), (name, ray)


@pytest.fixture
def assert_trusted():
    """Check that named results of the library's own operators are canonical:
    equal to their public re-construction, free of zero weights, keyed by
    exact normal forms and stored over their least common denominator."""
    return _check_trusted
