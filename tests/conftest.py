import math
from fractions import Fraction

import pytest

from multconv.measures import Measure
from multconv.points import make_point, primitive_ray, ray_norm_sq
from multconv.scalars import Surd, square_free_decompose
from multconv.sphere import SphereMeasure


def _check_trusted(results: dict) -> None:
    for name, r in results.items():
        # what the public constructor builds from the same atoms
        assert r == type(r)(r.dim, dict(r.atoms)), name
        # the stored form: integer keys over the least common denominator,
        # which is 1 on the sphere
        for v in r._keys():
            assert len(v) == r.dim and all(type(c) is int for c in v), (name, v)
        assert r._den >= 1 and math.gcd(r._den, *(c for v in r._keys() for c in v)) == 1, (name, r._den)
        assert isinstance(r, Measure) or r._den == 1, (name, r._den)
        # int coefficients per square-free radicand, none zero and no part
        # empty, over a weight denominator coprime to all of them
        for s, part in r._parts.items():
            assert type(s) is int and s >= 1 and square_free_decompose(s) == (1, s), (name, s)
            assert part and all(type(c) is int and c for c in part.values()), (name, s)
        coeffs = [c for part in r._parts.values() for c in part.values()]
        assert type(r._wden) is int and r._wden >= 1, (name, r._wden)
        assert math.gcd(r._wden, *coeffs) == 1, (name, r._wden)
        coord, normal = (Fraction, make_point) if isinstance(r, Measure) else (int, primitive_ray)
        for loc, w in r.atoms.items():
            assert type(w) is Surd and w, (name, loc, w)
            # ``type(c) is`` rather than ``==``: an int key equals its Fraction
            assert len(loc) == r.dim and all(type(c) is coord for c in loc), (name, loc)
            assert normal(loc) == loc, (name, loc)
        if isinstance(r, SphereMeasure):
            # mass form: the stored value at a ray is the point mass w/|r|,
            # and the weight is m*|r|
            for ray, w in r.atoms.items():
                assert w == stored_mass(r, ray) * Surd.sqrt(ray_norm_sq(ray)), (name, ray)


def stored_mass(mu, v) -> Surd:
    """The point mass stored at the key ``v``, summed from the parts:
    ``sum_s sqrt(s) * c / _wden`` over the parts holding ``v``."""
    mass = Surd(0)
    for s, part in mu._parts.items():
        if v in part:
            mass = mass + Surd.sqrt(s) * Fraction(part[v], mu._wden)
    return mass


@pytest.fixture
def assert_trusted():
    """Check that named results of the library's own operators are canonical:
    equal to their public re-construction, free of zero weights, keyed by
    exact normal forms and stored over their least common denominator."""
    return _check_trusted
