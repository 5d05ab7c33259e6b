import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multconv.measures import Measure, mconv
from multconv.points import (
    inner,
    make_point,
    primitive_ray,
    ray_norm_sq,
    reflect_point,
    zero_pattern,
)
from multconv.scalars import Surd
from multconv.subsets import SubsetMask

coords = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6)


@st.composite
def points(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(1, 4))
    return tuple(draw(coords) for _ in range(d))


def F(*values):
    return make_point(values)


def D(x):
    """The Dirac mass at the point ``x``."""
    return Measure.dirac(x)


def _cleared(x):
    """The least positive integer ``s`` with ``s * x`` integral, and ``s * x``."""
    scale = math.lcm(*(c.denominator for c in x))
    return scale, tuple(c.numerator * (scale // c.denominator) for c in x)


def ray_through(x):
    """The primitive integer ray through a rational point."""
    return primitive_ray(_cleared(x)[1])


def norm(x):
    """The exact Euclidean norm of a rational point, through its integer ray."""
    scale, ints = _cleared(x)
    return Surd.sqrt(ray_norm_sq(ints)) * Fraction(1, scale)


# the product of two Dirac masses sits at the Hadamard (componentwise)
# product of their points
def test_hadamard_examples():
    assert mconv(D(F(1, -1)), D(F(2, 3))) == D(F(2, -3))
    assert mconv(D(F(5, -7)), D(F(1, 1))) == D(F(5, -7))
    assert mconv(D(F(1, 0)), D(F(0, 1))) == D(F(0, 0))


def test_hadamard_dim_mismatch():
    with pytest.raises(ValueError):
        mconv(D(F(1)), D(F(1, 2)))


def test_reflect_examples():
    x = F(2, 3)
    assert reflect_point(x, SubsetMask.empty(2)) == x
    assert reflect_point(x, SubsetMask.from_indices(2, [1])) == F(-2, 3)
    ones = F(1, 1, 1)
    f = SubsetMask.from_indices(3, [1, 3])
    assert reflect_point(ones, f) == F(-1, 1, -1)


def test_project_examples():
    x = D(F(1, 2, 3))
    assert x.project(SubsetMask.full(3)) == x
    assert x.project(SubsetMask.empty(3)) == D(F(0, 0, 0))
    assert x.project(SubsetMask.from_indices(3, [2])) == D(F(0, 2, 0))


@given(points(dim=3))
@settings(max_examples=100, deadline=None)
def test_projection_composes_by_intersection(x):
    for ebits in range(8):
        for fbits in range(8):
            e = SubsetMask(ebits, 3)
            f = SubsetMask(fbits, 3)
            assert D(x).project(e).project(f) == D(x).project(e & f)


def test_zero_pattern_examples():
    assert zero_pattern(F(0, 0)) == SubsetMask.empty(2)
    assert zero_pattern(F(1, 0, -2)) == SubsetMask.from_indices(3, [1, 3])
    assert zero_pattern(F(1, 1, 1)) == SubsetMask.full(3)


@given(points(dim=3), points(dim=3))
@settings(max_examples=100, deadline=None)
def test_zero_pattern_of_product_intersects(x, y):
    pattern = zero_pattern(x) & zero_pattern(y)
    assert mconv(D(x), D(y)).component_patterns() == {pattern}


@given(points(dim=3), points(dim=3))
@settings(max_examples=100, deadline=None)
def test_projection_slides_through_product(x, y):
    for bits in range(8):
        e = SubsetMask(bits, 3)
        lhs = mconv(D(x), D(y)).project(e)
        assert lhs == mconv(D(x).project(e), D(y))
        assert lhs == mconv(D(x).project(e), D(y).project(e))


def test_canonical_ray_examples():
    assert ray_through(F(Fraction(1, 2), Fraction(1, 2))) == (1, 1)
    assert ray_through(F(2, -4)) == (1, -2)
    assert ray_through(F(3, 4)) == ray_through(F(Fraction(3, 5), Fraction(4, 5)))


def test_canonical_ray_rejects_zero():
    with pytest.raises(ValueError):
        ray_through(F(0, 0))


@given(points(dim=3), st.fractions(min_value=Fraction(1, 5), max_value=Fraction(9), max_denominator=5))
@settings(max_examples=100, deadline=None)
def test_canonical_ray_scale_invariant(x, a):
    if not any(x):
        return
    scaled = tuple(a * c for c in x)
    assert ray_through(scaled) == ray_through(x)


def test_norm_examples():
    assert norm(F(3, 4)) == Surd(5)
    assert norm(F(1, 1)) == Surd.sqrt(2)
    assert norm(F(0, 0)) == Surd(0)


@given(points(dim=2), points(dim=2))
@settings(max_examples=80, deadline=None)
def test_norm_submultiplicative(x, y):
    (xy,) = mconv(D(x), D(y)).support()
    prod = norm(xy)
    bound = norm(x) * norm(y)
    assert (bound - prod).sign() >= 0


def test_primitive_ray():
    assert primitive_ray((2, -4, 6)) == (1, -2, 3)
    with pytest.raises(ValueError):
        primitive_ray((0, 0))
    # integral Fractions and the integer strings of to_json still load
    assert primitive_ray((Fraction(6), Fraction(-4))) == (3, -2)
    assert primitive_ray(("3", "-6")) == (1, -2)
    # a non-integral entry used to be truncated: (3/2, 1) loaded as (1, 1)
    with pytest.raises(ValueError, match="3/2"):
        primitive_ray((Fraction(3, 2), 1))


def test_inner():
    assert inner(F(1, 2), F(3, 4)) == Fraction(11)


@pytest.mark.parametrize("make", [make_point, primitive_ray], ids=["point", "ray"])
@pytest.mark.parametrize("loc", ["12", b"12"], ids=["str", "bytes"])
def test_string_location_refused(make, loc):
    with pytest.raises(TypeError, match="12"):
        make(loc)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: reflect_point(F(1, 2), SubsetMask(1, 3)), "dimension mismatch: 2 vs 3"),
        (lambda: inner(F(1, 2), F(1, 2, 3)), "dimension mismatch: 2 vs 3"),
    ],
    ids=["reflect-point", "inner"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
