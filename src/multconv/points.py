"""Location parsing and integer-vector helpers.

``make_point`` reads a rational point of R^n and ``primitive_ray`` a
primitive integer ray, the exact stand-in for a unit direction: each is
the per-value reader whose refusals the measures' column readers raise
(``_locate``); the helpers act alike on ``Fraction`` points and the
integer keys of measures.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .scalars import _NUMBER_TYPES, _coerce_rational, _refuse_long
from .subsets import SubsetMask

Point = tuple[Fraction, ...]
Ray = tuple[int, ...]


def refuse_text(loc) -> None:
    """Refuse a string location, which would be split into characters."""
    if isinstance(loc, (str, bytes)):
        raise TypeError(f"a location must be a sequence of coordinates, got {loc!r}")


def make_point(coords: Iterable) -> Point:
    # every entry's type is checked before any value is read
    refuse_text(coords)
    values = tuple(coords)
    if not values:
        raise ValueError("points must have dimension >= 1")
    for c in values:
        if isinstance(c, (float, bool)) or not isinstance(c, _NUMBER_TYPES):
            raise TypeError(
                f"refusing {type(c).__name__} coordinates; use Fraction, int, or 'p/q' strings"
            )
    return tuple(_coerce_rational(c) for c in values)


def reflect_point(x: Point, f: SubsetMask) -> Point:
    if len(x) != f.dim:
        raise ValueError(f"dimension mismatch: {len(x)} vs {f.dim}")
    return tuple(-c if f.bits >> i & 1 else c for i, c in enumerate(x))


def zero_pattern(x: Point) -> SubsetMask:
    """The coordinate set where ``x`` is nonzero."""
    bits = 0
    for i, c in enumerate(x):
        if c:
            bits |= 1 << i
    return SubsetMask(bits, len(x))


def inner(x: Point, y: Point) -> Fraction:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


# -- integer-ray counterparts ------------------------------------------------


def primitive_ray(v: Iterable[int]) -> Ray:
    refuse_text(v)
    ints = []
    for c in v:
        if isinstance(c, (float, bool)):
            raise TypeError(f"refusing {type(c).__name__} ray entries; use integers")
        try:
            i = int(c)
        except ValueError as exc:
            _refuse_long(exc, c)
            raise ValueError(f"ray entry {c!r} is not an integer") from None
        except TypeError:
            raise TypeError(f"refusing {type(c).__name__} ray entries; use integers") from None
        # int() truncates a Fraction; a string is parsed as an integer or refused
        if i != c and not isinstance(c, str):
            raise ValueError(f"ray entry {c} is not an integer")
        ints.append(i)
    if not any(ints):
        raise ValueError("the zero vector spans no ray")
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def ray_norm_sq(d: Ray) -> int:
    return sum(c * c for c in d)

