"""The JSON codec of measures by way of ``Fraction`` and ``Surd`` values.

This is how ``AtomicMeasure.from_json`` and ``to_json`` read and wrote
before the integer codec: every coordinate and coefficient parsed by
``Fraction``, every weight a :class:`Surd`, repeats merged per ``Fraction``
location, and the output written from the decoded ``atoms``.  The tests
keep it as an oracle for the integer codec: the same measures, the same
bytes, and the same exceptions with the same messages.  An atom that is
not an object is refused by its index, as the integer codec refuses it,
rather than with the subscript error of the Python version.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

from multconv.points import make_point, primitive_ray, ray_norm_sq
from multconv.scalars import Surd, _coerce_rational, square_free_decompose
from multconv.sphere import SphereMeasure
from multconv.subsets import json_dim


def surd_from_json(data) -> Surd:
    acc: dict[int, Fraction] = {}
    for coeff, r in data:
        if isinstance(coeff, bool):
            raise TypeError(f"refusing bool coefficient {coeff!r}")
        if not isinstance(coeff, (Rational, str, float, Decimal)):
            raise TypeError(f"refusing {type(coeff).__name__} coefficients; use Fraction, int, or 'p/q' strings")
        if isinstance(r, bool) or not isinstance(r, int):
            raise TypeError(f"radicand must be an integer, got {r!r}")
        if r < 1:
            raise ValueError(f"radicand must be >= 1, got {r}")
        _, free = square_free_decompose(r)
        if free != r:
            raise ValueError(f"radicand {r} is not square-free")
        acc[r] = acc.get(r, 0) + _coerce_rational(coeff)
    return sum((Surd(c) * Surd.sqrt(r) for r, c in acc.items()), Surd(0))


def measure_from_json(cls, data: dict):
    """``cls.from_json(data)`` built by way of ``Fraction`` locations and
    ``Surd`` weights, stored through the trusted constructor."""
    field = cls._loc_field
    atoms = []
    for k, entry in enumerate(data.get("atoms", [])):
        if not isinstance(entry, Mapping):
            raise TypeError(
                f'atom {k} must be an object with "{field}" and "weight" fields, got {type(entry).__name__}'
            )
        atoms.append((entry[field], surd_from_json(entry["weight"])))
    dim = json_dim(data)
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    sphere = cls is SphereMeasure
    acc: dict[tuple, Surd] = {}
    for loc, w in atoms:
        loc = primitive_ray(loc) if sphere else make_point(loc)
        if len(loc) != dim:
            raise ValueError(f"{field} {loc} has dimension {len(loc)}, expected {dim}")
        prev = acc.get(loc)
        acc[loc] = w if prev is None else prev + w
    den = 1 if sphere else math.lcm(*[c.denominator for loc in acc for c in loc])
    masses = []
    for loc, w in acc.items():
        v = tuple(int(c * den) for c in loc)
        # the sphere stores the mass w/|d| at the ray d
        masses.append((v, w * Surd.sqrt(Fraction(1, ray_norm_sq(v))) if sphere else w))
    wden = math.lcm(*[c.denominator for _, m in masses for _, c in m.terms])
    parts: dict[int, dict[tuple, int]] = {}
    for v, m in masses:
        for r, c in m.terms:
            parts.setdefault(r, {})[v] = int(c * wden)
    return cls._of(dim, parts, den, wden)


def measure_to_json(mu) -> dict:
    """``mu.to_json()`` written from the decoded ``Fraction`` locations and
    ``Surd`` weights."""
    return {
        "dim": mu.dim,
        "atoms": [
            {mu._loc_field: [str(c) for c in loc], "weight": [[str(c), r] for r, c in w.terms]}
            for loc, w in sorted(mu.atoms.items())
        ],
    }
