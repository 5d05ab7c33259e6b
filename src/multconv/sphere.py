"""Atomic measures on the unit sphere, keyed by primitive integer rays.

An atom of weight ``w`` at the unit vector ``d/|d|``, for a primitive
integer ray ``d``, is stored in mass form: as the point mass ``m = w/|d|``
at the integer vector ``d``, which the radial projection carries to weight
``m * |d| = w``.  Locations compare exactly, and since ``|d|`` is a
positive constant per ray, signs, zero tests and sums per ray read the
masses as they are.  The masses are stored in the integer form of every
measure, int coefficients per square-free radicand over one weight
denominator; a sphere measure pushed from rational point weights has the
single radicand 1, while the public constructor's masses ``w/|d|`` carry
the radicands of the norms.  The sphere algebra takes no square root and
makes no :class:`Surd`: :meth:`SphereMeasure._gather` pushes point masses
at integer vectors radially back to the sphere by their gcds alone, and
takes the scale ``1/den`` into the weight denominator.  The radial
projection from point measures, the induced product on the sphere
(``_products`` on the stored parts), the coordinate-subsphere projections,
sums, scalar multiples, both witness factors and the lift
(``lifting.lift``) are each one gather.  Weights meet ``|d|`` only
at the public surface, where ``_norms`` (each ray's ``ray_norm_sq``) gives
the weight ``m * |d|`` by the integer weight coding that point measures
share.

``moment_g`` at the bottom is the single floating-point surface of the
package: a numerical diagnostic that never feeds an exact decision.
"""

from __future__ import annotations

import math
from itertools import chain, repeat, starmap
from operator import mul
from typing import Iterable, Sequence

from .measures import AtomicMeasure, Lanes, _products, _rows, _surd, _unrolled, _walk
from .points import Ray, primitive_ray


def _ray_entries(entries: list) -> Iterable[int] | None:
    """Ray entries that are ints or strings as ints, each distinct one read
    by ``int`` as ``primitive_ray`` reads it; None for any other entry or a
    string that ``int`` refuses."""
    if not set(map(type, entries)) <= {int, str}:
        return None
    distinct = set(entries)
    try:
        return map(dict(zip(distinct, map(int, distinct))).__getitem__, entries)
    except ValueError:
        return None


class SphereMeasure(AtomicMeasure):
    """Signed measure with finitely many atoms on the unit sphere."""

    __slots__ = ()
    _loc_field = "ray"

    @staticmethod
    def _locate(locs: list, dim: int) -> tuple[list[Ray], int]:
        """Primitive rays of dimension ``dim``, every entry read as one
        column (``_ray_entries``) with one gcd per ray.  Where the locations
        are not lists or tuples of ``dim`` ints or strings, or the column
        holds an entry to refuse or the zero vector, each is read by
        ``primitive_ray`` and its dimension checked in turn, which raises
        the first refusal with its message (or reads other entries)."""
        rays = None
        if set(map(type, locs)) <= {list, tuple} and set(map(len, locs)) <= {dim}:
            entries = _ray_entries(list(chain.from_iterable(locs)))
            if entries is not None:
                rays = _rows(entries, dim)
                gs = list(starmap(math.gcd, rays))
                if 0 in gs:
                    rays = None  # the zero vector spans no ray
                elif gs.count(1) != len(gs):
                    rays = [tuple([c // g for c in v]) for v, g in zip(rays, gs)]
        if rays is None:
            rays = _walk(locs, dim, primitive_ray, "ray")
        return rays, 1  # rays are integer keys already

    @staticmethod
    def _norms(keys: list[Ray]) -> list[int]:
        """The squared norm of each ray, ``ray_norm_sq`` by C-level maps."""
        return list(map(sum, map(map, repeat(mul), keys, keys)))

    def _decode(self, v: Ray) -> Ray:
        return v

    @classmethod
    def _gather(cls, dim: int, lanes: Lanes, den: int = 1, wden: int = 1) -> "SphereMeasure":
        """Push point masses at the vectors ``v / den`` radially to the sphere.

        Mass ``m`` at a nonzero vector ``v`` adds weight ``m * |v|`` at ``v``
        divided by its gcd ``g``, the primitive ray ``r`` through ``v``; mass
        at the origin is dropped.  As ``|v| = g * |r|``, that is the mass
        ``m * g`` at ``r``: the coefficients times ``g`` accumulate per
        radicand and ray, and the scale ``1/den`` joins the weight
        denominator, with no root.  Each lane is summed by the radial loop
        compiled for ``dim`` (``measures._unrolled``), at any dimension,
        which rebuilds a key only where ``g`` is not 1.  ``lifting.lift``
        is one such gather, one lane per part.
        """
        acc: dict[int, dict[Ray, int]] = {}
        loop = _unrolled(_RADIAL_LOOP, dim)
        for s, masses in lanes:
            loop(acc.setdefault(s, {}), masses)
        return cls._of(dim, acc, 1, wden * den)


# the radial sum of one lane into ``part``: each nonzero vector's mass times
# its gcd, at its primitive ray
_RADIAL_LOOP = """def radial_loop(part, masses):
    get = part.get
    for v, c in masses:
        {v#, } = v
        g = gcd({v#, })
        if g != 1:
            if not g:
                continue  # the origin spans no ray
            v = ({v# // g, })
            c *= g
        part[v] = get(v, 0) + c
"""


def radial_project(mu: AtomicMeasure) -> SphereMeasure:
    """Reweight by the Euclidean norm and push to the unit sphere.

    The atoms are pushed at their integer keys over the measure's common
    denominator.  Mass at the origin is dropped.  Sphere measures are
    already fixed points of the projection and pass through unchanged.
    """
    if isinstance(mu, SphereMeasure):
        return mu
    return SphereMeasure._gather(mu.dim, mu._over(), mu._den, mu._wden)


def sconv(a: AtomicMeasure, b: AtomicMeasure) -> SphereMeasure:
    """Multiplicative convolution followed by radial projection.

    Point-measure inputs are radially projected first; this commutes with
    the product, so mixed arguments are sound.
    """
    sa = radial_project(a)
    sb = radial_project(b)
    sa._check(sb)
    lanes = [(s, part.items()) for s, part in _products(sa.dim, sa._parts, sb._parts).items()]
    return SphereMeasure._gather(sa.dim, lanes, 1, sa._wden * sb._wden)


def moment_g(mu: AtomicMeasure, alpha: Sequence[float]) -> float:
    """Floating-point moment diagnostic over the top-order component.

    Evaluates the sum of weight times the product of absolute coordinates
    raised to the exponents; sphere atoms are evaluated at their floating
    unit vectors.  Requires full zero pattern on every atom and exponents
    that are componentwise non-negative with total at most one.
    """
    n = mu.dim
    if len(alpha) != n:
        raise ValueError(f"exponent vector has length {len(alpha)}, expected {n}")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be non-negative")
    if sum(alpha) > 1 + 1e-12:
        raise ValueError("exponents must sum to at most 1")
    bad = [v for v in mu._keys() if not all(v)]
    if bad:
        raise ValueError(f"atom at {mu._loc_field} {mu._decode(bad[0])} is not of full order")
    total = 0.0
    keys = list(mu._keys())
    for v, n in zip(keys, mu._norms(keys) or repeat(1)):
        # ``v / norm`` is the key's unit vector (sphere) or location (points)
        norm = n ** 0.5 * mu._den
        prod = 1.0
        for c, a in zip(v, alpha):
            prod *= (abs(float(c)) / norm) ** a
        total += float(_surd(mu._weight(v), mu._wden)) * prod
    return total
