"""Atomic measures on the unit sphere, keyed by primitive integer rays.

An atom stored at ray ``d`` with weight ``w`` represents mass ``w`` at the
unit vector ``d/|d|``; all radial normalisations are absorbed into surd
weights, so locations compare exactly.  That convention lives here alone,
in the two hooks of the setting: :meth:`SphereMeasure.masses` reads each
atom as the point mass ``w/|d|`` at the integer vector ``d``, and
:meth:`SphereMeasure._gather` pushes point masses at integer vectors
radially back to the sphere, one root per ray.  The radial projection from
point measures, the induced product on the sphere (``measures._products``
on the masses), the coordinate-subsphere projections and the probe witness
are each one gather.

``moment_g`` at the bottom is the single floating-point surface of the
package: a numerical diagnostic that never feeds an exact decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .measures import AtomicMeasure, _products
from .points import Ray, clear_denominators, primitive_ray, ray_norm_sq, zero_pattern
from .scalars import Surd
from .subsets import SubsetMask


class SphereMeasure(AtomicMeasure):
    """Signed measure with finitely many atoms on the unit sphere."""

    __slots__ = ()
    _key = staticmethod(primitive_ray)
    _loc_field = "ray"
    _zero = 0

    def masses(self) -> list[tuple[Ray, Surd]]:
        """Each atom as the point mass ``w/|d|`` at its integer ray ``d``."""
        return [(d, w * Surd.sqrt(Fraction(1, ray_norm_sq(d)))) for d, w in self._atoms.items()]

    @classmethod
    def _gather(cls, dim: int, masses: Iterable[tuple[tuple[int, ...], Surd]]) -> "SphereMeasure":
        """Push point masses at integer vectors radially to the sphere.

        Mass ``m`` at a nonzero vector ``v`` adds ``m * |v|`` at ``v`` divided
        by its gcd ``g``, the primitive ray ``r`` through ``v``; mass at the
        origin is dropped.  As ``|v| = g * |r|``, the sums of ``m * g``
        accumulate per ray and take the root ``|r|`` once, at the end.
        """
        acc: dict[Ray, Surd] = {}
        for v, m in masses:
            g = math.gcd(*v)
            if g == 0:
                continue  # the origin spans no ray
            if g != 1:
                v = tuple([c // g for c in v])
                m = m * g
            size = len(acc)
            prev = acc.setdefault(v, m)
            if len(acc) == size:  # a merge; masses may share one Surd object
                acc[v] = prev + m
        return cls._of(dim, {r: s * Surd.sqrt(ray_norm_sq(r)) for r, s in acc.items() if s})


def radial_project(mu: AtomicMeasure) -> SphereMeasure:
    """Reweight by the Euclidean norm and push to the unit sphere.

    A point ``x`` is pushed as the integer vector ``s * x`` with mass
    ``w / s``.  Mass at the origin is dropped.  Sphere measures are already
    fixed points of the projection and pass through unchanged.
    """
    if isinstance(mu, SphereMeasure):
        return mu
    pushed = []
    for x, w in mu.masses():
        scale, v = clear_denominators(x)
        pushed.append((v, w * Fraction(1, scale)))
    return SphereMeasure._gather(mu.dim, pushed)


def sconv(a: AtomicMeasure, b: AtomicMeasure) -> SphereMeasure:
    """Multiplicative convolution followed by radial projection.

    Point-measure inputs are radially projected first; this commutes with
    the product, so mixed arguments are sound.
    """
    sa = radial_project(a)
    sb = radial_project(b)
    sa._check(sb)
    return SphereMeasure._gather(sa.dim, _products(sa.dim, sa.masses(), sb.masses()))


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
    full = SubsetMask.full(n)
    bad = [loc for loc in mu.atoms if zero_pattern(loc) != full]
    if bad:
        raise ValueError(f"atom at {mu._loc_field} {bad[0]} is not of full order")
    sphere = isinstance(mu, SphereMeasure)
    total = 0.0
    for loc, w in mu.atoms.items():
        norm = ray_norm_sq(loc) ** 0.5 if sphere else 1.0
        prod = 1.0
        for c, a in zip(loc, alpha):
            prod *= (abs(float(c)) / norm) ** a
        total += float(w) * prod
    return total
