"""Atomic measures on the unit sphere, keyed by primitive integer rays.

An atom stored at ray ``d`` with weight ``w`` represents mass ``w`` at the
unit vector ``d/|d|``; all radial normalisations are absorbed into surd
weights, so locations compare exactly.  The module provides the radial
projection from point measures, the induced product on the sphere, and
the coordinate-subsphere projections.

``moment_g`` at the bottom is the single floating-point surface of the
package: a numerical diagnostic that never feeds an exact decision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .measures import AtomicMeasure
from .points import (
    Ray,
    canonical_ray,
    hadamard_ray,
    norm_surd,
    primitive_ray,
    project_ray,
    ray_norm_sq,
    zero_pattern,
)
from .scalars import Surd
from .subsets import SubsetMask


class SphereMeasure(AtomicMeasure):
    """Signed measure with finitely many atoms on the unit sphere."""

    __slots__ = ()
    _key = staticmethod(primitive_ray)
    _loc_field = "ray"

    def project(self, e: SubsetMask) -> "SphereMeasure":
        """Project onto the coordinate subsphere of ``e``.

        Each surviving direction is renormalised back to the sphere, which
        scales its weight by the norm ratio of the projected ray.
        """
        self._check_mask(e)
        acc: dict[Ray, Surd] = {}
        for r, w in self._atoms.items():
            c = project_ray(r, e)
            if not any(c):
                continue
            factor = Surd.sqrt(Fraction(ray_norm_sq(c), ray_norm_sq(r)))
            ray = primitive_ray(c)
            add = w * factor
            prev = acc.get(ray)
            acc[ray] = add if prev is None else prev + add
        return SphereMeasure._of(self.dim, acc)


def radial_project(mu: AtomicMeasure) -> SphereMeasure:
    """Reweight by the Euclidean norm and push to the unit sphere.

    Mass at the origin is dropped.  Sphere measures are already fixed
    points of the projection and pass through unchanged.
    """
    if isinstance(mu, SphereMeasure):
        return mu
    acc: dict[Ray, Surd] = {}
    for pt, w in mu.atoms.items():
        if not any(pt):
            continue
        ray = canonical_ray(pt)
        add = w * norm_surd(pt)
        prev = acc.get(ray)
        acc[ray] = add if prev is None else prev + add
    return SphereMeasure._of(mu.dim, acc)


def sconv(a: AtomicMeasure, b: AtomicMeasure) -> SphereMeasure:
    """Multiplicative convolution followed by radial projection.

    Point-measure inputs are radially projected first; this commutes with
    the product, so mixed arguments are sound.
    """
    sa = radial_project(a)
    sb = radial_project(b)
    sa._check(sb)
    acc: dict[Ray, Surd] = {}
    for d, wd in sa._atoms.items():
        nd = ray_norm_sq(d)
        for e, we in sb._atoms.items():
            prod = hadamard_ray(d, e)
            if not any(prod):
                continue
            factor = Surd.sqrt(Fraction(ray_norm_sq(prod), nd * ray_norm_sq(e)))
            ray = primitive_ray(prod)
            add = wd * we * factor
            prev = acc.get(ray)
            acc[ray] = add if prev is None else prev + add
    return SphereMeasure._of(sa.dim, acc)


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
