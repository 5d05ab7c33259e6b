"""Lifting between point measures on R^n and symmetric sphere measures.

A measure picks up a new leading coordinate pinned to 1, is symmetrised
about the origin, and is projected radially; the result lives on the
sphere one dimension up, off the equator of the new coordinate.  The map
is a linear bijection onto that class and turns multiplicative
convolution into the sphere product, which transports universality
between the two settings.

The new coordinate occupies the first tuple slot and the lowest mask bit,
so it serialises as index 1 in the lifted dimension.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import floordiv, gt, itemgetter, mul
from typing import Iterable

from .measures import Measure, _columns, msym, tensor
from .subsets import (
    GeneratingPair,
    SubsetMask,
    lift_pair,
    lift_set,
)
from .sphere import SphereMeasure, radial_project


def lift(mu: Measure) -> SphereMeasure:
    """Pin a unit leading coordinate, symmetrise, project radially."""
    pinned = tensor(Measure.dirac([Fraction(1)]), mu)
    return radial_project(msym(pinned))


def lift_inverse(mu: SphereMeasure) -> Measure:
    """Invert the lift on origin-symmetric measures off the equator.

    Each ray with positive leading coordinate is rescaled so that the
    leading coordinate becomes 1 and then dropped; the factor undoes both
    the radial reweighting and the symmetrisation half.  Inputs with mass
    on the equator or without origin symmetry are rejected.
    """
    if not isinstance(mu, SphereMeasure):
        raise ValueError(f"expected a sphere measure, got {type(mu).__name__}")
    if mu.dim < 2:
        raise ValueError("lifted measures have dimension >= 2")
    n = mu.dim - 1
    for ray in mu._keys():
        if ray[0] == 0:
            raise ValueError(f"atom at ray {ray} sits on the equator of the lifted coordinate")
    if not mu.is_even_under(SubsetMask.full(mu.dim)):
        raise ValueError("measure is not origin-symmetric")
    # each part is origin-symmetric, so it keeps a ray with positive lead
    kept = [
        (s, dict(compress(part.items(), map(gt, map(itemgetter(0), part), repeat(0)))))
        for s, part in mu._parts.items()
    ]
    # the point ``r[1:] / r[0]``, over the common denominator of the kept rays,
    # with the mass ``m * 2 * r[0]``
    den = math.lcm(*[r[0] for _, masses in kept for r in masses])
    lanes = []
    for s, masses in kept:
        lead, *cols = zip(*masses)
        scale = list(map(floordiv, repeat(den), lead))
        weights = map(mul, masses.values(), map(mul, lead, repeat(2)))
        lanes.append((s, zip(_columns(cols, mul, repeat(scale)), weights)))
    return Measure._gather(n, lanes, den, mu._wden)


def lift_class(
    support: Iterable[SubsetMask], pair: GeneratingPair
) -> tuple[frozenset[SubsetMask], GeneratingPair]:
    """Lift a support family and a generating pair together.

    Membership transports: a measure lies in the class cut out by
    ``(support, pair)`` exactly when its lift lies in the class cut out by
    the returned data one dimension up.
    """
    lifted_support = frozenset(lift_set(e) for e in support)
    return lifted_support, lift_pair(pair)
