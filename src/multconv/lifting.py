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

from fractions import Fraction
from typing import Iterable

from .measures import Measure, msym, tensor
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
    for ray in mu.atoms:
        if ray[0] == 0:
            raise ValueError(f"atom at ray {ray} sits on the equator of the lifted coordinate")
    if not mu.is_even_under(SubsetMask.full(mu.dim)):
        raise ValueError("measure is not origin-symmetric")
    kept = [(r, m) for r, m in mu.masses() if r[0] > 0]
    return Measure._gather(n, [(tuple(Fraction(c, r[0]) for c in r[1:]), m * (2 * r[0])) for r, m in kept])


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
