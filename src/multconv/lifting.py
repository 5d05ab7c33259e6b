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
from itertools import chain, compress, repeat
from operator import floordiv, gt, itemgetter, mul, neg
from typing import Iterable

from .measures import Measure, _check_points, _columns
from .subsets import (
    GeneratingPair,
    SubsetMask,
    lift_pair,
    lift_set,
)
from .sphere import SphereMeasure, _radial_columns


def lift(mu: Measure) -> SphereMeasure:
    """Pin a unit leading coordinate, symmetrise, project radially.

    In one pass on the stored columns: the point ``v / den`` becomes the
    vector ``(den, v)``, which the sphere's ``_radial_columns`` carries to
    its primitive ray ``(den, v) / g``, for ``g`` the gcd of its entries,
    with the mass ``c * g``; that ray and its antipode each carry this mass
    over the weight denominator ``2 * _wden * den``.  The map is one-to-one,
    as distinct points with the same leading entry span distinct rays, so no
    two atoms merge; the atoms come in the order of
    ``radial_project(msym(tensor(dirac([1]), mu)))``: per part, the rays,
    then their antipodes.
    """
    _check_points(mu)
    den = mu._den
    parts = {}
    for s, part in mu._parts.items():
        cols, masses = _radial_columns([[den] * len(part), *zip(*part)], list(part.values()))
        antipodes = zip(*map(map, repeat(neg), cols))
        parts[s] = dict(zip(chain(zip(*cols), antipodes), masses * 2))
    return SphereMeasure._of(mu.dim + 1, parts, 1, 2 * mu._wden * den)


def lift_inverse(mu: SphereMeasure) -> Measure:
    """Invert the lift on origin-symmetric measures off the equator.

    Each ray with positive leading coordinate is rescaled so that the
    leading coordinate becomes 1 and then dropped; the factor undoes both
    the radial reweighting and the symmetrisation half.  Inputs with mass
    on the equator or without origin symmetry are rejected, in that order.
    Distinct primitive rays with a positive lead give distinct points, so
    each part is built key by key, with no sum.
    """
    if not isinstance(mu, SphereMeasure):
        raise ValueError(f"expected a sphere measure, got {type(mu).__name__}")
    if mu.dim < 2:
        raise ValueError("lifted measures have dimension >= 2")
    n = mu.dim - 1
    leads = {s: list(map(itemgetter(0), part)) for s, part in mu._parts.items()}
    for s, part in mu._parts.items():
        if 0 in leads[s]:
            ray = list(part)[leads[s].index(0)]
            raise ValueError(f"atom at ray {ray} sits on the equator of the lifted coordinate")
    # origin symmetry, part by part and with no mask, so at any dimension:
    # each ray's antipode holds its mass
    for part in mu._parts.values():
        if dict(zip(_columns(zip(*part), mul, repeat(repeat(-1))), part.values())) != part:
            raise ValueError("measure is not origin-symmetric")
    # each part is origin-symmetric, so it keeps a ray with positive lead
    kept = [
        (s, dict(compress(part.items(), map(gt, leads[s], repeat(0)))))
        for s, part in mu._parts.items()
    ]
    # the point ``r[1:] / r[0]``, over the common denominator of the kept rays
    # (the lcm of all leads, which come in pairs of opposite sign), with the
    # mass ``m * 2 * r[0]``
    den = math.lcm(*chain.from_iterable(leads.values()))
    parts = {}
    for s, masses in kept:
        lead, *cols = zip(*masses)
        scale = list(map(floordiv, repeat(den), lead))
        weights = map(mul, masses.values(), map(mul, lead, repeat(2)))
        parts[s] = dict(zip(_columns(cols, mul, repeat(scale)), weights))
    return Measure._of(n, parts, den, mu._wden)


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
