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
from operator import floordiv, gt, itemgetter, mul
from typing import Iterable

from .measures import Measure, _check_points, _columns, _flipped, _reflected
from .subsets import (
    GeneratingPair,
    SubsetMask,
    lift_pair,
    lift_set,
)
from .sphere import SphereMeasure


def lift(mu: Measure) -> SphereMeasure:
    """Pin a unit leading coordinate, symmetrise, project radially.

    One sphere gather (``SphereMeasure._gather``), one lane per part: the
    point ``v / den`` becomes the vector ``(1, v / den)``, keyed
    ``(den, v)`` over ``den``, and it and its antipode are pushed radially,
    each with the stored mass over the weight denominator ``2 * _wden``,
    the half of the origin average.  The map is one-to-one, as distinct
    points with the same leading entry span distinct rays, so no two atoms
    merge; the atoms come in the order of
    ``radial_project(msym(tensor(dirac([1]), mu)))``: per part, the rays,
    then their antipodes.
    """
    _check_points(mu)
    dim = mu.dim + 1
    lanes = []
    for s, part in mu._parts.items():
        vectors = list(zip(repeat(mu._den), *zip(*part)))
        lanes.append((s, zip(chain(vectors, _flipped(vectors, (1 << dim) - 1)), [*part.values()] * 2)))
    return SphereMeasure._gather(dim, lanes, mu._den, 2 * mu._wden)


def lift_inverse(mu: SphereMeasure) -> Measure:
    """Invert the lift on origin-symmetric measures off the equator.

    Each ray with positive leading coordinate is rescaled so that the
    leading coordinate becomes 1 and then dropped; the factor undoes both
    the radial reweighting and the symmetrisation half.  Inputs with mass
    on the equator or without origin symmetry are rejected, in that order.
    Origin symmetry is tested part by part with the origin reflection
    on the stored keys (``_reflected``), at any dimension.  Distinct
    primitive rays with a positive lead give distinct points, so each part
    is built key by key, with no sum.
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
    full = (1 << mu.dim) - 1
    for part in mu._parts.values():
        if _reflected(part, full) != part:
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
