"""Exact universality deciders with verified witnesses.

A measure is universal on a class when convolving with it annihilates no
nonzero member of the class.  For classes cut out by a support family of
zero patterns and a reflection symmetry pair, universality is equivalent
to a finite list of non-vanishing conditions indexed by pairs (E, J):
the parity basis measure of J must not annihilate the top-order part of
the projection onto E.  That product is nonzero exactly when some class
of base atoms sharing one absolute location has a nonzero sum of weights
signed by the parity character of J.

One general decider serves points in R^n and the sphere alike and reads
the setting from the type of the measure; the sphere misses the origin
cell, so its whole space is every nonempty pattern.  Every decider, at
every scope, only lists its (E, J) pairs; one condition pass evaluates
them by these class sums, exactly, from integer-coded atoms: each atom is
encoded once per decision by its nonzero and negative coordinate masks,
its absolute coordinates as integers over one common denominator, and its
weight; the classes on E group the atoms nonzero on all of E by their
absolute coordinates there, a location scaled by one number.  Atoms are
read through the setting's ``masses``: on the sphere an atom is the point
mass ``w/|r|`` at the integer ray ``r`` (scale 1), which the projection
gathers back with the norm of the projected ray; scaling each class
member by the gcd of its coordinates on E leaves only the class's common
norm, which drops out of the zero test.

On a negative decision the counterexample is proved by its factors: it is
either the parity basis measure of J (convolved with the whole measure to
prove annihilation) or that measure times the alternating top-order probe
on E, built directly as a product in the setting.  The product is
annihilated because the probe's factors have zero mass, which kills every
lower-order atom, and the top-order part is killed by the failing
condition, which is checked by convolution independently of the class
sums.  Convolution
serves only these checks on the ``2**|E|``-atom parity factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Optional

from .measures import AtomicMeasure, Measure, _parity_grid, delta_ej, mconv
from .scalars import ZERO, Surd
from .subsets import (
    GeneratingPair,
    SubsetMask,
    all_subsets,
    gamma,
    index_set,
    mask_sort_key,
)
from .sphere import SphereMeasure, radial_project, sconv

MAX_DECIDER_DIM = 8


@dataclass(frozen=True, slots=True)
class ConditionRecord:
    support: SubsetMask
    index: SubsetMask
    satisfied: bool


@dataclass(slots=True)
class UniversalityReport:
    universal: bool
    conditions: list[ConditionRecord]
    witness: Optional[AtomicMeasure]
    skipped_non_proper: list[SubsetMask] = field(default_factory=list)

    def __post_init__(self):
        if self.universal != all(c.satisfied for c in self.conditions):
            raise ValueError("decision inconsistent with the condition list")
        if not self.universal and self.witness is None:
            raise ValueError("negative decision without a witness")

    def failing(self) -> list[ConditionRecord]:
        return [c for c in self.conditions if not c.satisfied]

    def to_json(self) -> dict:
        return {
            "universal": self.universal,
            "conditions": [
                {"E": c.support.to_json(), "J": c.index.to_json(), "ok": c.satisfied}
                for c in self.conditions
            ],
            "witness": None if self.witness is None else self.witness.to_json(),
            "skipped": [e.to_json() for e in self.skipped_non_proper],
        }


def _check_dim(dim: int) -> None:
    if dim > MAX_DECIDER_DIM:
        raise ValueError(
            f"dimension {dim} exceeds the enumeration bound {MAX_DECIDER_DIM}"
        )


def _ordered_support(support) -> list[SubsetMask]:
    return sorted(set(support), key=lambda m: (-m.size, mask_sort_key(m)))


def _in_class(witness, pair: GeneratingPair, e: SubsetMask) -> bool:
    if witness.component_patterns() != frozenset({e}):
        return False
    if not all(witness.is_even_under(f) for f in pair.evens):
        return False
    return all(witness.is_odd_under(f) for f in pair.odds)


# on a coordinate of E the probe product's factor is
# ``(delta_2 - delta_1 + chi*delta_{-2} - chi*delta_{-1}) / 2``, with ``chi``
# the parity character of J there
_PROBE = ((2, 1), (1, -1), (-2, 1), (-1, -1))


def _probe_product(e: SubsetMask, j: SubsetMask, cls: type[AtomicMeasure] = Measure) -> AtomicMeasure:
    """``mconv(delta_ej(e, j), sigma0_on(e))``, built as a product in the setting ``cls``."""
    return _parity_grid(e, j, _PROBE, Fraction(1, 1 << e.size), cls)


def _witness(
    nu: AtomicMeasure, pair: GeneratingPair, e: SubsetMask, j: SubsetMask
) -> AtomicMeasure:
    """Counterexample for a failing (E, J) condition, proved by its factors.

    The parity basis measure of J is the witness when ``nu`` annihilates it;
    that convolution is its proof.  Otherwise lower-order atoms of the
    projection onto E interfere, and the witness is the parity basis measure
    times the alternating top-order probe on E.  It vanishes off E, so
    ``nu`` acts on it through its projection onto E; every proper marginal
    of the probe vanishes, which kills the lower-order atoms; and the
    top-order part annihilates the parity factor, which is the failing
    condition, checked here by convolution.  Class membership is checked on
    the parity factor: reflections act on one factor of a product.  On the
    sphere the witness is pushed forward radially, which commutes with the
    product and the reflections; the probe product's coordinates are
    integers, so the sphere gathers its atoms as integer vectors.
    """
    sphere = isinstance(nu, SphereMeasure)
    conv = sconv if sphere else mconv
    parity = delta_ej(e, j)
    if not _in_class(parity, pair, e):
        raise RuntimeError("witness construction left the symmetry class")
    if not conv(nu, parity):
        witness = radial_project(parity) if sphere else parity
    elif conv(nu.project(e).restrict_order(e), parity):
        raise RuntimeError("witness construction failed to annihilate")
    else:
        witness = _probe_product(e, j, type(nu))
    if not witness:
        raise RuntimeError("witness construction produced the zero measure")
    if witness.component_patterns() != frozenset({e}):
        raise RuntimeError("witness construction left the symmetry class")
    return witness


def _conclude(
    nu: AtomicMeasure, pair: GeneratingPair, conditions: list[ConditionRecord], skipped=()
) -> UniversalityReport:
    """The report on a condition list, with a witness for its first failure."""
    fail = next((c for c in conditions if not c.satisfied), None)
    witness = None if fail is None else _witness(nu, pair, fail.support, fail.index)
    return UniversalityReport(fail is None, conditions, witness, list(skipped))


# an atom once per decision: nonzero mask, negative mask, absolute
# coordinates as integers, weight
_Code = list[tuple[int, int, tuple[int, ...], Surd]]


def _code(nu: AtomicMeasure) -> _Code:
    """Encode every atom of ``nu`` once.

    Atoms are read through the setting's ``masses``; a location is scaled
    by the ``lcm`` of all coordinate denominators, so absolute coordinates
    are integers, equal exactly when the locations' are.  A sphere atom is
    the point mass ``w/|r|`` at the integer ray ``r``: its scale is 1.
    """
    masses = list(nu.masses())
    scale = math.lcm(*{c.denominator for loc, _ in masses for c in loc})
    code: _Code = []
    for loc, w in masses:
        nonzero = negative = 0
        for i, c in enumerate(loc):
            if c:
                nonzero |= 1 << i
                if c < 0:
                    negative |= 1 << i
        absolute = tuple([abs(c.numerator) * (scale // c.denominator) for c in loc])
        code.append((nonzero, negative, absolute, w))
    return code


def _classes(code: _Code, e: SubsetMask, sphere: bool) -> list[list[tuple[int, Surd]]]:
    """The top-order part of the projection onto ``e``, grouped.

    Atoms nonzero on all of ``e`` sharing their absolute coordinates there
    form a class; each member keeps its negative mask and its weight.  On
    the sphere the key is divided by its gcd g, the member's projected ray
    is g times the class's primitive ray, and the weight scales by g.
    """
    bits = e.bits
    on_e = [i for i in range(e.dim) if bits >> i & 1]
    classes: dict[tuple[int, ...], list[tuple[int, Surd]]] = {}
    for nonzero, negative, absolute, w in code:
        if nonzero & bits != bits:
            continue  # a lower-order atom of the projection
        key = tuple([absolute[i] for i in on_e])
        if sphere:
            g = math.gcd(*key)
            if g != 1:
                key = tuple([v // g for v in key])
                w = w * g
        classes.setdefault(key, []).append((negative, w))
    return list(classes.values())


def _satisfied(classes: list[list[tuple[int, Surd]]], j: int) -> bool:
    """Whether the parity basis measure of the index mask ``j`` leaves the
    grouped base nonzero: some class has a nonzero sum of weights signed by
    the parity of their negative coordinates inside ``j``."""
    for members in classes:
        sums: list[Optional[Surd]] = [None, None]
        for negative, w in members:
            odd = (negative & j).bit_count() & 1
            s = sums[odd]
            sums[odd] = w if s is None else s + w
        even, odd = sums
        if (even or ZERO) != (odd or ZERO):
            return True
    return False


def _evaluate(
    nu: AtomicMeasure, pairs: list[tuple[SubsetMask, SubsetMask]]
) -> list[ConditionRecord]:
    """One record per (E, J) pair, by the class sums: the one condition pass.

    The atoms are grouped once per distinct E, whatever the pair order.
    """
    sphere = isinstance(nu, SphereMeasure)
    code = _code(nu)
    groupings: dict[SubsetMask, tuple[list[list[tuple[int, Surd]]], bool]] = {}
    records: list[ConditionRecord] = []
    for e, j in pairs:
        grouping = groupings.get(e)
        if grouping is None:
            classes = _classes(code, e, sphere)
            # a class of one atom has a nonzero sum under every J
            grouping = groupings[e] = (classes, any(len(m) == 1 for m in classes))
        classes, single = grouping
        records.append(ConditionRecord(e, j, single or _satisfied(classes, j.bits)))
    return records


def _whole_space(dim: int, sphere: bool) -> list[SubsetMask]:
    """Every zero pattern of a setting; the sphere misses the origin cell."""
    return [e for e in all_subsets(dim) if e.size or not sphere]


def decide_universal_rn(nu: AtomicMeasure, support, pair: GeneratingPair) -> UniversalityReport:
    """Decide universality of ``nu`` on the class over ``support`` with ``pair``.

    The one general decider for both settings, read from the type of
    ``nu``: a :class:`SphereMeasure` is decided on the sphere, whose support
    family must avoid the empty pattern (the sphere misses the origin cell).
    Support sets whose restricted pair is not proper contribute nothing to
    the class and are recorded as skipped.  Conditions are listed with the
    support sets by descending size, index sets lexicographically.
    """
    support = list(support)
    if isinstance(nu, SphereMeasure) and any(e.size == 0 for e in support):
        raise ValueError("the empty pattern cannot appear in a spherical support family")
    _check_dim(nu.dim)
    if pair.dim != nu.dim:
        raise ValueError(f"dimension mismatch: measure {nu.dim} vs pair {pair.dim}")
    pairs: list[tuple[SubsetMask, SubsetMask]] = []
    skipped: list[SubsetMask] = []
    for e in _ordered_support(support):
        if e.dim != nu.dim:
            raise ValueError(f"support set {e} has dimension {e.dim}, expected {nu.dim}")
        indices = index_set(e, pair)
        if not indices:
            skipped.append(e)
            continue
        pairs.extend((e, j) for j in sorted(indices, key=mask_sort_key))
    return _conclude(nu, pair, _evaluate(nu, pairs), skipped)


# the setting is read from the measure, so the sphere needs no decider of its own
decide_universal_sphere = decide_universal_rn


SymmetryClass = Literal["unconditional", "symmetric", "antisymmetric", "none"]
Scope = Literal["full", "top-order", "positive-orthant"]

_CLASS_PAIRS = {
    "unconditional": lambda n: GeneratingPair.make(n, evens=list(all_subsets(n))),
    "symmetric": lambda n: GeneratingPair.make(n, evens=[SubsetMask.full(n)]),
    "antisymmetric": lambda n: GeneratingPair.make(n, odds=[SubsetMask.full(n)]),
    "none": lambda n: GeneratingPair.make(n),
}


def class_pair(name: SymmetryClass, dim: int) -> GeneratingPair:
    """The generating pair cutting out a named symmetry class."""
    try:
        factory = _CLASS_PAIRS[name]
    except KeyError:
        raise ValueError(f"unknown symmetry class {name!r}") from None
    return factory(dim)


def decide_special(
    nu: AtomicMeasure, klass: SymmetryClass, scope: Scope = "full"
) -> UniversalityReport:
    """Decide universality on a named symmetry class.

    ``scope="full"`` decides on the whole space of the setting (sphere: all
    nonempty patterns) with the general decider.  ``scope="top-order"`` uses
    the simplified condition list available when ``nu`` itself has full
    order, still deciding on the whole space; other inputs are rejected.
    ``scope="positive-orthant"`` (point measures, unconditional class only)
    reports the sufficient condition transferred from the unconditional
    class, which is the full-scope decision.

    The decision always coincides with the general decider run on the
    corresponding pair; the test suite enforces that equality.
    """
    n = nu.dim
    _check_dim(n)
    sphere = isinstance(nu, SphereMeasure)
    pair = class_pair(klass, n)
    full = SubsetMask.full(n)

    if scope == "positive-orthant":
        if sphere:
            raise ValueError("positive-orthant scope applies to point measures only")
        if klass != "unconditional":
            raise ValueError("positive-orthant scope requires the unconditional class")
    elif scope == "top-order":
        if nu.order_of() != full:
            raise ValueError("top-order scope requires a measure of full order")
        pairs: list[tuple[SubsetMask, SubsetMask]] = []
        for j in sorted(index_set(full, pair), key=mask_sort_key):
            if sphere and j.size == 0:
                # the empty index collapses to one condition per axis
                pairs.extend((SubsetMask.single(n, i), j) for i in range(1, n + 1))
            else:
                # on a measure of full order, the (J, J) condition on its projection
                pairs.append((j, j))
        return _conclude(nu, pair, _evaluate(nu, pairs))
    elif scope != "full":
        raise ValueError(f"unknown scope {scope!r}")
    report = decide_universal_rn(nu, _whole_space(n, sphere), pair)
    # a named class reports its conditions only
    report.skipped_non_proper = []
    return report


def symmetry_obstruction(nu: AtomicMeasure, pair: GeneratingPair) -> list[tuple[SubsetMask, str]]:
    """Reflections fixing ``nu`` (up to sign) that the pair does not allow.

    A measure that is even or odd under a reflection outside the generated
    symmetry pair cannot be universal on that pair's class, so a nonempty
    result is a fast negative pre-filter.
    """
    if pair.dim != nu.dim:
        raise ValueError(f"dimension mismatch: measure {nu.dim} vs pair {pair.dim}")
    sym = gamma(pair)
    if not sym.proper:
        raise ValueError("obstructions are defined against proper pairs only")
    out: list[tuple[SubsetMask, str]] = []
    for e in all_subsets(nu.dim):
        if nu.is_even_under(e) and e not in sym.evens:
            out.append((e, "even"))
        if nu.is_odd_under(e) and e not in sym.odds:
            out.append((e, "odd"))
    return out
