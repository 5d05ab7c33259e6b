"""Exact universality deciders with verified witnesses.

A measure is universal on a class when convolving with it annihilates no
nonzero member of the class.  For classes cut out by a support family of
zero patterns and a reflection symmetry pair, universality is equivalent
to a finite list of non-vanishing conditions indexed by pairs (E, J):
the parity basis measure of J must not annihilate the top-order part of
the projection onto E.  That product is nonzero exactly when some class
of base atoms sharing one absolute location has a nonzero sum of weights
signed by the parity character of J; on the sphere the norm factors are
the constant ``1/sqrt|E|``, so the same test applies.  Deciders below
evaluate every condition by these class sums, exactly, and, on a negative
decision, construct a counterexample measure by convolution that is
verified at construction: nonzero, inside the class, annihilated.
Convolutions serve only the witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from .measures import (
    AtomicMeasure,
    Measure,
    delta_ej,
    mconv,
    msym,
    sigma0_on,
)
from .scalars import Surd
from .subsets import (
    GeneratingPair,
    SubsetMask,
    all_subsets,
    gamma,
    index_set,
    mask_sort_key,
    subsets_of,
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


def _witness(
    nu: AtomicMeasure, pair: GeneratingPair, e: SubsetMask, j: SubsetMask
) -> AtomicMeasure:
    """Counterexample for a failing (E, J) condition.

    The parity basis measure alone annihilates when the lower-order parts
    of the projection cooperate; otherwise convolving it with the
    alternating top-order probe on E removes their contribution.  On the
    sphere the probe is pushed forward radially.
    """
    conv = sconv if isinstance(nu, SphereMeasure) else mconv
    candidate = delta_ej(e, j)
    if conv(nu, candidate):
        candidate = mconv(candidate, sigma0_on(e))
    if isinstance(nu, SphereMeasure):
        candidate = radial_project(candidate)
    if not candidate:
        raise RuntimeError("witness construction produced the zero measure")
    if not _in_class(candidate, pair, e):
        raise RuntimeError("witness construction left the symmetry class")
    if conv(nu, candidate):
        raise RuntimeError("witness construction failed to annihilate")
    return candidate


def _conclude(
    nu: AtomicMeasure, pair: GeneratingPair, conditions: list[ConditionRecord], skipped=()
) -> UniversalityReport:
    """The report on a condition list, with a witness for its first failure."""
    fail = next((c for c in conditions if not c.satisfied), None)
    witness = None if fail is None else _witness(nu, pair, fail.support, fail.index)
    return UniversalityReport(fail is None, conditions, witness, list(skipped))


def _sign_classes(nu: AtomicMeasure, e: SubsetMask) -> list[list[tuple[int, Surd]]]:
    """The top-order part of the projection of ``nu`` onto ``e``, grouped.

    Atoms sharing one absolute location form a class; each member keeps the
    bit mask of its negative coordinates and its weight.
    """
    coords = [i for i in range(e.dim) if e.bits >> i & 1]
    classes: dict[tuple, list[tuple[int, Surd]]] = {}
    for loc, w in nu.project(e).atoms.items():
        bits = 0
        for i in coords:
            c = loc[i]
            if not c:
                break  # a lower-order atom
            if c < 0:
                bits |= 1 << i
        else:
            classes.setdefault(tuple(abs(c) for c in loc), []).append((bits, w))
    return list(classes.values())


def _satisfied(classes: list[list[tuple[int, Surd]]], j: SubsetMask) -> bool:
    """Whether the parity basis measure of ``j`` leaves the grouped base
    nonzero: some class has a nonzero sum of weights signed by the parity
    of their negative coordinates inside ``j``."""
    for members in classes:
        total = Surd(0)
        for bits, w in members:
            total = total - w if (bits & j.bits).bit_count() & 1 else total + w
        if total:
            return True
    return False


def _decide(nu: AtomicMeasure, support, pair: GeneratingPair) -> UniversalityReport:
    """The (E, J) condition loop of every full-space decision."""
    _check_dim(nu.dim)
    if pair.dim != nu.dim:
        raise ValueError(f"dimension mismatch: measure {nu.dim} vs pair {pair.dim}")
    conditions: list[ConditionRecord] = []
    skipped: list[SubsetMask] = []
    for e in _ordered_support(support):
        if e.dim != nu.dim:
            raise ValueError(f"support set {e} has dimension {e.dim}, expected {nu.dim}")
        indices = index_set(e, pair)
        if not indices:
            skipped.append(e)
            continue
        classes = _sign_classes(nu, e)
        for j in sorted(indices, key=mask_sort_key):
            conditions.append(ConditionRecord(e, j, _satisfied(classes, j)))
    return _conclude(nu, pair, conditions, skipped)


def decide_universal_rn(nu: Measure, support, pair: GeneratingPair) -> UniversalityReport:
    """Decide universality of ``nu`` on the class over ``support`` with ``pair``.

    Support sets whose restricted pair is not proper contribute nothing to
    the class and are recorded as skipped.  Conditions are listed with the
    support sets by descending size, index sets lexicographically.
    """
    return _decide(nu, support, pair)


def decide_universal_sphere(
    nu: SphereMeasure, support, pair: GeneratingPair
) -> UniversalityReport:
    """Spherical counterpart of :func:`decide_universal_rn`.

    The support family must avoid the empty set; the sphere misses the
    origin cell entirely.
    """
    support = list(support)
    if any(e.size == 0 for e in support):
        raise ValueError("the empty pattern cannot appear in a spherical support family")
    return _decide(nu, support, pair)


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


def _parity_indices(name: SymmetryClass, e: SubsetMask) -> list[SubsetMask]:
    if name == "unconditional":
        return [SubsetMask.empty(e.dim)]
    out = []
    for j in subsets_of(e):
        if name == "symmetric" and j.size % 2:
            continue
        if name == "antisymmetric" and j.size % 2 == 0:
            continue
        out.append(j)
    return sorted(out, key=mask_sort_key)


def decide_special(
    nu: AtomicMeasure, klass: SymmetryClass, scope: Scope = "full"
) -> UniversalityReport:
    """Decide universality on a named symmetry class.

    ``scope="full"`` decides on the whole space (sphere: all nonempty
    patterns) with the general condition loop.  ``scope="top-order"`` uses
    the simplified condition list available when ``nu`` itself has full
    order, still deciding on the whole space; other inputs are rejected.
    ``scope="positive-orthant"`` (point measures, unconditional class only)
    reports the sufficient condition transferred from the unconditional
    class.

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
        return decide_special(nu, "unconditional", "full")

    if scope == "top-order":
        if nu.order_of() != full:
            raise ValueError("top-order scope requires a measure of full order")
        conditions: list[ConditionRecord] = []
        for j in _parity_indices(klass, full):
            if sphere and j.size == 0:
                # the empty index collapses to one condition per axis
                for i in range(1, n + 1):
                    axis = SubsetMask.single(n, i)
                    ok = bool(msym(nu.project(axis)))
                    conditions.append(ConditionRecord(axis, SubsetMask.empty(n), ok))
                continue
            # on a measure of full order, the (J, J) condition on its projection
            conditions.append(ConditionRecord(j, j, _satisfied(_sign_classes(nu, j), j)))
        return _conclude(nu, pair, conditions)

    if scope != "full":
        raise ValueError(f"unknown scope {scope!r}")
    report = _decide(nu, [e for e in all_subsets(n) if e.size or not sphere], pair)
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
