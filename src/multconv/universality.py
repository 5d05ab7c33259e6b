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
every scope, only lists (E, [J, ...]) groups, testing each candidate J as
an int against the pair's reduced GF(2) basis in the lex order of a
per-dimension table of shared masks.

A decision is a plan, which does not read the measure, and a pass over
the measure.  The plan depends only on the support family and the pair:
the support sets skipped as not proper and, per other E, the bits of its
J's, so it holds ints and the table's shared masks; plans are cached, at
most 64 (an ``lru_cache`` keyed by the family's bit set and the pair).
The top-order scope lists its groups in the same form.  A report keeps
the groups and one outcome byte per condition; it builds
``ConditionRecord`` values only when a caller reads them.

One condition pass evaluates the groups by these class sums, on ints,
giving each J's outcome: each atom is coded once per decision, in the list
of its part (its radicand), by its nonzero and negative coordinate masks,
its absolute coordinates over one common denominator and its int
coefficient; the distinct E are visited by ascending size, and on each E
the atoms nonzero on all of E are grouped per part by their absolute
coordinates there, each class holding the atoms' rows.  By the linear
independence of square roots over the rationals, the sum at a location is
nonzero exactly when one of its radicands' classes is, and the common
weight denominator never enters the zero test.  On the sphere an atom is
read as its stored point mass ``w/|r|`` at the integer ray ``r``, and the
projection onto E gathers it at the primitive ray through its coordinates
there; scaling each class member by the gcd of those coordinates puts
every member at one ray, whose norm never enters the zero test.  A class
of one atom proves every (E, J), and that atom stays alone on every larger
F inside its nonzero pattern, so those F are proved without being grouped.

On a negative decision the counterexample is proved by its factors: it is
either the parity basis measure of J (convolved with the whole measure to
prove annihilation) or that measure times the alternating top-order probe
on E, each built directly as a product in the setting.  The product is
annihilated because the probe's factors have zero mass, which kills every
lower-order atom, and the top-order part is killed by the failing
condition.  That is checked by convolution on the ``2**|E|``-atom parity
factor, independently of the class sums; convolution serves nothing else.
The parity factor and its class check depend only on E, J, the pair and
the setting, so checked factors are cached, at most 64; the convolutions
and the probe run on every decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Literal, Optional

from .measures import _PARITY, AtomicMeasure, Measure, _parity_grid, mconv
from .subsets import (
    GeneratingPair,
    SubsetMask,
    _index_bits,
    _lex_table,
    all_subsets,
    gamma,
    mask_sort_key,
)
from .sphere import SphereMeasure, sconv

MAX_DECIDER_DIM = 8


@dataclass(frozen=True, slots=True)
class ConditionRecord:
    support: SubsetMask
    index: SubsetMask
    satisfied: bool


# an (E, [J, ...]) group: E as the dimension's shared mask, then each J's bits
_Group = tuple[SubsetMask, tuple[int, ...]]


def _flat(groups: tuple[_Group, ...]) -> list[tuple[SubsetMask, int]]:
    """Each condition's E and J bits, in the order of its outcome."""
    return [(e, j) for e, js in groups for j in js]


@dataclass(slots=True)
class UniversalityReport:
    """A decision on the conditions of ``groups``, with one outcome per
    condition in ``outcomes``: byte 1 when it holds, 0 when it fails."""

    dim: int
    groups: tuple[_Group, ...]
    outcomes: bytes
    witness: Optional[AtomicMeasure]
    skipped_non_proper: list[SubsetMask] = field(default_factory=list)

    def __post_init__(self):
        if len(self.outcomes) != sum([len(js) for _, js in self.groups]) or self.outcomes.translate(None, b"\0\1"):
            raise ValueError("decision inconsistent with the condition list")
        if not self.universal and self.witness is None:
            raise ValueError("negative decision without a witness")

    @property
    def universal(self) -> bool:
        return 0 not in self.outcomes

    def _codes(self) -> Iterator[tuple[tuple[SubsetMask, int], int]]:
        """Each condition's E, J bits and outcome, in the report's order."""
        return zip(_flat(self.groups), self.outcomes)

    @property
    def conditions(self) -> list[ConditionRecord]:
        """A fresh record per condition, in the report's order."""
        masks = _lex_table(self.dim)[0]
        return [ConditionRecord(e, masks[j], ok == 1) for (e, j), ok in self._codes()]

    def failing(self) -> list[ConditionRecord]:
        masks = _lex_table(self.dim)[0]
        return [ConditionRecord(e, masks[j], False) for (e, j), ok in self._codes() if not ok]

    def _lists(self, write) -> dict:
        """``write(mask)`` of each distinct E, J and skipped set, keyed by its bits."""
        masks = _lex_table(self.dim)[0]
        bits = {e.bits for e in self.skipped_non_proper}.union(*[(e.bits, *js) for e, js in self.groups])
        return {b: write(masks[b]) for b in bits}

    def to_json(self) -> dict:
        lists = self._lists(SubsetMask.to_json)  # copied per use
        return {
            "universal": self.universal,
            "conditions": [{"E": lists[e.bits][:], "J": lists[j][:], "ok": ok == 1} for (e, j), ok in self._codes()],
            "witness": None if self.witness is None else self.witness.to_json(),
            "skipped": [lists[e.bits][:] for e in self.skipped_non_proper],
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), separators=(",", ":"))``, written as
        text: each distinct mask's list once per report, one string per
        condition, and the witness by its measure's text writer."""
        lists = self._lists(lambda m: "[" + ",".join(map(str, m.indices())) + "]")
        flag = ("false", "true")
        conditions = ",".join([
            f'{{"E":{lists[e.bits]},"J":{lists[j]},"ok":{flag[ok]}}}' for (e, j), ok in self._codes()
        ])
        witness = "null" if self.witness is None else self.witness.to_json_text()
        skipped = ",".join([lists[e.bits] for e in self.skipped_non_proper])
        return (f'{{"universal":{flag[self.universal]},"conditions":[{conditions}],'
                f'"witness":{witness},"skipped":[{skipped}]}}')


def _check_dim(dim: int) -> None:
    if dim > MAX_DECIDER_DIM:
        raise ValueError(
            f"dimension {dim} exceeds the enumeration bound {MAX_DECIDER_DIM}"
        )


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
    return _parity_grid(e, j, _PROBE, 1 << e.size, cls)


@lru_cache(maxsize=64)
def _parity_factor(e: SubsetMask, j: SubsetMask, pair: GeneratingPair, cls: type[AtomicMeasure]) -> AtomicMeasure:
    """The parity basis measure of J on E built in the setting ``cls``,
    checked to lie in the class of ``pair``.  A function of its arguments
    alone, so factors are cached, at most 64; a factor outside the class
    raises and is not cached."""
    parity = _parity_grid(e, j, _PARITY, 1 << e.size, cls)
    if not _in_class(parity, pair, e):
        raise RuntimeError("witness construction left the symmetry class")
    return parity


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
    the parity factor, once per cached factor (``_parity_factor``):
    reflections act on one factor of a product.  Both factors are grids of
    integer vectors built in the setting of ``nu`` by one builder, so the
    witness is a function of E, J, its factor and the setting alone.
    """
    conv = sconv if isinstance(nu, SphereMeasure) else mconv
    parity = _parity_factor(e, j, pair, type(nu))
    if not conv(nu, parity):
        return parity
    if conv(nu.project(e).restrict_order(e), parity):
        raise RuntimeError("witness construction failed to annihilate")
    witness = _probe_product(e, j, type(nu))
    if not witness:
        raise RuntimeError("witness construction produced the zero measure")
    if witness.component_patterns() != frozenset({e}):
        raise RuntimeError("witness construction left the symmetry class")
    return witness


def _conclude(
    nu: AtomicMeasure, pair: GeneratingPair, groups: tuple[_Group, ...], outcomes: bytes, skipped=()
) -> UniversalityReport:
    """The report on the groups' outcomes, with a witness for the first failure."""
    fail = outcomes.find(0)
    witness = None
    if fail >= 0:
        e, j = _flat(groups)[fail]
        witness = _witness(nu, pair, e, _lex_table(pair.dim)[0][j])
    return UniversalityReport(pair.dim, groups, outcomes, witness, list(skipped))


# an atom once per decision, in the list of its part: nonzero mask, negative
# mask, absolute coordinates as integers, coefficient
_Row = tuple[int, int, tuple[int, ...], int]
# the members of a class: the rows of its atoms
_Class = list[_Row]


def _code(nu: AtomicMeasure) -> list[list[_Row]]:
    """Encode every atom of ``nu`` once per part that holds it, one list per part.

    Atoms are read as stored, at integer vectors over one common
    denominator: a point atom at its stored key, scaled by the measure's
    least common denominator, and a sphere atom as its stored point mass
    ``w/|r|`` at the integer ray ``r``, with no root.  So absolute
    coordinates are integers, equal exactly when the locations' are.
    """
    code = []
    for part in nu._parts.values():
        rows: list[_Row] = []
        for loc, c in part.items():
            nonzero = negative = 0
            for i, x in enumerate(loc):
                if x:
                    nonzero |= 1 << i
                    if x < 0:
                        negative |= 1 << i
            rows.append((nonzero, negative, tuple([abs(x) for x in loc]), c))
        code.append(rows)
    return code


@lru_cache(maxsize=1 << MAX_DECIDER_DIM)
def _key_reader(bits: int) -> itemgetter:
    """The reader of a location's coordinates on the set ``bits``, as a
    tuple; a slice keeps the key of one coordinate, or none, a tuple."""
    on_e = [i for i in range(bits.bit_length()) if bits >> i & 1]
    if len(on_e) > 1:
        return itemgetter(*on_e)
    return itemgetter(slice(on_e[0], on_e[0] + 1) if on_e else slice(0))


def _classes(code: list[list[_Row]], bits: int, sphere: bool) -> list[_Class]:
    """The top-order part of the projection onto the set ``bits``, grouped.

    Atoms of one part nonzero on all of the set sharing their absolute
    coordinates there form a class, whose members are their rows.  On the
    sphere the key is divided by its gcd g: the member's projected vector
    is g times the class's primitive ray, so its mass there is g times its
    own, as in the sphere's ``_gather``, and the member is its row with the
    coefficient times g.
    """
    read = _key_reader(bits)
    out: list[_Class] = []
    for rows in code:
        classes: dict[tuple[int, ...], _Class] = {}
        for row in rows:
            if row[0] & bits != bits:
                continue  # a lower-order atom of the projection
            key = read(row[2])
            if sphere:
                g = math.gcd(*key)
                if g != 1:
                    key = tuple([v // g for v in key])
                    row = (row[0], row[1], row[2], row[3] * g)
            classes.setdefault(key, []).append(row)
        out += classes.values()
    return out


def _satisfied(classes: list[_Class], j: int) -> bool:
    """Whether the parity basis measure of the index mask ``j`` leaves the
    grouped base nonzero: some class has a nonzero sum of coefficients
    signed by the parity of their negative coordinates inside ``j``."""
    for members in classes:
        total = 0
        for _, negative, _, c in members:
            total += -c if (negative & j).bit_count() & 1 else c
        if total:
            return True
    return False


def _evaluate(nu: AtomicMeasure, groups: tuple[_Group, ...]) -> bytes:
    """One outcome byte per J of each group, by the class sums: the one condition pass.

    The distinct E are grouped once at most, by ascending size.  A class of
    one atom has a nonzero sum under every J, so it proves every (E, J).
    That atom also stays alone on every F between E and its nonzero
    pattern: the atoms nonzero on F are among those nonzero on E, and a key
    on F refines the key on E (equal primitive rays on F restrict to equal
    rays on E).  So those F hold too and are not grouped.
    """
    sphere = isinstance(nu, SphereMeasure)
    code = _code(nu)
    held: set[int] = set()
    groupings: dict[int, list[_Class]] = {}
    for bits in sorted({e.bits for e, _ in groups}, key=int.bit_count):
        if bits in held:
            continue
        classes = _classes(code, bits, sphere)
        lone = {members[0][0] for members in classes if len(members) == 1}
        if not lone:
            groupings[bits] = classes
        for pattern in lone:
            # every strict superset of E inside the pattern, by its submasks
            free = sub = pattern & ~bits
            while sub:
                held.add(bits | sub)
                sub = (sub - 1) & free
    outcomes: list[bytes] = []
    for e, js in groups:
        classes = groupings.get(e.bits)
        if classes is None:
            outcomes.append(b"\1" * len(js))
        else:
            outcomes.append(bytes([_satisfied(classes, j) for j in js]))
    return b"".join(outcomes)


def _whole_space(dim: int, sphere: bool) -> list[SubsetMask]:
    """Every zero pattern of a setting, as the dimension's shared masks;
    the sphere misses the origin cell."""
    masks = _lex_table(dim)[0]
    return list(masks[1:] if sphere else masks)


def _refuse_other_dims(support, n: int) -> None:
    bad = sorted({e for e in support if e.dim != n}, key=lambda m: (-m.size, mask_sort_key(m)))
    if bad:
        raise ValueError(f"support set {bad[0]} has dimension {bad[0].dim}, expected {n}")


def _index_sets(support, pair: GeneratingPair) -> list[tuple[SubsetMask, list[SubsetMask]]]:
    """Each support set, by descending size then lex rank, with its index set.

    The index set of (E, pair) is the members of the whole space's index set
    inside E, so one is tested in all, on ints in the lex order of the
    dimension's table (``subsets._lex_table``), whose masks the reports take.
    """
    n = pair.dim
    _refuse_other_dims(support, n)
    masks, order, rank = _lex_table(n)
    whole = _index_bits(pair, order)
    ordered = sorted({e.bits for e in support}, key=lambda e: (-e.bit_count(), rank[e]))
    return [(masks[e], [masks[j] for j in whole if not j & ~e]) for e in ordered]


@lru_cache(maxsize=64)
def _plan(family: int, pair: GeneratingPair) -> tuple[tuple[SubsetMask, ...], tuple[_Group, ...]]:
    """What a decision over a support family and a pair needs before it
    reads the measure: the support sets skipped as not proper, and the
    groups of the others.  The family has bit ``E.bits`` set per member."""
    masks = _lex_table(pair.dim)[0]
    groups = _index_sets([m for m in masks if family >> m.bits & 1], pair)
    return (
        tuple([e for e, js in groups if not js]),
        tuple([(e, tuple([j.bits for j in js])) for e, js in groups if js]),
    )


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
    if isinstance(nu, SphereMeasure) and any(not e.bits for e in support):
        raise ValueError("the empty pattern cannot appear in a spherical support family")
    n = nu.dim
    _check_dim(n)
    if pair.dim != n:
        raise ValueError(f"dimension mismatch: measure {n} vs pair {pair.dim}")
    family = 0
    for e in support:
        if e.dim != n:
            _refuse_other_dims(support, n)
        family |= 1 << e.bits
    skipped, groups = _plan(family, pair)
    return _conclude(nu, pair, groups, _evaluate(nu, groups), skipped)


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


@lru_cache(maxsize=4 * MAX_DECIDER_DIM)
def _class_pair(name: SymmetryClass, dim: int) -> GeneratingPair:
    return _CLASS_PAIRS[name](dim)


def class_pair(name: SymmetryClass, dim: int) -> GeneratingPair:
    """The generating pair cutting out a named symmetry class, one shared
    instance per class and dimension."""
    if name not in _CLASS_PAIRS:
        raise ValueError(f"unknown symmetry class {name!r}")
    return _class_pair(name, dim)


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
        masks, order, _ = _lex_table(n)
        top: list[_Group] = []
        for j in _index_bits(pair, order):
            if sphere and not j:
                # the empty index collapses to one condition per axis
                top.extend((masks[1 << i], (j,)) for i in range(n))
            else:
                # on a measure of full order, the (J, J) condition on its projection
                top.append((masks[j], (j,)))
        groups = tuple(top)
        return _conclude(nu, pair, groups, _evaluate(nu, groups))
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
