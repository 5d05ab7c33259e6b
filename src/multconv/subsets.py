"""Subsets of {1,..,n} as bit masks.

The family of subsets forms a Boolean group under symmetric difference.
This module carries that group, generating/symmetry pairs of reflection
sets with their closure map (the span of one GF(2) basis), the parity
index families that drive the universality deciders, the dimension-raising
helpers used by lifting, and the ``dim`` check shared by the JSON loaders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

MAX_DIM = 63
# the most independent generators a closed group may have: it lists 2**rank members
MAX_GROUP_RANK = 16


@dataclass(frozen=True, slots=True)
class SubsetMask:
    """A subset of {1,..,dim} stored in the low ``dim`` bits."""

    bits: int
    dim: int

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bits {self.bits:#x} outside dimension {self.dim}")

    @classmethod
    def empty(cls, dim: int) -> "SubsetMask":
        return cls(0, dim)

    @classmethod
    def full(cls, dim: int) -> "SubsetMask":
        return cls((1 << dim) - 1, dim)

    @classmethod
    def single(cls, dim: int, index: int) -> "SubsetMask":
        if not 1 <= index <= dim:
            raise ValueError(f"index {index} outside 1..{dim}")
        return cls(1 << (index - 1), dim)

    @classmethod
    def from_indices(cls, dim: int, indices: Iterable[int]) -> "SubsetMask":
        bits = 0
        for i in indices:
            # int() would truncate 1.9 and parse "2"; a bool is an int to Python
            if not isinstance(i, int) or isinstance(i, bool):
                raise ValueError(f"index must be an integer, got {i!r}")
            if not 1 <= i <= dim:
                raise ValueError(f"index {i} outside 1..{dim}")
            bits |= 1 << (i - 1)
        return cls(bits, dim)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.dim) if self.bits >> i & 1)

    def issubset(self, other: "SubsetMask") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def _check(self, other: "SubsetMask") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __xor__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.bits ^ other.bits, self.dim)

    def __and__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.bits & other.bits, self.dim)

    def __or__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.bits | other.bits, self.dim)

    def to_json(self) -> list[int]:
        return list(self.indices())

    @classmethod
    def from_json(cls, dim: int, data: Iterable[int]) -> "SubsetMask":
        return cls.from_indices(dim, data)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.indices())) + "}"


def json_dim(data: dict) -> int:
    """The ``dim`` field of a JSON payload; only a true integer is accepted."""
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"field 'dim' must be an integer, got {dim!r}")
    return dim


def all_subsets(dim: int) -> Iterator[SubsetMask]:
    for bits in range(1 << dim):
        yield SubsetMask(bits, dim)


def _sub_bits(bits: int) -> Iterator[int]:
    """All submasks of ``bits`` in increasing order."""
    sub = 0
    while True:
        yield sub
        if sub == bits:
            return
        sub = (sub - bits) & bits


def subsets_of(mask: SubsetMask) -> Iterator[SubsetMask]:
    """All subsets of ``mask`` in increasing bit order."""
    return (SubsetMask(sub, mask.dim) for sub in _sub_bits(mask.bits))


def mask_sort_key(mask: SubsetMask):
    return mask.indices()


@cache
def _lex_table(dim: int) -> tuple[tuple[SubsetMask, ...], tuple[int, ...], tuple[int, ...]]:
    """One shared mask per bits of {1,..,dim}, the bits in ``mask_sort_key``
    order and their ranks in it; kept per dimension, so callers bound ``dim``."""
    masks = tuple(all_subsets(dim))
    order = tuple(sorted(range(1 << dim), key=lambda bits: mask_sort_key(masks[bits])))
    return masks, order, tuple(sorted(range(1 << dim), key=order.__getitem__))


def _coerce_family(dim: int, members: Iterable[SubsetMask]) -> frozenset[SubsetMask]:
    fam = frozenset(members)
    for m in fam:
        if m.dim != dim:
            raise ValueError(f"member {m} has dimension {m.dim}, expected {dim}")
    return fam


@dataclass(frozen=True, slots=True)
class GeneratingPair:
    """Prescribed even and odd reflection sets (not necessarily closed)."""

    evens: frozenset[SubsetMask]
    odds: frozenset[SubsetMask]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "evens", _coerce_family(self.dim, self.evens))
        object.__setattr__(self, "odds", _coerce_family(self.dim, self.odds))

    @classmethod
    def make(cls, dim: int, evens: Iterable[SubsetMask] = (), odds: Iterable[SubsetMask] = ()) -> "GeneratingPair":
        return cls(frozenset(evens), frozenset(odds), dim)

    def to_json(self) -> dict:
        return {
            "evens": [m.to_json() for m in sorted(self.evens, key=mask_sort_key)],
            "odds": [m.to_json() for m in sorted(self.odds, key=mask_sort_key)],
            "dim": self.dim,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GeneratingPair":
        dim = json_dim(data)
        evens = [SubsetMask.from_json(dim, e) for e in data.get("evens", [])]
        odds = [SubsetMask.from_json(dim, o) for o in data.get("odds", [])]
        return cls.make(dim, evens, odds)


@dataclass(frozen=True, slots=True)
class SymmetryPair:
    """Even and odd parts of the reflection group generated by a pair.

    ``evens`` is a subgroup containing the empty set; the odd part is empty
    or one coset of it; ``proper`` records whether the two parts are
    disjoint (exactly the pairs admitting nonzero invariant measures).
    """

    evens: frozenset[SubsetMask]
    odds: frozenset[SubsetMask]
    proper: bool
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "evens", _coerce_family(self.dim, self.evens))
        object.__setattr__(self, "odds", _coerce_family(self.dim, self.odds))
        if SubsetMask.empty(self.dim) not in self.evens:
            raise ValueError("even part must contain the empty set")
        if not is_group(self.evens):
            raise ValueError("even part is not a subgroup")
        # the odd part is empty or one coset of the even part
        some_odd = next(iter(self.odds), None)
        if some_odd is not None and self.odds != {some_odd ^ a for a in self.evens}:
            raise ValueError("odd part is not a coset of the even part")
        if self.proper != self.evens.isdisjoint(self.odds):
            raise ValueError("proper flag inconsistent with the parts")

    @property
    def group(self) -> frozenset[SubsetMask]:
        return self.evens | self.odds

    def as_generating_pair(self) -> GeneratingPair:
        return GeneratingPair(self.evens, self.odds, self.dim)


def _basis(bits: Iterable[int]) -> list[int]:
    """A GF(2) basis of the span: each member reduced by the earlier ones,
    so their leading bits are distinct and the length is the rank."""
    basis: list[int] = []
    for v in bits:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return basis


def _span(basis: list[int]) -> list[int]:
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    return span


def _reduce_pair(pair: GeneratingPair) -> tuple[list[int], int | None, bool]:
    """A GF(2) basis of the even part, the smallest odd generator ``o0``
    (None without odd generators), and whether the pair is proper.

    A product is even when it uses an even number of odd generators, so
    the even part is spanned by the even generators and the sums ``o ^ o0``
    of the odd ones with ``o0``, and the odd part is ``o0 ^`` that span.
    The pair is proper exactly when ``o0`` raises the rank.
    """
    odds = sorted(f.bits for f in pair.odds)
    basis = _basis(sorted(f.bits for f in pair.evens) + [o ^ odds[0] for o in odds[1:]])
    if not odds:
        return basis, None, True
    return basis, odds[0], len(_basis(basis + odds[:1])) > len(basis)


def gamma(pair: GeneratingPair) -> SymmetryPair:
    """Close a generating pair into the symmetry pair it generates."""
    n = pair.dim
    basis, odd, proper = _reduce_pair(pair)
    if len(basis) > MAX_GROUP_RANK:
        raise ValueError(f"group rank {len(basis)} exceeds the enumeration bound {MAX_GROUP_RANK}")
    span = _span(basis)
    evens = frozenset(SubsetMask(v, n) for v in span)
    odd_part = frozenset() if odd is None else frozenset(SubsetMask(odd ^ v, n) for v in span)
    return SymmetryPair(evens, odd_part, proper, n)


def restrict_pair(pair: GeneratingPair, e: SubsetMask) -> GeneratingPair:
    """Intersect every member with ``e``."""
    return GeneratingPair(
        frozenset(f & e for f in pair.evens),
        frozenset(f & e for f in pair.odds),
        pair.dim,
    )


def index_set(e: SubsetMask, pair: GeneratingPair) -> frozenset[SubsetMask]:
    """Subsets J of ``e`` meeting every even member evenly and every odd member oddly.

    Empty exactly when the pair restricted to ``e`` is not proper.  The
    candidates are tested as ints (``_index_bits``).
    """
    if e.dim != pair.dim:
        raise ValueError(f"dimension mismatch: {e.dim} vs {pair.dim}")
    return frozenset(SubsetMask(j, e.dim) for j in _index_bits(pair, _sub_bits(e.bits)))


def _index_bits(pair: GeneratingPair, candidates: Iterable[int]) -> list[int]:
    """The candidates J, in order, meeting the even members of ``pair`` evenly
    and the odd ones oddly: by linearity, the even part's reduced basis evenly
    and ``o0`` oddly (``_reduce_pair``), one ``bit_count`` per basis vector.
    A pair that is not proper has ``o0`` in that span: no candidate passes."""
    basis, odd, _ = _reduce_pair(pair)
    tests = [(b, 0) for b in basis] + ([] if odd is None else [(odd, 1)])
    return [j for j in candidates if all((j & v).bit_count() & 1 == p for v, p in tests)]


def is_group(masks: Iterable[SubsetMask]) -> bool:
    fam = set(masks)
    if not fam:
        return False
    dims = {m.dim for m in fam}
    if len(dims) != 1:
        return False
    if SubsetMask.empty(dims.pop()) not in fam:
        return False
    # the members lie in their span, so they fill it exactly when they are as many
    return 1 << len(_basis(m.bits for m in fam)) == len(fam)


def j_dual(group: Iterable[SubsetMask]) -> frozenset[SubsetMask]:
    """Subsets meeting every group member evenly; an involution on subgroups."""
    fam = frozenset(group)
    if not is_group(fam):
        raise ValueError("input is not a subgroup under symmetric difference")
    dim = next(iter(fam)).dim
    full = SubsetMask.full(dim)
    return index_set(full, GeneratingPair(fam, frozenset(), dim))


# -- dimension-raising helpers (new coordinate in the lowest bit) -----------


def lift_mask(mask: SubsetMask) -> SubsetMask:
    """The same subset viewed inside dimension ``dim + 1``."""
    return SubsetMask(mask.bits << 1, mask.dim + 1)


def lift_set(mask: SubsetMask) -> SubsetMask:
    """Adjoin the new coordinate: E maps to {0} union E."""
    return SubsetMask(mask.bits << 1 | 1, mask.dim + 1)


def lift_pair(pair: GeneratingPair) -> GeneratingPair:
    """Lifted generating pair: evens gain the full lifted index set."""
    evens = {lift_mask(f) for f in pair.evens}
    evens.add(SubsetMask.full(pair.dim + 1))
    odds = {lift_mask(f) for f in pair.odds}
    return GeneratingPair(frozenset(evens), frozenset(odds), pair.dim + 1)


def lift_family(family: Iterable[SubsetMask], e: SubsetMask) -> frozenset[SubsetMask]:
    """Spread a family inside P(E) over P({0} union E): F and F delta E_L."""
    el = lift_set(e)
    out = set()
    for f in family:
        if not f.issubset(e):
            raise ValueError(f"family member {f} is not a subset of {e}")
        lf = lift_mask(f)
        out.add(lf)
        out.add(lf ^ el)
    return frozenset(out)
