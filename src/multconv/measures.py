"""Finitely-atomic signed measures on R^n with exact surd weights.

The binary operation throughout is componentwise multiplicative
convolution, which makes these measures a commutative algebra with the
Dirac mass at the all-ones vector as unit.  The module also carries the
coordinate decomposition by zero patterns, multiple reflections and the
symmetrisation operators they induce, the signed atomic basis measures of
the symmetry decomposition, and the alternating projection sum used as a
top-order criterion.  The parity basis measures, the alternating top-order
probe and their product are signed grids, all built by one product
builder, ``_parity_grid``.  Every pushforward goes through a setting's two
hooks, ``masses`` and ``_gather``; the product kernel ``_products`` under
``mconv`` and the sphere product codes each coordinate's values by integer
ids (``_ids``); each symmetrisation factor ``(I +- T_F)/2`` is one pass.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Union

from .points import Point, make_point, reflect_point, zero_pattern
from .scalars import HALF, Surd, SurdLike, as_surd
from .subsets import (
    GeneratingPair,
    SubsetMask,
    _reduce_pair,
    all_subsets,
    json_dim,
    mask_sort_key,
)

if TYPE_CHECKING:  # typing.Self is new in Python 3.11
    from typing import Self

ScalarLike = Union[int, Fraction, Surd]


class AtomicMeasure:
    """Signed measure with finitely many atoms at exact locations.

    The shared core of point and sphere measures.  A subclass fixes the
    location type through class attributes: ``_key`` normalises a location
    (and checks it), ``_loc_field`` names it in JSON, ``_zero`` is its zero
    coordinate; and its pushforward through two hooks: ``masses`` lists the
    atoms as point masses, the trusted ``_gather`` sums point masses per
    location.  Locations are tuples of exact numbers, so coordinate-wise
    operators act on both kinds alike.

    The public constructor normalises every location, checks its
    dimension and merges repeats; it is the entry for user input.  Atoms
    the library built itself, already normalised, merged and of the right
    dimension, go through the trusted constructor ``_of`` instead.
    """

    __slots__ = ("dim", "_atoms")
    _key: Callable[[Iterable], tuple]
    _loc_field: str
    _zero: Union[Fraction, int]

    def __init__(self, dim: int, atoms: Mapping[tuple, SurdLike] | Iterable[tuple[tuple, SurdLike]] = ()):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        items = atoms.items() if isinstance(atoms, Mapping) else atoms
        key = self._key
        acc: dict[tuple, Surd] = {}
        for loc, w in items:
            loc = key(loc)
            if len(loc) != dim:
                raise ValueError(
                    f"{self._loc_field} {loc} has dimension {len(loc)}, expected {dim}"
                )
            if not isinstance(w, Surd):
                w = Surd(w)  # refuses float, bool and None weights
            prev = acc.get(loc)
            acc[loc] = w if prev is None else prev + w
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_atoms", {loc: w for loc, w in acc.items() if w})

    @classmethod
    def _of(cls, dim: int, acc: dict[tuple, Surd]) -> Self:
        """Trusted constructor: take ownership of ``acc``, drop its zero weights.

        Every key must already be a normalised location of dimension
        ``dim`` and every value a :class:`Surd`; nothing is re-keyed.
        """
        for loc in [loc for loc, w in acc.items() if not w]:
            del acc[loc]
        out = cls.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "_atoms", acc)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, dim: int) -> Self:
        return cls(dim)

    # -- structure ---------------------------------------------------------

    @property
    def atoms(self) -> Mapping[tuple, Surd]:
        return MappingProxyType(self._atoms)

    def support(self) -> tuple[tuple, ...]:
        return tuple(sorted(self._atoms))

    def weight_at(self, loc: Iterable) -> Surd:
        return self._atoms.get(self._key(loc), Surd(0))

    def atom_count(self) -> int:
        return len(self._atoms)

    def is_zero(self) -> bool:
        return not self._atoms

    def __bool__(self) -> bool:
        return bool(self._atoms)

    def __eq__(self, other) -> bool:
        # exact types: a point measure never equals a sphere measure
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self._atoms == other._atoms

    def __hash__(self):
        return hash((self.dim, frozenset(self._atoms.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, atoms={len(self._atoms)})"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: Self) -> Self:
        self._check(other)
        acc = dict(self._atoms)
        for loc, w in other._atoms.items():
            prev = acc.get(loc)
            acc[loc] = w if prev is None else prev + w
        return self._of(self.dim, acc)

    def __sub__(self, other: Self) -> Self:
        return self + (-other)

    def __neg__(self) -> Self:
        return self._of(self.dim, {loc: -w for loc, w in self._atoms.items()})

    def __mul__(self, scalar: ScalarLike) -> Self:
        c = as_surd(scalar)
        if c is NotImplemented:
            return NotImplemented
        return self._of(self.dim, {loc: w * c for loc, w in self._atoms.items()})

    __rmul__ = __mul__

    def _check(self, other: "AtomicMeasure") -> None:
        # a ray read as a point (or back) is a different measure
        if type(other) is not type(self):
            raise ValueError(
                f"setting mismatch: {type(self).__name__} vs {type(other).__name__}"
            )
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _check_mask(self, mask: SubsetMask) -> None:
        if mask.dim != self.dim:
            raise ValueError(f"dimension mismatch: measure {self.dim} vs mask {mask.dim}")

    # -- mass and Jordan decomposition ----------------------------------------

    def total_mass(self) -> Surd:
        total = Surd(0)
        for w in self._atoms.values():
            total = total + w
        return total

    def jordan(self) -> tuple[Self, Self]:
        """Split into non-negative parts with disjoint supports."""
        pos: dict[tuple, Surd] = {}
        neg: dict[tuple, Surd] = {}
        for loc, w in self._atoms.items():
            if w.sign() > 0:
                pos[loc] = w
            else:
                neg[loc] = -w
        return self._of(self.dim, pos), self._of(self.dim, neg)

    def tv_norm(self) -> Surd:
        total = Surd(0)
        for w in self._atoms.values():
            total = total + abs(w)
        return total

    # -- reflections, projections and restrictions ------------------------------

    def project(self, e: SubsetMask) -> Self:
        """Marginal on the coordinate subspace (or subsphere) of ``e``: each
        mass moves to its location with the coordinates off ``e`` zeroed."""
        self._check_mask(e)
        zero, keep = self._zero, [e.bits >> i & 1 for i in range(self.dim)]
        moved = ((tuple([c if k else zero for c, k in zip(loc, keep)]), m) for loc, m in self.masses())
        return self._gather(self.dim, moved)

    def reflect(self, f: SubsetMask) -> Self:
        self._check_mask(f)
        # a bijection on locations: no two atoms merge
        return self._of(self.dim, {reflect_point(loc, f): w for loc, w in self._atoms.items()})

    def restrict_order(self, e: SubsetMask) -> Self:
        """Keep the atoms whose zero pattern is exactly ``e``."""
        self._check_mask(e)
        return self._of(
            self.dim,
            {loc: w for loc, w in self._atoms.items() if zero_pattern(loc) == e},
        )

    def sign_density(self, j: SubsetMask) -> Self:
        """Multiply weights by the product of coordinate signs over ``j``.

        Atoms vanishing on some coordinate of ``j`` pick up sign 0 and drop.
        A ray and its unit vector share signs, so this is exact on the sphere.
        """
        self._check_mask(j)
        acc: dict[tuple, Surd] = {}
        for loc, w in self._atoms.items():
            s = 1
            for i in range(self.dim):
                if j.bits >> i & 1:
                    c = loc[i]
                    if c == 0:
                        s = 0
                        break
                    if c < 0:
                        s = -s
            if s == 1:
                acc[loc] = w
            elif s == -1:
                acc[loc] = -w
        return self._of(self.dim, acc)

    # -- coordinate decomposition ----------------------------------------------

    def component_patterns(self) -> frozenset[SubsetMask]:
        """Zero patterns carrying mass (the nonzero coordinate components)."""
        return frozenset(zero_pattern(loc) for loc in self._atoms)

    def order_of(self) -> SubsetMask | None:
        """The unique pattern when exactly one component is nonzero."""
        patterns = self.component_patterns()
        if len(patterns) == 1:
            return next(iter(patterns))
        return None

    def degree(self) -> int:
        """Largest component size; -1 for the zero measure."""
        patterns = self.component_patterns()
        if not patterns:
            return -1
        return max(p.size for p in patterns)

    # -- symmetry tests ----------------------------------------------------------

    def is_even_under(self, f: SubsetMask) -> bool:
        return self.reflect(f) == self

    def is_odd_under(self, f: SubsetMask) -> bool:
        return self.reflect(f) == -self

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {self._loc_field: [str(c) for c in loc], "weight": w.to_json()}
                for loc, w in sorted(self._atoms.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> Self:
        # locations pass through ``_key``, which refuses float entries
        atoms = [
            (entry[cls._loc_field], Surd.from_json(entry["weight"]))
            for entry in data.get("atoms", [])
        ]
        return cls(json_dim(data), atoms)


class Measure(AtomicMeasure):
    """Signed measure with finitely many atoms at rational points."""

    __slots__ = ()
    _key = staticmethod(make_point)
    _loc_field = "point"
    _zero = Fraction(0)

    @classmethod
    def dirac(cls, point: Iterable, weight: SurdLike = 1) -> "Measure":
        pt = make_point(point)
        return cls(len(pt), {pt: weight})

    def masses(self) -> Iterable[tuple[Point, Surd]]:
        """The atoms as they are."""
        return self._atoms.items()

    @classmethod
    def _gather(cls, dim: int, masses: Iterable[tuple[Point, Surd]]) -> "Measure":
        """Sum point masses per point (normalised, of dimension ``dim``)."""
        acc: dict[Point, Surd] = {}
        for loc, m in masses:
            size = len(acc)
            prev = acc.setdefault(loc, m)
            if len(acc) == size:  # a merge; atoms may share one Surd object
                acc[loc] = prev + m
        return cls._of(dim, acc)

    def restrict_positive(self) -> "Measure":
        """Keep the atoms in the closed positive orthant."""
        return Measure._of(
            self.dim,
            {pt: w for pt, w in self._atoms.items() if all(c >= 0 for c in pt)},
        )


# -- multiplicative convolution and products --------------------------------------


def _check_points(*measures: AtomicMeasure) -> None:
    # these results are built by ``Measure._of``, which trusts its keys to be
    # points; a ray read as a point would break that (``sconv`` is the sphere
    # product)
    for mu in measures:
        if not isinstance(mu, Measure):
            raise ValueError(f"expected a point measure, got {type(mu).__name__}")


def _ids(ids: list[dict], loc: Iterable) -> tuple[int, ...]:
    """``loc`` coded by one value-id dict per coordinate; new values take the next id."""
    return tuple([d.setdefault(c, len(d)) for d, c in zip(ids, loc)])


def _products(dim: int, left: Iterable[tuple[tuple, Surd]], right: Iterable[tuple[tuple, Surd]]) -> list:
    """The summed weight per product location of two lists of point masses.

    Per coordinate, a table codes the products of the values of ``left``
    and ``right`` there; weights accumulate under tuples of product ids, and
    each location is decoded once, in the order of its first product.  The
    result is a list, so that ``mconv`` hashes only its nonzero locations;
    zero sums stay in it for the sphere, whose rays keep their order."""
    left_ids, right_ids = [{} for _ in range(dim)], [{} for _ in range(dim)]
    left = [(_ids(left_ids, x), w) for x, w in left]
    right = [(_ids(right_ids, y), w) for y, w in right]
    values: list = []
    product_ids: dict[tuple[int, int], int] = {}  # a ratio of ints hashes faster than a Fraction

    def product_id(p) -> int:
        i = product_ids.setdefault(p.as_integer_ratio(), len(values))
        if i == len(values):
            values.append(p)
        return i

    tables = [[[product_id(u * v) for v in vs] for u in us] for us, vs in zip(left_ids, right_ids)]
    acc: dict[tuple[int, ...], Surd] = {}
    for x, wx in left:
        rows = [table[u] for table, u in zip(tables, x)]
        for y, wy in right:
            key = tuple([row[v] for row, v in zip(rows, y)])
            w = wx * wy
            prev = acc.get(key)
            acc[key] = w if prev is None else prev + w
    return [(tuple([values[i] for i in key]), w) for key, w in acc.items()]


def mconv(a: Measure, b: Measure) -> Measure:
    """Pushforward of the product measure under the componentwise product."""
    a._check(b)
    _check_points(a)
    return Measure._of(a.dim, {x: w for x, w in _products(a.dim, a.masses(), b.masses()) if w})


def tensor(a: Measure, b: Measure) -> Measure:
    """Product measure on concatenated coordinates."""
    _check_points(a, b)
    acc: dict[Point, Surd] = {}
    for x, wx in a._atoms.items():
        for y, wy in b._atoms.items():
            acc[x + y] = wx * wy
    return Measure._of(a.dim + b.dim, acc)


def unit(dim: int) -> Measure:
    """Dirac mass at the all-ones vector, the convolution unit."""
    return Measure.dirac([1] * dim)


# -- distinguished atomic measures -------------------------------------------------


def _parity_grid(
    e: SubsetMask,
    j: SubsetMask,
    factor: tuple[tuple[int, int], ...],
    scale: Fraction,
    cls: type[AtomicMeasure] = Measure,
) -> AtomicMeasure:
    """Product over the coordinates of ``e`` of one signed factor.

    The factor lists ``(value, sign)`` pairs with distinct integer values;
    on a coordinate of ``j`` a negative value also takes the parity
    character there.  Off ``e`` the factor is the Dirac mass at 0.  Every
    atom weighs ``+-scale`` and no two atoms merge.  The first coordinate
    varies fastest.  The atoms are point masses of the setting ``cls``,
    which gathers them (the sphere pushes them radially).
    """
    coord = type(cls._zero)
    weight = {1: Surd(scale), -1: Surd(-scale)}
    atoms: list[tuple[tuple, int]] = [((), 1)]
    for i in reversed(range(e.dim)):
        if e.bits >> i & 1:
            flip = -1 if j.bits >> i & 1 else 1
            values = [(coord(v), s * flip if v < 0 else s) for v, s in factor]
        else:
            values = [(cls._zero, 1)]
        atoms = [((c,) + loc, s * t) for loc, s in atoms for c, t in values]
    return cls._gather(e.dim, ((loc, weight[s]) for loc, s in atoms))


def sigma0_on(e: SubsetMask) -> Measure:
    """Alternating atoms on the {1,2}-grid of the coordinates in ``e``.

    Every proper coordinate projection of the result vanishes, which makes
    it a top-order probe within the subspace of ``e``.  For the empty set
    this degenerates to the Dirac mass at the origin.
    """
    return _parity_grid(e, SubsetMask.empty(e.dim), ((1, -1), (2, 1)), Fraction(1))


def sigma0(dim: int) -> Measure:
    """Alternating atoms on the full {1,2}-grid."""
    return sigma0_on(SubsetMask.full(dim))


def delta_ej(e: SubsetMask, j: SubsetMask) -> Measure:
    """Signed uniform atoms on the sign vectors of ``e``.

    Each of the ``2**|e|`` sign vectors carries weight ``2**-|e|`` times the
    parity character of ``j``; requires ``j`` inside ``e``.  These measures
    are the basis of the symmetry decomposition of measures.
    """
    if not j.issubset(e):
        raise ValueError(f"index set {j} is not a subset of the support {e}")
    return _parity_grid(e, j, ((1, 1), (-1, 1)), Fraction(1, 1 << e.size))


def delta_j(dim: int, j: SubsetMask) -> Measure:
    """Shorthand for the full-support basis measure."""
    return delta_ej(SubsetMask.full(dim), j)


def sigma_sym(dim: int) -> Measure:
    """Two half-weight atoms at the all-ones vector and its antipode."""
    ones = [Fraction(1)] * dim
    return Measure(dim, {tuple(ones): HALF, tuple(-c for c in ones): HALF})


def sigma_unc(dim: int) -> Measure:
    """Uniform probability on all sign vectors."""
    return delta_ej(SubsetMask.full(dim), SubsetMask.empty(dim))


# -- symmetrisation operators -------------------------------------------------------


def _reflection_average(mu, f: SubsetMask, sign: int):
    """``(I + sign * T_F) / 2`` in one pass, for ``sign`` in {1, -1}: the
    weight at ``x`` becomes ``(w_x + sign * w_{F x}) / 2``.  Atoms come out
    in the order of ``mu + sign * mu.reflect(f)``."""
    mu._check_mask(f)
    atoms = mu._atoms
    flips = [f.bits >> i & 1 for i in range(mu.dim)]
    half = Surd(HALF)
    acc: dict[tuple, Surd] = {}
    images: dict[tuple, Surd] = {}
    for x, w in atoms.items():
        y = tuple([-c if flip else c for c, flip in zip(x, flips)])
        wy = atoms.get(y)
        if wy is None:
            acc[x] = h = w * half
            images[y] = h if sign > 0 else -h
        else:
            acc[x] = (w + wy if sign > 0 else w - wy) * half
    acc.update(images)
    return mu._of(mu.dim, acc)


def symmetrize(mu, pair: GeneratingPair):
    """Project onto the even/odd symmetry class of the pair.

    Applies at most ``dim`` one-pass factors: ``(I - T_F)/2`` for the
    smallest odd generator, then ``(I + T_F)/2`` per GF(2) basis member of
    the even part (``subsets._reduce_pair``).  Idempotent; the zero operator
    exactly when the pair is not proper.  Works for points and the sphere.
    """
    if pair.dim != mu.dim:
        raise ValueError(f"dimension mismatch: measure {mu.dim} vs pair {pair.dim}")
    basis, odd, proper = _reduce_pair(pair)
    if not proper:
        return mu.zero(mu.dim)
    out = mu
    if odd is not None:
        out = _reflection_average(out, SubsetMask(odd, mu.dim), -1)
    for f in basis:
        out = _reflection_average(out, SubsetMask(f, mu.dim), 1)
    return out


def group_average(mu, group: Iterable[SubsetMask]):
    """Average of the reflections over a subgroup."""
    members = sorted(group, key=mask_sort_key)
    if not members:
        raise ValueError("expected a nonempty reflection group")
    out = mu.reflect(members[0])
    for f in members[1:]:
        out = out + mu.reflect(f)
    return out * Fraction(1, len(members))


def msym(mu):
    """Average with the origin reflection."""
    return _reflection_average(mu, SubsetMask.full(mu.dim), 1)


def munc(mu):
    """Average over all multiple reflections: ``(I + T_{i})/2`` for each
    coordinate ``i``, one pass per factor."""
    out = mu
    for i in range(1, mu.dim + 1):
        out = _reflection_average(out, SubsetMask.single(mu.dim, i), 1)
    return out


def unc_forward(mu: Measure) -> Measure:
    """Spread a measure on the closed positive orthant over all orthants."""
    if any(any(c < 0 for c in pt) for pt in mu._atoms):
        raise ValueError("measure has an atom outside the positive orthant")
    return munc(mu)


def unc_inverse(mu: Measure) -> Measure:
    """Collapse an unconditional measure back to the positive orthant.

    Each component of zero pattern E regains the factor ``2**|E|`` that the
    orthant average distributed over its reflected copies.
    """
    _check_points(mu)
    for i in range(1, mu.dim + 1):
        if not mu.is_even_under(SubsetMask.single(mu.dim, i)):
            raise ValueError("measure is not unconditional")
    acc: dict[Point, Surd] = {}
    for pt, w in mu._atoms.items():
        if all(c >= 0 for c in pt):
            acc[pt] = w * (1 << zero_pattern(pt).size)
    return Measure._of(mu.dim, acc)


def phat(mu):
    """Alternating sum of all coordinate projections.

    Vanishes exactly when the top-order component vanishes.  On sphere
    measures the projections renormalise radially, giving the spherical
    variant of the same criterion.
    """
    out = None
    for e in all_subsets(mu.dim):
        term = mu.project(e)
        if e.size % 2:
            term = -term
        out = term if out is None else out + term
    return out
