"""Finitely-atomic signed measures on R^n with exact surd weights.

The binary operation throughout is componentwise multiplicative
convolution, which makes these measures a commutative algebra with the
Dirac mass at the all-ones vector as unit.  The module also carries the
coordinate decomposition by zero patterns, multiple reflections and the
symmetrisation operators they induce, the signed atomic basis measures of
the symmetry decomposition, and the alternating projection sum used as a
top-order criterion.  The parity basis measures, the alternating top-order
probe and their product are signed grids, all built by one product
builder, ``_parity_grid``.  Every pushforward that can merge atoms, and
the sum of two measures, moves the stored point masses and sums them per
location through a setting's one hook, ``_gather``; a map that is
one-to-one on locations (a reflection, the symmetry tests, the lift pair)
builds each part with ``dict(zip(...))`` and the trusted ``_of``.  The
per-atom key transforms (products, projections, reflections, the order and
orthant restrictions, the symmetrisation passes, zero patterns and
rescaling) run on coordinate columns through one helper, ``_columns``: a part's keys are transposed
once, each column is mapped at C level and the keys are rebuilt, so a
Python loop runs only where atoms merge and their masses must be summed.
The product kernel ``_products`` under ``mconv`` and the sphere product
scales the transposed right keys once per left key; each symmetrisation
factor ``(I +- T_F)/2`` is one pass.

A measure is stored in integer form, as ``sum_s sqrt(s) * mu_s`` over
square-free radicands ``s``: each part ``mu_s`` maps integer vectors over
one least common denominator per measure (the locations) to nonzero int
coefficients over one weight denominator per measure.  A measure with
rational weights has the single part ``s = 1``.  So every operator hashes
tuples of ints and adds and multiplies ints, once per part (per pair of
parts for a product); locations are decoded to ``Fraction`` points, and
weights to :class:`Surd` values, only at the public surface, where the
weight at ``v`` is the stored mass times the root of ``v``'s squared norm
(``_norms``; 1 for points) in both settings.  The JSON codec builds
neither, and reads and writes whole columns of values.  The constructor
and ``from_json`` end in one builder, ``_build``, on int columns of one row
per weight term, whose locations a setting's one reader ``_locate`` keys as
one column of entries.  ``from_json`` reads ``"p/q"`` strings and ints with
one regex match over the distinct texts of the coordinates and one over
those of the coefficients and C-level ``int`` maps
(``scalars._rational_column``), other number forms once per distinct
value; only where a column holds a value to refuse are its values walked
one by one, to raise the first refusal with its message in the
constructor's order.  ``to_json`` and the compact text writer
``to_json_text`` share one pass that writes each distinct value's reduced
``"p/q"`` text once.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, eq, floordiv, ge, itemgetter, lshift, mul, ne, neg, not_, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .points import Point, make_point
from .scalars import (
    Surd,
    SurdLike,
    _canonical,
    _ratio_text,
    _rational_column,
    as_surd,
    square_free_decompose,
)
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

Key = tuple[int, ...]
# the (radicand, numerator, denominator) triples of a weight
Terms = Iterable[tuple[int, int, int]]
# radicand -> integer vector -> int coefficient
Parts = dict[int, dict[Key, int]]
# (radicand, point masses) pairs, the input of a gather
Lanes = Iterable[tuple[int, Iterable[tuple[Key, int]]]]


def _columns(cols: Iterable[Iterable[int]], op: Callable, args: Iterable[Iterable]) -> Iterator[tuple]:
    """The rows ``(op(v[0], a[0]), op(v[1], a[1]), ...)`` rebuilt from the
    coordinate columns ``cols`` (``zip(*keys)``): column ``i`` is mapped at C
    level against its own iterable of second operands ``args[i]``, which is
    ``repeat(c)`` for one constant.  Every per-atom key transform is one call:
    one transpose in, one ``map`` per column, one transpose out."""
    return zip(*map(map, repeat(op), cols, args))


def _flipped(keys: Iterable[Key], f: SubsetMask) -> Iterator[Key]:
    """The keys reflected in the coordinates of ``f``."""
    return _columns(zip(*keys), mul, [repeat(-1 if f.bits >> i & 1 else 1) for i in range(f.dim)])


def _reflected(part: dict[Key, int], f: SubsetMask, sign: int = 1) -> dict[Key, int]:
    """A part reflected in the coordinates of ``f``, its coefficients times
    ``sign`` in {1, -1}: a bijection on locations, so no two atoms merge."""
    return dict(zip(_flipped(part, f), part.values() if sign > 0 else map(neg, part.values())))


def _compared(keys: Iterable[Key], op: Callable[[int, int], bool]) -> Iterator[tuple[bool, ...]]:
    """Each key's row of flags ``op(c, 0)``, one per coordinate."""
    # one endless column of zeros serves every column
    return _columns(zip(*keys), op, repeat(repeat(0)))


def _root_product(s: int, r: int) -> tuple[int, int]:
    """``sqrt(s) * sqrt(r)`` as ``(g, t)`` for ``g * sqrt(t)``, with ``g``
    the gcd: the product of coprime square-free numbers is square-free."""
    if s == 1 or r == 1:
        return 1, s * r
    g = math.gcd(s, r)
    return g, (s // g) * (r // g)


def _root_columns(rads: Iterable[int], coeffs: Iterable[int], norms: Iterable[int]) -> tuple[tuple, list[int]]:
    """Nonempty columns of terms ``c sqrt(s)`` times ``sqrt(n)``, one ``n`` per
    term, as columns of ``t`` and ``c m`` for ``sqrt(s) sqrt(n) = m sqrt(t)``
    (``m = g k`` for ``n = k**2 f`` and ``g = gcd(s, f)``, as the product of
    coprime square-free numbers is square-free), each distinct norm factored
    once.  For one ``n``, ``s`` to ``t`` is one-to-one."""
    pairs = list(zip(rads, norms))
    factors = {}
    roots = {}
    for s, n in dict.fromkeys(pairs):
        k, f = factors.get(n) or factors.setdefault(n, square_free_decompose(n))
        g = math.gcd(s, f)
        roots[s, n] = (s // g) * (f // g), g * k
    ts, ms = zip(*map(roots.__getitem__, pairs))
    return ts, list(map(mul, coeffs, ms))


def _rows(values: Iterable, dim: int) -> list[tuple]:
    """Consecutive ``dim``-tuples of ``values``: the keys of a row-major list
    of coordinates."""
    return list(zip(*[iter(values)] * dim))


def _text_of(values: Iterable[int], den: int) -> Callable[[int], str]:
    """The reduced ``"p/q"`` text of each of ``values`` over ``den``, from a
    table of one ``_ratio_text`` (``str`` over 1) per distinct value."""
    distinct = set(values)
    if den == 1:
        return dict(zip(distinct, map(str, distinct))).__getitem__
    return {c: _ratio_text(c, den) for c in distinct}.__getitem__


def _surd(coeffs: Iterable[tuple[int, int | Fraction]], wden: int = 1) -> Surd:
    """The value ``sum_s sqrt(s) * c / wden`` over the ``(s, c)`` pairs,
    whose radicands are distinct."""
    return Surd._of(_canonical({s: (c.numerator, c.denominator * wden) for s, c in coeffs}))


def _surd_terms(w: SurdLike) -> Terms:
    # refuses float, bool and None weights
    return (w if isinstance(w, Surd) else Surd(w))._terms


def _positive(dim: int) -> int:
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return dim


def _weight_columns(weights: list) -> tuple | None:
    """JSON weights, lists of ``[coefficient, radicand]`` terms, as the
    columns of ``_build``: the terms per weight (None when each has one), the
    radicands, checked square-free ints, and the coefficients read by
    ``_rational_column`` as numerators and denominators; a weight with no
    term is a zero term.  None for weights that hold a value to refuse, or
    are not lists of such lists."""
    if not set(map(type, weights)) <= {list}:
        return None
    if not all(weights):
        weights = [w or [[0, 1]] for w in weights]
    terms = list(chain.from_iterable(weights))
    if not set(map(type, terms)) <= {list} or not set(map(len, terms)) <= {2}:
        return None
    coeffs, rads = list(zip(*terms)) or ((), ())
    if not set(map(type, rads)) <= {int}:
        return None
    try:
        if not all([r == 1 or r > 1 and square_free_decompose(r)[1] == r for r in set(rads)]):
            return None
    except ValueError:  # a factor beyond the trial-division bound
        return None
    read = _rational_column(coeffs)
    if read is None:
        return None
    return None if len(terms) == len(weights) else list(map(len, weights)), rads, *read


def _walk(locs: list, dim: int, read: Callable[[object], tuple], field: str) -> list[tuple]:
    """Each location read by ``read`` (``make_point`` or ``primitive_ray``)
    and its dimension checked, in turn: the walk of ``_locate`` that raises
    the first refusal with its message."""
    out = []
    for loc in locs:
        v = read(loc)
        if len(v) != dim:
            raise ValueError(f"{field} {v} has dimension {len(v)}, expected {dim}")
        out.append(v)
    return out


def _sum_parts(lanes: Lanes) -> Parts:
    """Sum point masses per radicand and vector."""
    out: Parts = {}
    for s, masses in lanes:
        acc = out.setdefault(s, {})
        get = acc.get
        for v, c in masses:
            acc[v] = get(v, 0) + c
    return out


class AtomicMeasure:
    """Signed measure with finitely many atoms at exact locations.

    The shared core of point and sphere measures.  A subclass fixes the
    location type through class attributes: ``_locate``, the one reader of
    locations (the constructor's, ``from_json``'s and ``weight_at``'s),
    reads their entries as one column, checks them and keys them over one
    denominator, walking them one by one only to raise a refusal;
    ``_loc_field`` names them in JSON, ``_decode`` turns a stored key back
    into a location; ``_norms`` gives, per key, the square of the number a
    weight is divided by to store it (1 for points); and its pushforward
    through the trusted ``_gather``, which sums point masses per location:
    the one hook that every projection, product and sum ends in.

    The measure is stored as parts, ``_parts[s]`` for each square-free
    radicand ``s`` that occurs: a dict from tuples of ints ``v`` to nonzero
    int coefficients ``c``, none empty.  One denominator ``_den`` per
    measure scales the keys, so the location of ``v`` is ``v / _den``, and
    one weight denominator ``_wden`` the coefficients: the point mass at
    ``v`` is the sum over the parts holding ``v`` of ``sqrt(s) * c /
    _wden``.  ``_den`` is the least common denominator of the coordinates,
    1 on the sphere, whose rays are integers already; ``_wden`` is positive
    and coprime to every coefficient.  So the stored form is canonical.

    Coordinate-wise operators act on the keys alike in both settings, once
    per part and in column form (``_columns``): ``zip(*part)`` transposes
    the keys, one C-level ``map`` per coordinate column transforms them and
    ``zip`` rebuilds them, into ``dict(zip(...))`` where no two atoms merge,
    through ``compress`` for a filter, and through ``_gather`` where atoms
    merge.  ``atoms``, ``support``, ``weight_at`` and ``to_json`` decode
    them.  The weight at ``v`` is the point mass times the positive root of
    ``v``'s ``_norms`` entry, so sums per key, signs and zero tests read the
    masses as they are; the one reader ``_weight`` decodes a weight to int
    coefficients per radicand, with no :class:`Surd` root or product.
    ``atoms`` lists the keys part by part, in the order the parts were made,
    a key held by several parts at its first.

    The public constructor checks every weight, then normalises every
    location and checks its dimension; it is the entry for user input, and
    ``from_json`` reads JSON in the same order without building a
    ``Fraction`` or a :class:`Surd` per atom.  Both end in ``_build``, which
    keys the locations, divides each weight by that root on ints and merges
    repeats.  Parts the library built itself, of the right dimension and
    keyed over a common denominator, go through the trusted constructor
    ``_of`` instead.
    """

    __slots__ = ("dim", "_parts", "_den", "_wden")
    _locate: Callable[[list, int], tuple[list[Key], int]]
    _loc_field: str

    def __init__(self, dim: int, atoms: Mapping[tuple, SurdLike] | Iterable[tuple[tuple, SurdLike]] = ()):
        _positive(dim)
        items = list(atoms.items() if isinstance(atoms, Mapping) else atoms)
        # one row per weight term; a weight with no term gives a zero term,
        # as its norm is still factored
        weights = [_surd_terms(w) or ((1, 0, 1),) for _, w in items]
        terms = list(chain.from_iterable(weights))
        counts = None if len(terms) == len(weights) else list(map(len, weights))
        rads, nums, dens = list(zip(*terms)) or ((), (), ())
        self._build(dim, [loc for loc, _ in items], counts, rads, nums, dens)

    def _build(self, dim: int, locs: list, counts: list[int] | None, rads: Sequence[int], nums: Sequence[int],
               dens: Sequence[int] | None) -> Self:
        """Initialise from locations as given, keyed by ``_locate``, and one
        row per weight term, ``counts`` per location (None when each location
        has one): its square-free radicand and its coefficient, ``nums`` over
        ``dens`` (None when all are 1), divided by the root of the key's
        ``_norms`` entry and scaled over one lcm.  Where a key repeats or a
        coefficient is zero, the terms are summed per key and radicand, zero
        sums dropped, and the parts made key by key in radicand order, as a
        canonical weight lists them."""
        keys, den = self._locate(locs, dim)
        if counts is not None:
            keys = list(chain.from_iterable(map(repeat, keys, counts)))
        norms = self._norms(keys)
        if norms:  # none for points or no rows
            # the mass is the weight over sqrt(n): (p/q) sqrt(r) = (p*m / (q*n)) sqrt(t)
            rads, nums = _root_columns(rads, nums, norms)
            dens = norms if dens is None else list(map(mul, dens, norms))
        wden = 1 if dens is None else math.lcm(*dens)
        if wden != 1:
            nums = list(map(mul, nums, map(floordiv, repeat(wden), dens)))
        parts: Parts | None = None
        if all(nums):
            if len(set(rads)) == 1:
                part = dict(zip(keys, nums))
                # a shorter dict means a repeated key
                parts = {rads[0]: part} if len(part) == len(keys) else None
            elif len(set(keys)) == len(keys):
                parts = {}
                for v, t, c in zip(keys, rads, nums):
                    parts.setdefault(t, {})[v] = c
        if parts is None:
            sums: dict[Key, dict[int, int]] = {}
            for v, t, c in zip(keys, rads, nums):
                acc = sums.setdefault(v, {})
                acc[t] = acc.get(t, 0) + c
            parts = {}
            for v, acc in sums.items():
                for t in sorted(acc):
                    if acc[t]:
                        parts.setdefault(t, {})[v] = acc[t]
        self._init(dim, parts, den, wden)
        return self

    @classmethod
    def _of(cls, dim: int, parts: Parts, den: int = 1, wden: int = 1) -> Self:
        """Trusted constructor: take ownership of ``parts``, a dict per
        radicand from integer vectors ``v``, at the locations ``v / den``, to
        int coefficients over ``wden``.

        Every key must be a tuple of ``dim`` ints (a primitive ray on the
        sphere) and every radicand square-free.  Zero coefficients and empty
        parts are dropped, and ``den`` and ``wden`` are reduced.
        """
        out = cls.__new__(cls)
        out._init(dim, parts, den, wden)
        return out

    def _init(self, dim: int, parts: Parts, den: int, wden: int = 1) -> None:
        for s in list(parts):
            part = parts[s]
            if 0 in part.values():
                for v in [v for v, c in part.items() if not c]:
                    del part[v]
            if not part:
                del parts[s]
        # with no atoms left both gcds are the denominators themselves
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(chain.from_iterable(parts.values())))
            if g != 1:
                den //= g
                parts = {
                    s: dict(zip(_columns(zip(*part), floordiv, repeat(repeat(g))), part.values()))
                    for s, part in parts.items()
                }
        if wden != 1:
            g = math.gcd(wden, *chain.from_iterable(part.values() for part in parts.values()))
            if g != 1:
                wden //= g
                parts = {
                    s: dict(zip(part, map(floordiv, part.values(), repeat(g)))) for s, part in parts.items()
                }
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_wden", wden)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, dim: int) -> Self:
        return cls(dim)

    # -- stored form -------------------------------------------------------

    def _keys(self) -> Mapping[Key, object]:
        """Every stored key once, part by part."""
        parts = self._parts
        if len(parts) == 1:
            return next(iter(parts.values()))
        return dict.fromkeys(chain.from_iterable(parts.values()))

    @staticmethod
    def _norms(keys: list[Key]) -> list[int] | None:
        """Per key, the square of the positive number that the weight there is
        divided by to store its mass; None when every one is 1, as a point
        atom stores its weight."""
        return None

    def _weight(self, v: Key) -> list[tuple[int, int]]:
        """The weight at the key ``v``, the stored mass times the root of its
        ``_norms`` entry, as ``(radicand, coefficient)`` pairs over ``_wden``
        sorted by radicand; none for a key that no part holds."""
        coeffs = [(s, part[v]) for s, part in self._parts.items() if v in part]
        norms = self._norms([v]) if coeffs else None
        n = 1 if norms is None else norms[0]
        if n != 1:
            rads, cs = zip(*coeffs)
            coeffs = list(zip(*_root_columns(rads, cs, repeat(n))))
        coeffs.sort()
        return coeffs

    def _over(self, den: int | None = None, wden: int | None = None) -> Lanes:
        """The parts as ``(radicand, point masses)`` pairs, keyed over ``den``
        and coded over ``wden``, multiples of the measure's own (by default
        the measure's own)."""
        k = 1 if den is None else den // self._den
        t = 1 if wden is None else wden // self._wden
        if k == 1 and t == 1:
            return [(s, part.items()) for s, part in self._parts.items()]
        return [
            (s, list(zip(_columns(zip(*part), mul, repeat(repeat(k))), map(mul, part.values(), repeat(t)))))
            for s, part in self._parts.items()
        ]

    # -- structure ---------------------------------------------------------

    @property
    def atoms(self) -> Mapping[tuple, Surd]:
        """The weights by location, decoded."""
        decode, weight, wden = self._decode, self._weight, self._wden
        return MappingProxyType({decode(v): _surd(weight(v), wden) for v in self._keys()})

    def support(self) -> tuple[tuple, ...]:
        # a positive denominator keeps the order of the keys
        return tuple([self._decode(v) for v in sorted(self._keys())])

    def weight_at(self, loc: Iterable) -> Surd:
        # the constructor's reader; it keeps "2/4" as (2, 4), so ``v / d`` is
        # brought to lowest terms by ``g`` and keyed over ``_den`` by ``k``
        (v,), d = self._locate([loc], self.dim)
        g = math.gcd(d, *v)
        k, finer = divmod(self._den * g, d)
        if finer:
            return Surd(0)  # no atom sits at a finer denominator
        return _surd(self._weight(tuple([c // g * k for c in v])), self._wden)

    def atom_count(self) -> int:
        return len(self._keys())

    def is_zero(self) -> bool:
        return not self._parts

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other) -> bool:
        # exact types: a point measure never equals a sphere measure
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.dim == other.dim
            and self._den == other._den
            and self._wden == other._wden
            and self._parts == other._parts
        )

    def __hash__(self):
        parts = frozenset((s, frozenset(part.items())) for s, part in self._parts.items())
        return hash((self.dim, self._den, self._wden, parts))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, atoms={self.atom_count()})"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: Self) -> Self:
        self._check(other)
        den = math.lcm(self._den, other._den)
        wden = math.lcm(self._wden, other._wden)
        return self._gather(self.dim, chain(self._over(den, wden), other._over(den, wden)), den, wden)

    def __sub__(self, other: Self) -> Self:
        return self + (-other)

    def __neg__(self) -> Self:
        parts = {s: dict(zip(part, map(neg, part.values()))) for s, part in self._parts.items()}
        return self._of(self.dim, parts, self._den, self._wden)

    def __mul__(self, scalar: SurdLike) -> Self:
        c = as_surd(scalar)
        if c is NotImplemented:
            return NotImplemented
        q = math.lcm(*[t for _, _, t in c._terms])
        lanes = []
        for s, part in self._parts.items():
            for r, p, t in c._terms:
                g, u = _root_product(s, r)
                k = p * (q // t) * g
                lanes.append((u, zip(part, map(mul, part.values(), repeat(k)))))
        return self._of(self.dim, _sum_parts(lanes), self._den, self._wden * q)

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
        return self._weight_sum(False)

    def jordan(self) -> tuple[Self, Self]:
        """Split into non-negative parts with disjoint supports."""
        parts = self._parts
        # a key in one part has the sign of its coefficient; one in several
        # parts the sign of its mass
        shared = Counter(chain.from_iterable(parts.values())) if len(parts) > 1 else {}
        signs = {v: _surd([(s, p[v]) for s, p in parts.items() if v in p]).sign() for v, k in shared.items() if k > 1}
        pos: Parts = {}
        neg: Parts = {}
        for s, part in parts.items():
            p = pos[s] = {}
            n = neg[s] = {}
            for v, c in part.items():
                if signs.get(v, c) > 0:
                    p[v] = c
                else:
                    n[v] = -c
        return self._of(self.dim, pos, self._den, self._wden), self._of(self.dim, neg, self._den, self._wden)

    def tv_norm(self) -> Surd:
        return self._weight_sum(True)

    def _weight_sum(self, absolute: bool) -> Surd:
        """The sum of the weights, or of their absolute values, in ints per radicand."""
        acc: dict[int, int] = {}
        for v in self._keys():
            coeffs = self._weight(v)
            sign = -1 if absolute and _surd(coeffs).sign() < 0 else 1
            for t, c in coeffs:
                acc[t] = acc.get(t, 0) + sign * c
        return _surd(acc.items(), self._wden)

    # -- reflections, projections and restrictions ------------------------------

    def project(self, e: SubsetMask) -> Self:
        """Marginal on the coordinate subspace (or subsphere) of ``e``: each
        mass moves to its location with the coordinates off ``e`` zeroed."""
        self._check_mask(e)
        keep = [repeat(e.bits >> i & 1) for i in range(self.dim)]
        moved = [(s, zip(_columns(zip(*part), mul, keep), part.values())) for s, part in self._parts.items()]
        return self._gather(self.dim, moved, self._den, self._wden)

    def reflect(self, f: SubsetMask) -> Self:
        self._check_mask(f)
        parts = {s: _reflected(part, f) for s, part in self._parts.items()}
        return self._of(self.dim, parts, self._den, self._wden)

    def _filter(self, keep: Callable[[dict[Key, int]], Iterable[bool]]) -> Self:
        """The atoms of each part that the selectors ``keep(part)`` accept."""
        parts = {s: dict(compress(part.items(), keep(part))) for s, part in self._parts.items()}
        return self._of(self.dim, parts, self._den, self._wden)

    def restrict_order(self, e: SubsetMask) -> Self:
        """Keep the atoms whose zero pattern is exactly ``e``."""
        self._check_mask(e)
        pattern = tuple([e.bits >> i & 1 == 1 for i in range(self.dim)])
        return self._filter(lambda part: map(eq, _compared(part, ne), repeat(pattern)))

    def sign_density(self, j: SubsetMask) -> Self:
        """Multiply weights by the product of coordinate signs over ``j``.

        Atoms vanishing on some coordinate of ``j`` pick up sign 0 and drop.
        A ray and its unit vector share signs, so this is exact on the sphere.
        """
        self._check_mask(j)
        on_j = [i for i in range(self.dim) if j.bits >> i & 1]
        parts = {
            s: {v: -w if sum([v[i] < 0 for i in on_j]) & 1 else w
                for v, w in part.items() if all([v[i] for i in on_j])}
            for s, part in self._parts.items()
        }
        return self._of(self.dim, parts, self._den, self._wden)

    # -- coordinate decomposition ----------------------------------------------

    def component_patterns(self) -> frozenset[SubsetMask]:
        """Zero patterns carrying mass (the nonzero coordinate components)."""
        rows = set()
        for part in self._parts.values():
            rows.update(_compared(part, ne))
        bits = [1 << i for i in range(self.dim)]
        return frozenset([SubsetMask(sum(compress(bits, row)), self.dim) for row in rows])

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
        return self._reflects_to(f, 1)

    def is_odd_under(self, f: SubsetMask) -> bool:
        return self._reflects_to(f, -1)

    def _reflects_to(self, f: SubsetMask, sign: int) -> bool:
        """``reflect(f) == sign * self``, part by part on the stored keys: a
        reflection keeps both denominators."""
        self._check_mask(f)
        return all([_reflected(part, f, sign) == part for part in self._parts.values()])

    # -- serialization -------------------------------------------------------------

    def _text_columns(self) -> tuple[list[tuple[str, ...]], list[tuple[tuple[str, int], ...]]]:
        """The atoms sorted by location, as each one's coordinate texts and its
        weight terms ``(coefficient text, radicand)`` sorted by radicand, in
        one column pass: every text a reduced ``"p/q"`` written from ints, one
        gcd per distinct value (``_text_of``).  Where each key is held by one
        part, every atom has one term, read off the sorted ``(key,
        coefficient, radicand)`` rows of all parts, the sphere's through
        ``_root_columns``; otherwise each atom's terms come from ``_weight``."""
        parts, wden = self._parts, self._wden
        if not parts:
            return [], []
        # a positive denominator keeps the order of the keys
        rows = sorted(chain.from_iterable([zip(part, part.values(), repeat(s)) for s, part in parts.items()]))
        keys, coeffs, rads = zip(*rows)
        # a key held by several parts has adjacent rows
        shared = len(parts) > 1 and any(map(eq, keys, keys[1:]))
        if shared:
            keys = sorted(self._keys())
        flat = list(chain.from_iterable(keys))
        locs = _rows(map(_text_of(flat, self._den), flat), self.dim)
        if shared:
            return locs, [tuple([(_ratio_text(c, wden), t) for t, c in self._weight(v)]) for v in keys]
        norms = self._norms(keys)
        if norms is not None:
            rads, coeffs = _root_columns(rads, coeffs, norms)
        return locs, list(zip(zip(map(_text_of(coeffs, wden), coeffs), rads)))

    def to_json(self) -> dict:
        """The atoms sorted by location, each coordinate and coefficient a
        reduced ``"p/q"`` string (``_text_columns``)."""
        field = self._loc_field
        locs, weights = self._text_columns()
        atoms = [{field: list(loc), "weight": list(map(list, w))} for loc, w in zip(locs, weights)]
        return {"dim": self.dim, "atoms": atoms}

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), separators=(",", ":"))``, joined from
        the same column pass with no dict per atom: each text is ASCII that
        JSON writes as it is."""
        locs, weights = self._text_columns()
        # one format per atom, on its coordinate texts and its weight's text
        atom = '{"' + self._loc_field + '":["' + '","'.join(["%s"] * self.dim) + '"],"weight":[%s]}'
        texts = zip(map(",".join, map(map, repeat('["%s",%d]'.__mod__), weights)))
        body = ",".join(map(atom.__mod__, map(add, locs, texts)))
        return f'{{"dim":{self.dim},"atoms":[{body}]}}'

    @classmethod
    def from_json(cls, data: dict) -> Self:
        """Read a payload as the constructor reads its values: the weights
        first, then ``dim``, then the locations (``_locate``).  The weights
        are read as columns (``_weight_columns``); only where that check
        fails are the atoms walked one by one through ``Surd.from_json`` and
        the constructor, which raise the first refusal with its message (and
        read weights given as other sequences than lists); an atom that is
        not an object is refused there by its index."""
        field = cls._loc_field
        atoms = data.get("atoms", [])
        if type(atoms) is not list:  # read twice below
            atoms = list(atoms)
        try:
            locs = list(map(itemgetter(field), atoms))
            read = _weight_columns(list(map(itemgetter("weight"), atoms)))
        except (LookupError, TypeError):
            read = None
        if read is None:
            rows = []
            for k, entry in enumerate(atoms):
                # a subscript of a string or a list would raise Python's own
                # error, whose text differs between versions
                if not isinstance(entry, Mapping):
                    raise TypeError(
                        f'atom {k} must be an object with "{field}" and "weight" fields, got {type(entry).__name__}'
                    )
                rows.append((entry[field], Surd.from_json(entry["weight"])))
            return cls(json_dim(data), rows)
        dim = data["dim"]
        if type(dim) is not int or dim < 1:  # read, or refused, as json_dim reads it
            dim = _positive(json_dim(data))
        return cls.__new__(cls)._build(dim, locs, *read)


class Measure(AtomicMeasure):
    """Signed measure with finitely many atoms at rational points."""

    __slots__ = ()
    _loc_field = "point"

    @staticmethod
    def _locate(locs: list, dim: int) -> tuple[list[Key], int]:
        """Points of dimension ``dim`` as integer vectors over their least
        common denominator (not reduced), every coordinate read as one column
        by ``_rational_column``.  Where the locations are not lists or tuples
        of ``dim`` entries, or the column holds a value to refuse, each is
        read by ``make_point`` and its dimension checked in turn, which raises
        the first refusal with its message (or reads another iterable)."""
        read = None
        if set(map(type, locs)) <= {list, tuple} and set(map(len, locs)) <= {dim}:
            read = _rational_column(list(chain.from_iterable(locs)))
        if read is None:
            read = _rational_column(list(chain.from_iterable(_walk(locs, dim, make_point, "point"))))
        nums, dens = read
        den = 1 if dens is None else math.lcm(*dens)
        if den != 1:
            nums = map(mul, nums, map(floordiv, repeat(den), dens))
        return _rows(nums, dim), den

    def _decode(self, v: Key) -> Point:
        den = self._den
        return tuple([Fraction(c, den) for c in v])

    @classmethod
    def dirac(cls, point: Iterable, weight: SurdLike = 1) -> "Measure":
        pt = make_point(point)
        return cls(len(pt), {pt: weight})

    @classmethod
    def _gather(cls, dim: int, lanes: Lanes, den: int = 1, wden: int = 1) -> "Measure":
        """Sum point masses per radicand and point ``v / den``, for integer
        vectors ``v`` of dimension ``dim`` and int coefficients over ``wden``."""
        return cls._of(dim, _sum_parts(lanes), den, wden)

    def restrict_positive(self) -> "Measure":
        """Keep the atoms in the closed positive orthant."""
        return self._filter(lambda part: map(all, _compared(part, ge)))


# -- multiplicative convolution and products --------------------------------------


def _check_points(*measures: AtomicMeasure) -> None:
    # these results are built by ``Measure._of``, which trusts its keys to be
    # points; a ray read as a point would break that (``sconv`` is the sphere
    # product)
    for mu in measures:
        if not isinstance(mu, Measure):
            raise ValueError(f"expected a point measure, got {type(mu).__name__}")


def _products(left: Parts, right: Parts) -> Parts:
    """The summed coefficient per radicand and product vector of two
    measures' parts, each part in the order of first product.

    The right keys, all parts together, are transposed once; each left key
    ``x`` scales their columns by its coordinates, and only the summing of
    the products, each into the part of its pair of radicands, is a Python
    loop.  For one left radicand every right radicand gives a different
    product radicand (their symmetric difference as sets of primes), so each
    part still receives the products of one pair of parts at a time, ``x``
    by ``x``.  Transposing once per pair of parts instead costs one column
    pass per left key and right part: no faster on one part, and 1.3 to 2.2
    times the time on sphere measures of about one part per atom (the
    several-parts case of ``scripts/kernel_bench.py``).  Zero sums stay in
    it for the sphere, whose rays keep their order."""
    out: Parts = {}
    cols = list(zip(*chain.from_iterable(right.values())))
    for s1, xs in left.items():
        # per right key: the part its products with ``xs`` go to, and its
        # coefficient times the gcd factor of the radicands
        accs: list[dict[Key, int]] = []
        wys: list[int] = []
        for s2, ys in right.items():
            g, s = _root_product(s1, s2)
            accs += repeat(out.setdefault(s, {}), len(ys))
            wys += map(mul, ys.values(), repeat(g))
        for x, wx in xs.items():
            for key, wy, acc in zip(_columns(cols, mul, map(repeat, x)), wys, accs):
                acc[key] = acc.get(key, 0) + wx * wy
    return out


def mconv(a: Measure, b: Measure) -> Measure:
    """Pushforward of the product measure under the componentwise product."""
    a._check(b)
    _check_points(a)
    return Measure._of(a.dim, _products(a._parts, b._parts), a._den * b._den, a._wden * b._wden)


def tensor(a: Measure, b: Measure) -> Measure:
    """Product measure on concatenated coordinates."""
    _check_points(a, b)
    den = math.lcm(a._den, b._den)
    right = b._over(den)
    out: Parts = {}
    for s1, xs in a._over(den):
        for s2, ys in right:
            g, s = _root_product(s1, s2)
            acc = out.setdefault(s, {})
            get = acc.get
            for x, wx in xs:
                wx *= g
                for y, wy in ys:
                    # two pairs of parts may share a radicand and a key
                    key = x + y
                    acc[key] = get(key, 0) + wx * wy
    return Measure._of(a.dim + b.dim, out, den, a._wden * b._wden)


def unit(dim: int) -> Measure:
    """Dirac mass at the all-ones vector, the convolution unit."""
    return Measure.dirac([1] * dim)


# -- distinguished atomic measures -------------------------------------------------


def _parity_grid(
    e: SubsetMask,
    j: SubsetMask,
    factor: tuple[tuple[int, int], ...],
    wden: int,
    cls: type[AtomicMeasure] = Measure,
) -> AtomicMeasure:
    """Product over the coordinates of ``e`` of one signed factor.

    The factor lists ``(value, sign)`` pairs with distinct integer values;
    on a coordinate of ``j`` a negative value also takes the parity
    character there.  Off ``e`` the factor is the Dirac mass at 0.  Every
    atom weighs ``+-1/wden`` and no two atoms merge.  The first coordinate
    varies fastest.  The atoms are point masses at integer vectors of the
    setting ``cls``, which gathers them (the sphere pushes them radially).
    """
    atoms: list[tuple[tuple, int]] = [((), 1)]
    for i in reversed(range(e.dim)):
        if e.bits >> i & 1:
            flip = -1 if j.bits >> i & 1 else 1
            values = [(v, s * flip if v < 0 else s) for v, s in factor]
        else:
            values = [(0, 1)]
        atoms = [((c,) + loc, s * t) for loc, s in atoms for c, t in values]
    return cls._gather(e.dim, [(1, atoms)], 1, wden)


def sigma0_on(e: SubsetMask) -> Measure:
    """Alternating atoms on the {1,2}-grid of the coordinates in ``e``.

    Every proper coordinate projection of the result vanishes, which makes
    it a top-order probe within the subspace of ``e``.  For the empty set
    this degenerates to the Dirac mass at the origin.
    """
    return _parity_grid(e, SubsetMask.empty(e.dim), ((1, -1), (2, 1)), 1)


def sigma0(dim: int) -> Measure:
    """Alternating atoms on the full {1,2}-grid."""
    return sigma0_on(SubsetMask.full(dim))


# the parity basis measure's factor on E, ``(delta_1 + chi*delta_{-1}) / 2``
_PARITY = ((1, 1), (-1, 1))


def delta_ej(e: SubsetMask, j: SubsetMask) -> Measure:
    """Signed uniform atoms on the sign vectors of ``e``.

    Each of the ``2**|e|`` sign vectors carries weight ``2**-|e|`` times the
    parity character of ``j``; requires ``j`` inside ``e``.  These measures
    are the basis of the symmetry decomposition of measures.
    """
    if not j.issubset(e):
        raise ValueError(f"index set {j} is not a subset of the support {e}")
    return _parity_grid(e, j, _PARITY, 1 << e.size)


def delta_j(dim: int, j: SubsetMask) -> Measure:
    """Shorthand for the full-support basis measure."""
    return delta_ej(SubsetMask.full(dim), j)


def sigma_sym(dim: int) -> Measure:
    """Two half-weight atoms at the all-ones vector and its antipode."""
    return msym(unit(dim))


def sigma_unc(dim: int) -> Measure:
    """Uniform probability on all sign vectors."""
    return delta_ej(SubsetMask.full(dim), SubsetMask.empty(dim))


# -- symmetrisation operators -------------------------------------------------------


def _reflection_average(mu, f: SubsetMask, sign: int):
    """``(I + sign * T_F) / 2`` in one pass, for ``sign`` in {1, -1}: the
    weight at ``x`` becomes ``(w_x + sign * w_{F x}) / 2``, per part, with the
    half taken by the weight denominator.  Atoms come out in the order of
    ``mu + sign * mu.reflect(f)``."""
    mu._check_mask(f)
    combine = add if sign > 0 else sub
    parts: Parts = {}
    for s, atoms in mu._parts.items():
        ws = atoms.values()
        ys = list(_flipped(atoms, f))
        # ``w_x + sign * w_{F x}`` at every ``x``, then ``sign * w_x`` at each
        # image ``F x`` that holds no atom, after them: a reflection is a
        # bijection, so no two images meet and none meets an ``x``
        acc = dict(zip(atoms, map(combine, ws, map(atoms.get, ys, repeat(0)))))
        images = zip(ys, ws if sign > 0 else map(neg, ws))
        acc.update(compress(images, map(not_, map(atoms.__contains__, ys))))
        parts[s] = acc
    return mu._of(mu.dim, parts, mu._den, 2 * mu._wden)


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
    if any(any(c < 0 for c in pt) for pt in mu._keys()):
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
    # the weight at ``v`` times 2 to the number of its nonzero coordinates
    parts = {
        s: dict(
            compress(
                zip(part, map(lshift, part.values(), map(sum, _compared(part, ne)))),
                map(all, _compared(part, ge)),
            )
        )
        for s, part in mu._parts.items()
    }
    return Measure._of(mu.dim, parts, mu._den, mu._wden)


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
