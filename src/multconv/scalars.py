"""Exact scalars: arbitrary-precision rationals and quadratic surds.

A :class:`Surd` is a finite rational combination of square roots of
distinct square-free positive integers (radicand 1 carries the rational
part).  Each term is stored as an integer triple ``(r, p, q)`` for
``(p/q) * sqrt(r)``, with the coefficient reduced, so the arithmetic and
the sign make no ``Fraction`` objects.  The representation is canonical, so equality is
structural, the zero test is exact, and the sign of any value is decidable.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
SurdLike = Union[int, Fraction, "Surd"]

DEFAULT_FACTOR_BOUND = 10**6


class FactorLimitError(ValueError):
    """A radicand could not be certified square-free by trial division."""


@functools.lru_cache(maxsize=1 << 12, typed=True)
def square_free_decompose(m: int, bound: int = DEFAULT_FACTOR_BOUND) -> tuple[int, int]:
    """Split ``m >= 1`` as ``k**2 * f`` with ``f`` square-free.

    Uses trial division.  Raises :class:`FactorLimitError` when a divisor
    beyond ``bound`` would be required to certify the result.  Results are
    memoised: square roots recur on a handful of distinct norms.  A raised
    error is not cached, so it is raised again on every call.
    """
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m}")
    square = 1
    free = 1
    d = 2
    while d * d <= m:
        if d > bound:
            raise FactorLimitError(
                f"radicand {m} exceeds the trial-division bound {bound}"
            )
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            square *= d ** (e // 2)
            if e % 2:
                free *= d
        d += 1 if d == 2 else 2
    # the leftover cofactor is 1 or prime
    return square, free * m


def _term(r: int, p: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """The terms of ``(p/q) * sqrt(r)`` for ``q > 0``: none when ``p`` is 0."""
    if not p:
        return ()
    g = math.gcd(p, q)
    return ((r, p // g, q // g),)


def _accumulate(acc: dict[int, tuple[int, int]], r: int, p: int, q: int) -> None:
    """Add ``p/q`` to the unreduced coefficient of radicand ``r``."""
    if r in acc:
        p0, q0 = acc[r]
        p, q = (p0 + p, q) if q0 == q else (p0 * q + p * q0, q0 * q)
    acc[r] = (p, q)


def _canonical(acc: dict[int, tuple[int, int]]) -> tuple[tuple[int, int, int], ...]:
    """Sorted, reduced terms of a radicand -> ``(p, q)`` map, zeros dropped."""
    out = ()
    for r in sorted(acc):
        out += _term(r, *acc[r])
    return out


def _coerce_rational(value) -> Fraction:
    # a bool is an int to Python: True would read as 1
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {type(value).__name__} input; use Fraction or int for exactness")
    # Fraction parses "1e10000000" by building the power, which takes seconds
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"refusing exponent notation {value!r}; write 'p/q' or a plain decimal")
    return Fraction(value)


class Surd:
    """Exact value of the form ``sum_i (p_i/q_i) * sqrt(r_i)``.

    ``_terms`` holds one ``(r, p, q)`` triple of ints per term, sorted by
    radicand: every ``r`` is square-free, ``p != 0``, ``q > 0`` and
    ``gcd(p, q) == 1``.  Two equal values therefore have identical term
    tuples, and the arithmetic runs on ints with one ``gcd`` per coefficient
    produced.  :attr:`terms` presents the coefficients as ``Fraction``.
    """

    __slots__ = ("_terms",)

    _terms: tuple[tuple[int, int, int], ...]

    def __init__(self, value: RationalLike = 0):
        if type(value) is bool or not isinstance(value, (int, Fraction)):
            value = _coerce_rational(value)
        self._terms = ((1, value.numerator, value.denominator),) if value else ()

    @classmethod
    def _from_map(cls, terms: dict[int, Fraction]) -> "Surd":
        return cls._of(_canonical({r: (c.numerator, c.denominator) for r, c in terms.items()}))

    @classmethod
    def _of(cls, terms: tuple[tuple[int, int, int], ...]) -> "Surd":
        # trusted: ``terms`` is already in canonical form
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def sqrt(cls, value: RationalLike, *, factor_bound: int = DEFAULT_FACTOR_BOUND) -> "Surd":
        """Exact square root of a non-negative rational."""
        if type(value) is bool or not isinstance(value, (int, Fraction)):
            value = _coerce_rational(value)
        if value < 0:
            raise ValueError(f"square root of a negative rational: {value}")
        if not value:
            return cls(0)
        # sqrt(a/b) = sqrt(a*b)/b = (k/b) * sqrt(f)  with  a*b = k^2 * f
        a, b = value.numerator, value.denominator
        k, f = square_free_decompose(a * b, factor_bound)
        g = math.gcd(k, b)
        return cls._of(((f, k // g, b // g),))

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((r, Fraction(p, q)) for r, p, q in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: SurdLike) -> "Surd":
        if type(other) is not Surd:
            other = as_surd(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            (r, p1, q1), = a
            (_, p2, q2), = b
            return Surd._of(_term(r, p1 * q2 + p2 * q1, q1 * q2))
        acc = {r: (p, q) for r, p, q in a}
        for r, p, q in b:
            _accumulate(acc, r, p, q)
        return Surd._of(_canonical(acc))

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd._of(tuple((r, -p, q) for r, p, q in self._terms))

    def __sub__(self, other: SurdLike) -> "Surd":
        other = as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: SurdLike) -> "Surd":
        return (-self) + other

    def __mul__(self, other: SurdLike) -> "Surd":
        if type(other) is not Surd:
            other = as_surd(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._terms, other._terms
        if len(a) == 1 and len(b) == 1:
            # nonzero coefficients have a nonzero product
            (r1, p1, q1), = a
            (r2, p2, q2), = b
            if r1 == 1 or r2 == 1:
                r, p = r1 * r2, p1 * p2
            else:
                g = math.gcd(r1, r2)
                r, p = (r1 // g) * (r2 // g), p1 * p2 * g
            return Surd._of(_term(r, p, q1 * q2))
        acc: dict[int, tuple[int, int]] = {}
        for r1, p1, q1 in a:
            for r2, p2, q2 in b:
                # sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)) with g = gcd;
                # the product of coprime square-free numbers is square-free
                g = math.gcd(r1, r2)
                _accumulate(acc, (r1 // g) * (r2 // g), p1 * p2 * g, q1 * q2)
        return Surd._of(_canonical(acc))

    __rmul__ = __mul__

    def __abs__(self) -> "Surd":
        return -self if self.sign() < 0 else self

    # -- decisions ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        Zero is structural.  A nonzero value is separated from zero by
        interval enclosures of doubling precision, on ints over the common
        denominator; termination follows from the linear independence over
        Q of square roots of distinct square-free integers.
        """
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1:
            return -1 if terms[0][1] < 0 else 1
        d = math.lcm(*[q for _, _, q in terms])
        coeffs = [(r, p * (d // q)) for r, p, q in terms]
        prec = 16
        while True:
            lo = hi = 0
            for r, c in coeffs:
                # m <= 2^prec * sqrt(r) < m + 1
                m = math.isqrt(r << (2 * prec))
                if c > 0:
                    lo += c * m
                    hi += c * (m + 1)
                else:
                    lo += c * (m + 1)
                    hi += c * m
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Surd(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __lt__(self, other: SurdLike) -> bool:
        diff = self - as_surd(other)
        return diff.sign() < 0

    def __le__(self, other: SurdLike) -> bool:
        diff = self - as_surd(other)
        return diff.sign() <= 0

    def __gt__(self, other: SurdLike) -> bool:
        return as_surd(other) < self

    def __ge__(self, other: SurdLike) -> bool:
        return as_surd(other) <= self

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        return sum(p / q * math.sqrt(r) for r, p, q in self._terms)

    def to_json(self) -> list:
        """``[["p/q", radicand], ...]`` sorted by radicand."""
        return [[str(c), r] for r, c in self.terms]

    @classmethod
    def from_json(cls, data) -> "Surd":
        acc: dict[int, Fraction] = {}
        for coeff, r in data:
            # a bool is an int to Python, and a float would be truncated
            if isinstance(coeff, bool):
                raise TypeError(f"refusing bool coefficient {coeff!r}")
            if isinstance(r, bool) or not isinstance(r, int):
                raise TypeError(f"radicand must be an integer, got {r!r}")
            if r < 1:
                raise ValueError(f"radicand must be >= 1, got {r}")
            _, free = square_free_decompose(r)
            if free != r:
                raise ValueError(f"radicand {r} is not square-free")
            acc[r] = acc.get(r, Fraction(0)) + _coerce_rational(coeff)
        return cls._from_map(acc)

    def __repr__(self) -> str:
        return f"Surd({str(self)!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for r, c in self.terms:
            if r == 1:
                text = str(c)
            elif c == 1:
                text = f"sqrt({r})"
            elif c == -1:
                text = f"-sqrt({r})"
            else:
                text = f"{c}*sqrt({r})"
            if parts and not text.startswith("-"):
                parts.append("+" + text)
            else:
                parts.append(text)
        return "".join(parts)


def as_surd(value: SurdLike) -> "Surd":
    if isinstance(value, Surd):
        return value
    if isinstance(value, (int, Fraction)):
        return Surd(value)
    return NotImplemented


ZERO = Surd(0)
HALF = Fraction(1, 2)
