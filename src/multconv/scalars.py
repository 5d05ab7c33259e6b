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
import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from numbers import Rational
from operator import attrgetter, itemgetter
from typing import Sequence, Union

RationalLike = Union[int, Fraction]
SurdLike = Union[int, Fraction, "Surd"]

DEFAULT_FACTOR_BOUND = 10**6


class FactorLimitError(ValueError):
    """A radicand could not be certified square-free by trial division."""


@functools.lru_cache(maxsize=1 << 12, typed=True)
def square_free_decompose(m: int) -> tuple[int, int]:
    """Split ``m >= 1`` as ``k**2 * f`` with ``f`` square-free.

    Trial division to the cube root leaves a cofactor 1, ``p``, ``p**2``
    or ``p*q``, which ``math.isqrt`` tells apart.  Raises
    :class:`FactorLimitError` when a divisor beyond ``DEFAULT_FACTOR_BOUND``
    would be needed (a cofactor above its cube).  Results are memoised:
    square roots recur on a handful of distinct norms.  A raised error is
    not cached, so it is raised again on every call.
    """
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m}")
    square = 1
    free = 1
    d = 2
    while d * d * d <= m:
        if d > DEFAULT_FACTOR_BOUND:
            raise FactorLimitError(f"{_radicand_text(m)} exceeds the trial-division bound {DEFAULT_FACTOR_BOUND}")
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            square *= d ** (e // 2)
            if e % 2:
                free *= d
        d += 1 if d == 2 else 2
    # no prime below d divides the cofactor, and it is below d**3
    root = math.isqrt(m)
    if root * root == m:
        return square * root, free
    return square, free * m


def _radicand_text(m: int) -> str:
    """``"radicand m"``, or ``m``'s digit count when ``m`` is over the int
    digit limit, where formatting it would raise int's own error."""
    limit = sys.get_int_max_str_digits()
    # below 8**limit, ``m`` has fewer digits than the limit
    if not limit or m.bit_length() <= 3 * limit:
        return f"radicand {m}"
    # (b - 1) * 0.30102 is below log10(m), so ``d`` starts at most at the count
    d = (m.bit_length() - 1) * 30102 // 100000
    while 10**d <= m:
        d += 1
    return f"radicand of {d} digits" if d > limit else f"radicand {m}"


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


# the types ``Fraction`` reads: a rational, its text, a float or a decimal
_NUMBER_TYPES = (Rational, str, float, Decimal)


def _coerce_rational(value) -> Fraction:
    # a bool is an int to Python: True would read as 1
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {type(value).__name__} input; use Fraction or int for exactness")
    if not isinstance(value, _NUMBER_TYPES):
        raise TypeError(f"refusing {type(value).__name__} input; use Fraction, int, or 'p/q' strings")
    # Fraction parses "1e10000000" by building the power, which takes seconds
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"refusing exponent notation {value!r}; write 'p/q' or a plain decimal")
    # Python 3.12 reads "1 /2" as 1/2; refuse it with 3.11's message
    if isinstance(value, str) and any(map(str.isspace, value.strip())):
        raise ValueError(f"Invalid literal for Fraction: {value!r}")
    # Python 3.11 reads digit groups, "1_000", each "_" between two decimal
    # digits; read them alike on 3.10, and name the text as given on refusal
    if isinstance(value, str) and "_" in value:
        groups = value.split("_")
        if all(a[-1:].isdecimal() and b[:1].isdecimal() for a, b in zip(groups, groups[1:])):
            try:
                return Fraction("".join(groups))
            except ValueError as exc:
                _refuse_long(exc, value)
        raise ValueError(f"Invalid literal for Fraction: {value!r}")
    try:
        return Fraction(value)
    except ValueError as exc:
        _refuse_long(exc, value)
        raise
    except OverflowError:  # a Decimal infinity; a NaN raises ValueError
        raise ValueError(f"refusing {value!r}: an infinity is not a rational") from None


def _refuse_long(exc: ValueError, text) -> None:
    """Raise int's refusal of a number over the digit limit with one message
    on every Python (3.10 words its own differently); return on any other
    error.  The count is that of the longest run of digits in ``text``."""
    if str(exc).startswith("Exceeds the limit"):
        digits = max(map(len, re.findall(r"\d+", str(text).replace("_", ""))), default=0)
        raise ValueError(
            f"refusing a number of {digits} digits: integer string conversion is limited"
            f" to {sys.get_int_max_str_digits()} digits (sys.set_int_max_str_digits)"
        ) from None


# the strings that the column reader reads by one match, each followed by a
# comma: ASCII ``"p"`` or ``"p/q"`` with an optional minus on ``p`` and ``q``
# nonzero
_RATIONALS = re.compile(r"(?:-?[0-9]+(?:/0*[1-9][0-9]*)?,)+")
# ``get(d, d)`` reads a missing denominator "" as "1" and keeps any other
_ONE = {"": "1"}
_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


def _rational_column(values: Sequence) -> tuple[Sequence[int], Sequence[int] | None] | None:
    """A column of rationals as numerators and denominators, not reduced,
    the denominators ``None`` when every one is 1, for every value that
    :func:`_coerce_rational` reads; ``None`` for a column holding a value it
    refuses, which the caller then walks value by value to raise it.

    Ints and ``Fraction`` values are read by their attributes.  The strings
    ``"p"`` and ``"p/q"`` of ASCII digits are checked by one match on the
    joined text of the distinct ones and parsed by C-level maps.  Any other
    form (a ``Decimal``, digit groups, a sign or spaces, and a zero
    denominator or a number over the int digit limit, which are refused) goes
    through ``_coerce_rational`` once per distinct value, after the bool and
    float types, which hash equal to ints, are refused."""
    types = set(map(type, values))
    if types <= {int}:
        return values, None
    if types <= {int, str}:
        distinct = list(set(values))
        ints = [v for v in distinct if type(v) is int] if int in types else ()
        if ints:
            distinct = [v for v in distinct if type(v) is str]
        text = ",".join(distinct) + ","
        # a comma inside a value would split it in two
        if text.count(",") == len(distinct) and _RATIONALS.fullmatch(text):
            try:
                if "/" not in text:
                    # an int is its own numerator
                    return list(map(dict(zip(distinct, map(int, distinct))).get, values, values)), None
                split = list(map(str.partition, distinct, repeat("/")))
                dens = list(map(itemgetter(2), split))
                pairs = dict(zip(distinct, zip(map(int, map(itemgetter(0), split)), map(int, map(_ONE.get, dens, dens)))))
            except ValueError:  # over the digit limit
                return None
            if ints:
                pairs.update(zip(ints, zip(ints, repeat(1))))
            nums, dens = zip(*map(pairs.__getitem__, values))
            return nums, dens
    if types <= {int, Fraction}:
        return list(map(_NUMERATOR, values)), list(map(_DENOMINATOR, values))
    if any([issubclass(t, (bool, float)) or not issubclass(t, _NUMBER_TYPES) for t in types]):
        return None
    try:
        read = {v: _coerce_rational(v) for v in set(values)}
    except (ArithmeticError, TypeError, ValueError):
        return None
    fractions = list(map(read.__getitem__, values))
    return list(map(_NUMERATOR, fractions)), list(map(_DENOMINATOR, fractions))


def _ratio_text(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for ``q > 0``, with one gcd."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def _json_terms(data) -> list[tuple[int, int, int]]:
    """The ``(r, p, q)`` terms of a JSON surd ``[["p/q", r], ...]``, checked
    but neither reduced nor merged."""
    out = []
    for coeff, r in data:
        # a bool is an int to Python, and a float would be truncated
        if isinstance(coeff, bool):
            raise TypeError(f"refusing bool coefficient {coeff!r}")
        if not isinstance(coeff, _NUMBER_TYPES):
            raise TypeError(f"refusing {type(coeff).__name__} coefficients; use Fraction, int, or 'p/q' strings")
        if isinstance(r, bool) or not isinstance(r, int):
            raise TypeError(f"radicand must be an integer, got {r!r}")
        if r < 1:
            raise ValueError(f"radicand must be >= 1, got {r}")
        if r != 1 and square_free_decompose(r)[1] != r:
            raise ValueError(f"radicand {r} is not square-free")
        f = _coerce_rational(coeff)
        out.append((r, f.numerator, f.denominator))
    return out


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
    def _of(cls, terms: tuple[tuple[int, int, int], ...]) -> "Surd":
        # trusted: ``terms`` is already in canonical form
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def sqrt(cls, value: RationalLike) -> "Surd":
        """Exact square root of a non-negative rational."""
        if type(value) is bool or not isinstance(value, (int, Fraction)):
            value = _coerce_rational(value)
        if value < 0:
            raise ValueError(f"square root of a negative rational: {value}")
        if not value:
            return cls(0)
        # sqrt(a/b) = sqrt(a*b)/b = (k/b) * sqrt(f)  with  a*b = k^2 * f
        a, b = value.numerator, value.denominator
        k, f = square_free_decompose(a * b)
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
        acc: dict[int, tuple[int, int]] = {}
        for r1, p1, q1 in self._terms:
            for r2, p2, q2 in other._terms:
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

    def _compare(self, other: SurdLike):
        """The sign of ``self - other``, or ``NotImplemented`` for an operand
        that is not exact, so that Python raises the ``TypeError``."""
        other = as_surd(other)
        return other if other is NotImplemented else (self - other).sign()

    def __lt__(self, other: SurdLike) -> bool:
        s = self._compare(other)
        return s if s is NotImplemented else s < 0

    def __le__(self, other: SurdLike) -> bool:
        s = self._compare(other)
        return s if s is NotImplemented else s <= 0

    def __gt__(self, other: SurdLike) -> bool:
        s = self._compare(other)
        return s if s is NotImplemented else s > 0

    def __ge__(self, other: SurdLike) -> bool:
        s = self._compare(other)
        return s if s is NotImplemented else s >= 0

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        return sum(p / q * math.sqrt(r) for r, p, q in self._terms)

    def to_json(self) -> list:
        """``[["p/q", radicand], ...]`` sorted by radicand."""
        return [[_ratio_text(p, q), r] for r, p, q in self._terms]

    @classmethod
    def from_json(cls, data) -> "Surd":
        acc: dict[int, tuple[int, int]] = {}
        for r, p, q in _json_terms(data):
            _accumulate(acc, r, p, q)
        return cls._of(_canonical(acc))

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


HALF = Fraction(1, 2)
