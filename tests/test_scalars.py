import decimal
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import multconv
from multconv.measures import Measure
from multconv.scalars import (
    FactorLimitError,
    Surd,
    _coerce_rational,
    as_surd,
    square_free_decompose,
)

SQUARE_FREE = (1, 2, 3, 5, 6, 7, 10, 11, 13, 15)

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


@st.composite
def surds(draw):
    terms = draw(st.lists(st.tuples(st.sampled_from(SQUARE_FREE), rationals), max_size=4))
    acc = Surd(0)
    for rad, coeff in terms:
        acc = acc + coeff * Surd.sqrt(rad)
    return acc


def test_additive_inverse_cancels():
    assert Surd.sqrt(2) + (-Surd.sqrt(2)) == Surd(0)
    assert (Surd.sqrt(2) + (-Surd.sqrt(2))).terms == ()
    assert not (Surd.sqrt(2) + (-Surd.sqrt(2)))
    assert not (Surd.sqrt(2) - Surd.sqrt(2))


def test_distinct_radicands_stay_separate():
    v = Surd(1) + Surd.sqrt(2)
    assert len(v.terms) == 2
    assert v.terms == ((1, Fraction(1)), (2, Fraction(1)))


def test_rational_coefficients_combine():
    v = Fraction(3, 2) * Surd.sqrt(2) + Fraction(1, 2) * Surd.sqrt(2)
    assert v == 2 * Surd.sqrt(2)


def test_product_of_equal_roots_is_rational():
    assert Surd.sqrt(2) * Surd.sqrt(2) == Surd(2)


def test_product_of_coprime_roots():
    assert Surd.sqrt(2) * Surd.sqrt(3) == Surd.sqrt(6)


def test_product_extracts_square_factor():
    # 6 * 10 = 60 = 4 * 15
    assert Surd.sqrt(6) * Surd.sqrt(10) == 2 * Surd.sqrt(15)


def test_sqrt_perfect_square():
    assert Surd.sqrt(4) == Surd(2)
    assert Surd.sqrt(Fraction(25, 9)) == Surd(Fraction(5, 3))


def test_sqrt_half():
    v = Surd.sqrt(Fraction(1, 2))
    assert v == Fraction(1, 2) * Surd.sqrt(2)
    assert v * v == Surd(Fraction(1, 2))


def test_sqrt_negative_rejected():
    with pytest.raises(ValueError):
        Surd.sqrt(-1)


def test_sign_examples():
    assert Surd(0).sign() == 0
    assert (Surd.sqrt(3) - Surd.sqrt(2)).sign() == 1
    assert (Surd(1) - Surd.sqrt(2)).sign() == -1


def test_sign_close_call():
    # 985/696 is a convergent of sqrt(2); the difference is ~1e-6
    assert (Surd(Fraction(985, 696)) - Surd.sqrt(2)).sign() == 1
    assert (Surd.sqrt(2) - Surd(Fraction(1393, 985))).sign() == 1


def _convergents(k: int, steps: int) -> list[Fraction]:
    # x -> (x + k)/(x + 1) converges to sqrt(k) from alternating sides
    x, out = Fraction(1), []
    for _ in range(steps):
        x = (x + k) / (x + 1)
        out.append(x)
    return out


@pytest.mark.parametrize("k", [2, 3])
def test_sign_of_convergent_combinations_matches_decimals(k):
    # close calls on both sides of zero, over several radicands and denominators
    root, cross = Surd.sqrt(k), Surd.sqrt(5 * k)
    for a in _convergents(k, 30):
        for v in (
            a - root,
            root - a,
            a * Surd.sqrt(5) - cross,
            (a - root) + Fraction(1, 10**12) * (Surd.sqrt(7) - Surd(Fraction(53, 20))),
            (a - root) * Fraction(3, 7) + (root - a) * Fraction(2, 5) * Surd.sqrt(11),
        ):
            assert v.sign() == ref_sign(dict(v.terms)), v


def test_float_rejected():
    with pytest.raises(TypeError):
        Surd(0.5)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("make", [Surd, Surd.sqrt, as_surd], ids=["surd", "sqrt", "as_surd"])
def test_bool_refused(make, value):
    # a bool is an int to Python, so True used to read as 1
    with pytest.raises(TypeError, match="bool"):
        make(value)


def test_measure_refuses_bool_weight():
    with pytest.raises(TypeError, match="bool"):
        Measure(1, {(1,): True})


# three primes just above the trial-division bound 10**6: the cofactor left
# at the bound is above 10**18, so it cannot be read as 1, p, p**2 or p*q
OVER_BOUND = (10**6 + 3) * (10**6 + 33) * (10**6 + 37)


def test_factor_bound_exceeded():
    with pytest.raises(FactorLimitError):
        square_free_decompose(OVER_BOUND)
    with pytest.raises(FactorLimitError):
        Surd.sqrt(OVER_BOUND)


def test_square_free_decompose_certifies_prime_cofactor():
    p, q = 10**6 + 3, 10**6 + 33
    cases = [
        # the cofactor 1009 is certified prime by trial division to its cube root
        (4 * 1009, (2, 1009)),
        # cofactors p**2 and p*q with both primes beyond the cube root
        (p**2, (p, 1)),
        (12 * p**2, (2 * p, 3)),
        (p * q, (1, p * q)),
        # |(2000000, 19)|**2 is prime; it used to exceed the bound
        (4000000000361, (1, 4000000000361)),
    ]
    for m, expected in cases:
        assert square_free_decompose(m) == expected, m


def test_square_free_decompose_memo_returns_and_raises_as_before():
    plain = square_free_decompose.__wrapped__
    for m in list(range(1, 200)) + [4 * 1009, 2**40 * 3]:
        for _ in range(2):
            assert square_free_decompose(m) == plain(m)
    # an over-bound radicand raises every time, with the same message
    messages = []
    for _ in range(3):
        with pytest.raises(FactorLimitError) as exc:
            square_free_decompose(OVER_BOUND)
        messages.append(str(exc.value))
    assert messages == [messages[0]] * 3
    assert "exceeds the trial-division bound 1000000" in messages[0]
    for _ in range(2):
        with pytest.raises(ValueError, match="expected a positive integer"):
            square_free_decompose(0)


def test_square_free_decompose_against_factorisation():
    # the square part read off a full trial factorisation, on every m < 2000
    for m in range(1, 2000):
        k = max(d for d in range(1, math.isqrt(m) + 1) if m % (d * d) == 0)
        f = m // (k * k)
        assert square_free_decompose(m) == (k, f), m


@given(surds(), surds(), surds())
@settings(max_examples=150, deadline=None)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Surd(0) == a
    assert a * Surd(1) == a


@given(surds())
@settings(max_examples=150, deadline=None)
def test_square_sign(a):
    assert (a * a).sign() in (0, 1)
    assert (a * a).sign() == 0 if a.is_zero() else (a * a).sign() == 1


@given(surds())
@settings(max_examples=100, deadline=None)
def test_zero_iff_empty_terms(a):
    assert (a.sign() == 0) == (a.terms == ())


@given(st.fractions(min_value=0, max_value=Fraction(100), max_denominator=30))
@settings(max_examples=150, deadline=None)
def test_sqrt_round_trip(q):
    s = Surd.sqrt(q)
    assert s * s == Surd(q)
    assert s.sign() >= 0


@given(surds(), surds())
@settings(max_examples=100, deadline=None)
def test_structural_equality_is_semantic(a, b):
    # values agree exactly when the canonical term tuples agree
    assert (a == b) == ((a - b).sign() == 0)
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "value, text",
    [
        (Surd(0), "0"),
        (Surd(Fraction(-3, 4)), "-3/4"),
        (Surd.sqrt(2), "sqrt(2)"),
        (-Surd.sqrt(2), "-sqrt(2)"),
        (Fraction(2, 3) * Surd.sqrt(5), "2/3*sqrt(5)"),
        (Surd(Fraction(1, 2)) - Surd.sqrt(2) + Surd.sqrt(3) - 2 * Surd.sqrt(5), "1/2-sqrt(2)+sqrt(3)-2*sqrt(5)"),
        (Surd.sqrt(3) + Surd(-1), "-1+sqrt(3)"),
    ],
    ids=["zero", "rational", "root", "minus-root", "scaled-root", "mixed", "leading-sign"],
)
def test_str_and_repr_show_every_term_form(value, text):
    assert str(value) == text
    assert repr(value) == f"Surd({text!r})"


@given(surds())
@settings(max_examples=100, deadline=None)
def test_json_round_trip(a):
    assert Surd.from_json(a.to_json()) == a


def test_json_format():
    v = Surd(Fraction(3, 2)) - Surd.sqrt(2)
    assert v.to_json() == [["3/2", 1], ["-1", 2]]


def test_json_rejects_non_square_free():
    with pytest.raises(ValueError):
        Surd.from_json([["1", 4]])


@pytest.mark.parametrize(
    "data",
    [[["1", 2.5]], [["1", 2.0]], [[0.1, 1]], [["1", True]], [[True, 1]], [["1", "2"]]],
    ids=["float-radicand", "integral-float-radicand", "float-coefficient", "bool-radicand",
         "bool-coefficient", "string-radicand"],
)
def test_json_refuses_floats_bools_and_text(data):
    # a float radicand used to be truncated, a float coefficient read as its
    # binary fraction, and True taken as the radicand 1
    with pytest.raises(TypeError):
        Surd.from_json(data)


def test_ordering_via_sign():
    assert Surd.sqrt(2) < Surd.sqrt(3)
    assert Surd.sqrt(2) <= Surd.sqrt(2)
    assert Surd(3) > Surd.sqrt(8)


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_ordering_refuses_a_float_by_name(op):
    # each comparison hands the refused operand back to Python, which names it
    with pytest.raises(TypeError, match="'Surd' and 'float'"):
        eval(f"Surd(1) {op} 1.5")
    with pytest.raises(TypeError, match="'float' and 'Surd'"):
        eval(f"1.5 {op} Surd(1)")


def general(terms: dict) -> Surd:
    """The value as the general dict route builds it."""
    return Surd.from_json([[str(Fraction(c)), r] for r, c in terms.items()])


@pytest.mark.parametrize(
    "got, terms",
    [
        (Surd.sqrt(6) * Surd.sqrt(10), {15: 2}),
        (Surd(Fraction(3, 2)) * Surd.sqrt(5), {5: Fraction(3, 2)}),
        (Surd.sqrt(5) * Surd(Fraction(3, 2)), {5: Fraction(3, 2)}),
        (Surd.sqrt(2) + (-Surd.sqrt(2)), {}),
        (Surd(Fraction(1, 3)) + Surd(Fraction(2, 3)), {1: 1}),
        (Surd.sqrt(2) * (Surd(1) + Surd.sqrt(2)), {1: 2, 2: 1}),
        ((Surd(1) + Surd.sqrt(2)) * Surd.sqrt(2), {1: 2, 2: 1}),
    ],
    ids=[
        "surd-times-surd",
        "rational-times-surd",
        "surd-times-rational",
        "cancelling-sum",
        "rational-sum",
        "one-term-times-two-term",
        "two-term-times-one-term",
    ],
)
def test_fast_paths_match_general_route(got, terms):
    want = general(terms)
    assert got.terms == want.terms
    assert all(type(r) is int and type(c) is Fraction for r, c in got.terms)
    assert got == want
    assert hash(got) == hash(want)


nonzero = rationals.filter(bool)


@given(st.sampled_from(SQUARE_FREE), nonzero, st.sampled_from(SQUARE_FREE), nonzero)
@settings(max_examples=150, deadline=None)
def test_one_term_products_and_sums(r1, c1, r2, c2):
    a = c1 * Surd.sqrt(r1)
    b = c2 * Surd.sqrt(r2)
    # c1*sqrt(r1) * c2*sqrt(r2) = c1*c2*k*sqrt(f) with r1*r2 = k**2 * f
    k, f = square_free_decompose(r1 * r2)
    assert a * b == general({f: c1 * c2 * k})
    assert hash(a * b) == hash(general({f: c1 * c2 * k}))
    if r1 == r2:
        assert a + b == general({r1: c1 + c2})
        assert hash(a + b) == hash(general({r1: c1 + c2}))


# -- the integer-triple representation ------------------------------------------


def assert_canonical(s: Surd) -> None:
    radicands = [t[0] for t in s._terms]
    assert radicands == sorted(set(radicands))
    for r, p, q in s._terms:
        assert type(r) is int and type(p) is int and type(q) is int
        assert square_free_decompose(r) == (1, r)
        assert p != 0 and q > 0 and math.gcd(p, q) == 1


OPS = ("add", "sub", "rsub", "mul", "neg", "sqrt", "json", "rational")


@given(surds(), st.lists(st.tuples(st.sampled_from(OPS), surds(), rationals), max_size=6))
@settings(max_examples=100, deadline=None)
def test_chains_stay_canonical(start, steps):
    acc = start
    assert_canonical(acc)
    for op, other, q in steps:
        if op == "add":
            acc = acc + other
        elif op == "sub":
            acc = acc - other
        elif op == "rsub":
            acc = q - acc
        elif op == "mul":
            acc = acc * other
        elif op == "neg":
            acc = -acc
        elif op == "sqrt":
            acc = acc * Surd.sqrt(abs(q))
        elif op == "json":
            acc = Surd.from_json(acc.to_json() + other.to_json())
        else:
            acc = acc * q + q
        assert_canonical(acc)


def ref_add(x: dict, y: dict) -> dict:
    acc = dict(x)
    for r, c in y.items():
        acc[r] = acc.get(r, Fraction(0)) + c
    return {r: c for r, c in acc.items() if c}


def ref_mul(x: dict, y: dict) -> dict:
    acc: dict = {}
    for r1, c1 in x.items():
        for r2, c2 in y.items():
            k, f = square_free_decompose(r1 * r2)
            acc[f] = acc.get(f, Fraction(0)) + c1 * c2 * k
    return {r: c for r, c in acc.items() if c}


def ref_sign(x: dict) -> int:
    # 120 digits separate from zero every nonzero value these small
    # coefficients and radicands can form
    with decimal.localcontext(decimal.Context(prec=120)):
        total = sum(
            (decimal.Decimal(c.numerator) / c.denominator * decimal.Decimal(r).sqrt() for r, c in x.items()),
            decimal.Decimal(0),
        )
    return (total > 0) - (total < 0)


@given(surds(), surds())
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_fraction_maps(a, b):
    x, y = dict(a.terms), dict(b.terms)
    assert all(type(c) is Fraction for c in x.values())
    assert dict((a + b).terms) == ref_add(x, y)
    assert dict((a - b).terms) == ref_add(x, {r: -c for r, c in y.items()})
    assert dict((a * b).terms) == ref_mul(x, y)
    for v in (a, b, a + b, a - b, a * b):
        assert v.sign() == ref_sign(dict(v.terms))


@pytest.mark.parametrize(
    "left, right",
    [
        (Surd(Fraction(2, 4)), Surd.sqrt(Fraction(1, 4))),
        (Surd.sqrt(8), 2 * Surd.sqrt(2)),
        (Surd.sqrt(Fraction(9, 2)), Fraction(3, 2) * Surd.sqrt(2)),
        (Surd("-6/4"), -Surd(Fraction(3, 2))),
        (Surd.from_json([["2/4", 3], ["1", 1]]), Surd(1) + Surd.sqrt(Fraction(3, 4))),
        (Surd.from_json([["3", 2], ["0", 5]]), Surd.sqrt(18)),
        (Surd.sqrt(2) * Surd.sqrt(2), Surd(2)),
        ((Surd(1) + Surd.sqrt(2)) - Surd(1), Surd.sqrt(2)),
        (Surd.sqrt(0), Surd.sqrt(3) - Surd.sqrt(3)),
    ],
    ids=["half", "sqrt8", "sqrt-9/2", "text", "json", "map", "square", "cancel", "zero"],
)
def test_equal_values_hash_equal_across_routes(left, right):
    assert left == right
    assert left._terms == right._terms
    assert hash(left) == hash(right)


@given(surds(), surds())
@settings(max_examples=100, deadline=None)
def test_rebuilt_values_hash_equal(a, b):
    for rebuilt in (Surd.from_json(a.to_json()), Surd.from_json(a.to_json()[::-1]), a + 0, 1 * a,
                    -(-a), (a + b) - b, (b + a) - b):
        assert_canonical(rebuilt)
        assert rebuilt == a
        assert hash(rebuilt) == hash(a)


@pytest.mark.parametrize(
    "text, value",
    [
        ("1_000", 1000),
        ("1_0/3", Fraction(10, 3)),
        ("1.5_0", Fraction(3, 2)),
        ("-1_0", -10),
        ("\u0661_\u0662", 12),  # Arabic-Indic digits
        ("1__0", None),
        ("_1", None),
        ("1_", None),
        ("1_/2", None),
        ("\u00b2_1", None),  # a superscript two is a digit but not decimal
    ],
    ids=repr,
)
def test_digit_groups_read_alike_on_every_python(text, value):
    # Fraction reads "1_000" from Python 3.11 on; the reader does on 3.10 too
    if value is None:
        with pytest.raises(ValueError, match=re.escape(f"Invalid literal for Fraction: {text!r}")):
            _coerce_rational(text)
    else:
        assert _coerce_rational(text) == value


def test_digit_groups_past_the_int_digit_limit_raise_as_without_groups():
    with pytest.raises(ValueError) as grouped:
        _coerce_rational("1" + "_000" * 1500)
    with pytest.raises(ValueError) as plain:
        _coerce_rational("1" + "000" * 1500)
    assert str(grouped.value) == str(plain.value)


@pytest.mark.parametrize("call", [lambda: Surd(1) + 0.5], ids=["float-addend"])
def test_refusals(call):
    with pytest.raises(TypeError, match="unsupported operand"):
        call()


@pytest.mark.parametrize("text", ["Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "read",
    [
        lambda x: Measure(2, {(x, 1): 1}),
        lambda x: Measure(2, {(1, 2): 1}).weight_at((1, x)),
        lambda x: Measure(1, {(1,): x}),
        Surd,
        Surd.sqrt,
    ],
    ids=["constructor-point", "weight_at", "constructor-weight", "surd", "sqrt"],
)
def test_decimal_infinity_is_refused_by_value(read, text):
    # as a NaN is, with a ValueError, not Fraction's OverflowError
    value = decimal.Decimal(text)
    with pytest.raises(ValueError, match=re.escape(f"refusing {value!r}: an infinity is not a rational")):
        read(value)
    with pytest.raises(ValueError, match="cannot convert NaN"):
        read(decimal.Decimal("NaN"))


# Fraction.__new__ calls while the constructor refuses a column of decimal
# texts with one bad value among them
_COUNT_REFUSAL = """import sys
from fractions import Fraction
from multconv.measures import Measure

values = [f"{k}.5" for k in range(12)] + ["x"] + [f"{k}.25" for k in range(12)]
new = Fraction.__new__.__code__
calls = []
sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code is new and calls.append(1))
try:
    Measure(1, {(v,): 1 for v in values})
except ValueError as exc:
    sys.setprofile(None)
    print(len(calls), exc)
"""


def test_refused_column_reads_the_same_values_under_every_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(multconv.__file__)))
    outs = {
        subprocess.run([sys.executable, "-c", _COUNT_REFUSAL], capture_output=True, text=True, timeout=120, check=True,
                       env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))).stdout
        for seed in range(4)
    }
    # the values before the refused one, in order, once by the column reader
    # and once by the walk that raises
    assert outs == {"26 Invalid literal for Fraction: 'x'\n"}
