from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from qimm import ratpoly
from qimm.ratpoly import RatPoly, conv, from_t, successive_differences

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
polys = st.lists(rationals, max_size=8).map(RatPoly)

# integer t-arrays and denominators: zeros, signs, and 40-digit values
big = 10**40
t_ints = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-big, big))
t_arrays = st.lists(t_ints, max_size=10)
denoms = st.one_of(st.just(1), st.integers(1, 60), st.integers(1, big))


# -- the Fraction route: a reference for rendering ---------------------------


def reference_coeffs(t_array, denom):
    """q-coefficients of from_t(t_array, denom), one Fraction each, odd
    powers zero, trailing zeros stripped."""
    out = []
    for c in t_array:
        out += (Fraction(c, denom), Fraction(0))
    while out and out[-1] == 0:
        out.pop()
    return out


def reference_format(coeffs):
    """The q-display of a Fraction coefficient list."""
    parts = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            term = str(mag)
        else:
            v = "q" if power == 1 else f"q^{power}"
            if mag == 1:
                term = v
            elif mag.denominator == 1:
                term = f"{mag}{v}"
            else:
                term = f"{mag} {v}"
        parts.append(("- " if c < 0 else "+ ") + term)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def reference_json_list(coeffs):
    return [f"{c.numerator}/{c.denominator}" for c in coeffs]


def test_canonical_strips_trailing_zeros():
    assert RatPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert RatPoly((0, 0)).coeffs == ()
    assert RatPoly(()).coeffs == ()
    assert RatPoly() == RatPoly((0, 0))


def test_canonical_form_and_hash():
    half = RatPoly((Fraction(2, 4),))
    assert half == RatPoly((Fraction(1, 2),))
    assert hash(half) == hash(RatPoly((Fraction(1, 2),)))
    assert (half.nums, half.den) == ((1,), 2)
    p = RatPoly((Fraction(1, 2), 0, Fraction(3, 2)))
    assert (p.nums, p.den) == ((1, 0, 3), 2)
    assert RatPoly.from_ints([2, 0, 6, 0, 0], 4) == p
    assert hash(RatPoly.from_ints([2, 0, 6], 4)) == hash(p)
    assert RatPoly.from_ints([3, 0, 9], 6) != RatPoly.from_ints([1, 0, 3], 1)


def test_zero_has_denominator_one():
    for zero in (RatPoly(), RatPoly((0, Fraction(0, 5))),
                 RatPoly.from_ints([0, 0], 7), RatPoly.from_ints((), 3),
                 from_t([0, 0], 12)):
        assert (zero.nums, zero.den) == ((), 1)
        assert zero == RatPoly() and hash(zero) == hash(RatPoly())
    for den in (0, -3):
        with pytest.raises(ValueError, match="not positive"):
            RatPoly.from_ints([1], den)


def test_difference_of_squares():
    one_plus = RatPoly((1, 1))
    one_minus = RatPoly((1, -1))
    assert one_plus * one_minus == RatPoly((1, 0, -1))


def test_trinomial_fourth_power_coefficients():
    p = RatPoly((1, 1, 1))
    p = (p * p) * (p * p)
    assert p.coeffs == (1, 4, 10, 16, 19, 16, 10, 4, 1)


def test_pow_zero_is_one():
    # p^0 is the empty product, one: the unit of * on either side
    one = RatPoly((1,))
    p = RatPoly((3, 1, 7))
    assert one * p == p == p * one
    assert one * RatPoly() == RatPoly()


def test_eval_squared_trinomial_at_one():
    p = RatPoly((1, 1, 1)) * RatPoly((1, 1, 1))
    assert p(1) == 9


def test_eval_at_zero():
    assert RatPoly((1, 0, -1))(0) == 1


def test_eval_rational_coefficients():
    # 1 + 3q^2 + (4/3)q^4 at q=2: 1 + 12 + 64/3, by direct hand arithmetic
    p = RatPoly((1, 0, 3, 0, Fraction(4, 3)))
    assert p(2) == 1 + 12 + Fraction(64, 3)
    assert p(2) == Fraction(103, 3)


def test_degree_additivity():
    a = RatPoly((1, 2, 3))
    b = RatPoly((-5, 0, 0, 7))
    assert len((a * b).coeffs) == len(a.coeffs) + len(b.coeffs) - 1
    assert (a * RatPoly()).coeffs == ()


def test_json_round_trip():
    p = RatPoly((Fraction(1), Fraction(0), Fraction(-4, 3)))
    assert p.to_json_list() == ["1/1", "0/1", "-4/3"]
    assert RatPoly(map(Fraction, p.to_json_list())) == p


def test_format():
    assert str(RatPoly((1, 0, 3, 0, Fraction(4, 3)))) == "1 + 3q^2 + 4/3 q^4"
    assert str(RatPoly((1, 0, -1))) == "1 - q^2"
    assert str(RatPoly()) == "0"
    assert str(RatPoly((0, -2))) == "-2q"


@given(st.lists(st.integers(-50, 50), max_size=8))
def test_successive_differences_multiply_by_one_minus_x(coeffs):
    # c_k - c_(k-1) is the x^k coefficient of (1 - x) times the polynomial
    assert (successive_differences(coeffs)
            == conv(coeffs, [1, -1])[:len(coeffs)])


@given(polys, polys, rationals)
def test_eval_is_multiplicative(a, b, t):
    assert (a * b)(t) == a(t) * b(t)


@given(polys, polys, rationals)
def test_eval_is_additive(a, b, t):
    assert (a + b)(t) == a(t) + b(t)


@given(polys)
def test_canonical_idempotent(p):
    assert RatPoly(p.coeffs) == p


def power(p, m):
    """p^m as m products from the left."""
    out = RatPoly((1,))
    for _ in range(m):
        out = out * p
    return out


@given(polys, st.integers(min_value=0, max_value=8))
def test_pow_peels_one_factor(p, m):
    # peeled from the other side than `power` builds it
    assert power(p, m + 1) == p * power(p, m)


@given(polys)
def test_serialization_round_trip(p):
    assert RatPoly(map(Fraction, p.to_json_list())) == p


@given(t_arrays, denoms, st.integers(1, 12))
@example([], 1, 1)
@example([0, 0, 0], 7, 1)
@example([-1, 0, 2 * big + 1], 1, 1)
@example([6, -4, 10], 1, 2)
@example([big, -3 * big], 7 * big, 1)
def test_from_t_renders_as_the_fraction_route(t_array, denom, shared):
    # a factor shared by every coefficient and the denominator must not
    # show, in the text or in the JSON strings
    t_array = [c * shared for c in t_array]
    denom *= shared
    p = from_t(t_array, denom)
    want = reference_coeffs(t_array, denom)
    assert str(p) == reference_format(want)
    assert p.to_json_list() == reference_json_list(want)
    assert p.coeffs == tuple(want)
    assert p == RatPoly(want) and hash(p) == hash(RatPoly(want))
    assert p.den > 0 and gcd(*p.nums, p.den) == 1


@given(polys)
def test_rendering_matches_the_fraction_route(p):
    assert str(p) == reference_format(p.coeffs)
    assert p.to_json_list() == reference_json_list(p.coeffs)


def test_hot_path_makes_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(ratpoly, "Fraction", refuse)
    p = from_t([4, -6, 0, 10], 12)
    assert str(p) == "1/3 - 1/2 q^2 + 5/6 q^6"
    assert p.to_json_list() == ["1/3", "0/1", "-1/2", "0/1", "0/1", "0/1",
                                "5/6"]
    assert str(from_t([1, 3], 1)) == "1 + 3q^2"
