from fractions import Fraction

from hypothesis import given, strategies as st

from qimm.ratpoly import RatPoly

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
polys = st.lists(rationals, max_size=8).map(RatPoly)


def test_canonical_strips_trailing_zeros():
    assert RatPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert RatPoly((0, 0)).coeffs == ()
    assert RatPoly(()).coeffs == ()
    assert RatPoly() == RatPoly((0, 0))


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
