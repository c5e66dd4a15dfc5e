"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a dense tuple of Fraction coefficients in ascending power
order, with trailing zeros stripped.  The zero polynomial is the empty
tuple.  All arithmetic is exact; nothing here ever touches a float.

Degrees in this project stay small (at most twice the number of tree
vertices), so the dense representation is deliberate.

The tree-side computations run on plain integer coefficient lists (most
of them in t = q^2) and meet RatPoly only at the API and serialization
edge: `conv` is the one dense convolution, `from_t` the one conversion
from an integer t-list over a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def _canon(coeffs: Iterable) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class RatPoly:
    """Polynomial in one indeterminate with exact rational coefficients.

    coeffs[k] is the coefficient of the k-th power.  Instances are
    immutable and canonical: the top stored coefficient is nonzero, and
    the zero polynomial is the empty tuple.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _canon(self.coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "RatPoly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def is_even(self) -> bool:
        """True iff every odd-power coefficient vanishes."""
        return all(c == 0 for c in self.coeffs[1::2])

    def is_nonneg(self) -> bool:
        """True iff every coefficient is >= 0."""
        return all(c >= 0 for c in self.coeffs)

    def even_nonneg(self) -> tuple[bool, bool]:
        """(is even, has nonnegative coefficients) as one pair."""
        return self.is_even(), self.is_nonneg()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        return RatPoly(conv(self.coeffs, other.coeffs))

    def __pow__(self, exponent: int) -> "RatPoly":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        result = RatPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, factor) -> "RatPoly":
        f = Fraction(factor)
        return RatPoly(tuple(c * f for c in self.coeffs))

    def __call__(self, point) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- serialization and display --------------------------------------

    def to_json_list(self) -> list[str]:
        """Coefficients as "num/den" strings, ascending power order."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    @classmethod
    def from_json_list(cls, items: Sequence[str]) -> "RatPoly":
        return cls(tuple(Fraction(s) for s in items))

    def format(self, var: str = "q") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for power, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                term = str(mag)
            else:
                v = var if power == 1 else f"{var}^{power}"
                if mag == 1:
                    term = v
                elif mag.denominator == 1:
                    term = f"{mag}{v}"
                else:
                    term = f"{mag} {v}"
            parts.append(("-" if c < 0 else "+", term))
        # first term carries its own sign; later terms join with spaced signs
        sign, term = parts[0]
        text = ("-" if sign == "-" else "") + term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __str__(self) -> str:
        return self.format()


def conv(a: Sequence, b: Sequence) -> list:
    """Coefficient list of the product of two dense coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


ZERO = RatPoly.zero()
ONE = RatPoly.one()
Q = RatPoly.monomial(1)
Q2 = RatPoly.monomial(2)


def from_ints(coeffs: Iterable[int]) -> RatPoly:
    """Build a polynomial from plain integer coefficients."""
    return RatPoly(tuple(Fraction(c) for c in coeffs))


def from_t(coeffs: Iterable[int], denom: int = 1) -> RatPoly:
    """Polynomial in q from integer coefficients in t = q^2, all divided
    by one common denominator."""
    out: list = []
    for c in coeffs:
        out += (Fraction(c, denom), 0)
    return RatPoly(out)
