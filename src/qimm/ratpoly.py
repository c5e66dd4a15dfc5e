"""Exact polynomials at the library's edge, and the one convolution.

Inside the library every polynomial is a plain integer coefficient list
(most of them in t = q^2, the q-Laplacian's entries in q).  RatPoly is
the type a polynomial leaves the library as, and it stays integer too:
a tuple of integer numerators in ascending power order over one positive
denominator, trailing zeros stripped and no factor common to all of
them, so the zero polynomial is the empty tuple over 1.  One `math.gcd`
at construction keeps that form canonical; equality and hashing compare
it.  Each coefficient is reduced on its own (one integer gcd) only where
it is rendered: in q (`format`) and as "num/den" strings that `Fraction`
parses back (`to_json_list`).  `coeffs`, the Fraction coefficients, is
made only when read.  Exact `+`, `-`, `*`, `scale` and evaluation stay,
which tests use as an independent route and `perfbench/tracing.py`
traces by name.  Nothing here touches a float.  Degrees stay small (at
most twice the number of tree vertices), so the representation is dense.

`conv` is the one dense convolution of integer lists and
`successive_differences` the one product with 1 - x; `from_t` is the one
conversion from an integer t-list over a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import sub
from typing import Iterable, Sequence


@dataclass(frozen=True, init=False, slots=True)
class RatPoly:
    """Polynomial in one indeterminate with exact rational coefficients.

    nums[k] / den is the coefficient of the k-th power.  Instances are
    immutable and canonical: den > 0, the top stored numerator is
    nonzero, gcd(*nums, den) == 1, and the zero polynomial is () over 1.
    `RatPoly(coeffs)` takes any rational coefficients; `from_ints` takes
    integer numerators over one denominator.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable = ()):
        fracs = [c if isinstance(c, Fraction) else Fraction(c)
                 for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        self._settle([c.numerator * (den // c.denominator) for c in fracs],
                     den)

    @classmethod
    def from_ints(cls, nums: Iterable[int], den: int = 1) -> "RatPoly":
        """The polynomial with coefficients nums[k] / den, den > 0."""
        if den <= 0:
            raise ValueError(f"RatPoly denominator {den} is not positive")
        poly = object.__new__(cls)
        poly._settle(list(nums), den)
        return poly

    def _settle(self, nums: list[int], den: int) -> None:
        """Store nums / den in canonical form; `nums` is consumed."""
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(*nums, den)  # den itself when nums is empty: zero is () / 1
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """coeffs[k], the coefficient of the k-th power, as a Fraction."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a = [c * other.den for c in self.nums]
        b = [c * self.den for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return RatPoly.from_ints(a, self.den * other.den)

    def __neg__(self) -> "RatPoly":
        return RatPoly.from_ints([-c for c in self.nums], self.den)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        return RatPoly.from_ints(conv(self.nums, other.nums),
                                 self.den * other.den)

    def scale(self, factor) -> "RatPoly":
        f = Fraction(factor)
        return RatPoly.from_ints([c * f.numerator for c in self.nums],
                                 self.den * f.denominator)

    def __call__(self, point) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- serialization and display --------------------------------------

    def to_json_list(self) -> list[str]:
        """Coefficients as reduced "num/den" strings, ascending power
        order."""
        den = self.den
        out = []
        for c in self.nums:
            g = gcd(c, den)
            out.append(f"{c // g}/{den // g}")
        return out

    def format(self) -> str:
        den = self.den
        parts = []
        for power, c in enumerate(self.nums):
            if not c:
                continue
            g = gcd(c, den)
            num, d = abs(c) // g, den // g
            term = str(num) if d == 1 else f"{num}/{d}"
            if power:
                v = "q" if power == 1 else f"q^{power}"
                if term == "1":
                    term = v
                elif d == 1:
                    term += v
                else:
                    term += " " + v
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        # later terms join with spaced signs; the first carries its own
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]

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


def successive_differences(coeffs: Sequence[int]) -> list[int]:
    """c_k - c_(k-1) for k < len(coeffs), with c_(-1) = 0: the first
    len(coeffs) coefficients of (1 - x) times the polynomial."""
    return list(map(sub, coeffs, [0, *coeffs]))


def from_t(coeffs: Sequence[int], denom: int = 1) -> RatPoly:
    """Polynomial in q from integer coefficients in t = q^2, all divided
    by one common denominator; the odd powers are zero."""
    nums = [0] * (2 * len(coeffs) - 1) if coeffs else []
    nums[::2] = coeffs
    return RatPoly.from_ints(nums, denom)
