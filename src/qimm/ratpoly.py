"""Exact polynomials at the library's edge, and the one convolution.

Inside the library every polynomial is a plain integer coefficient list
(most of them in t = q^2, the q-Laplacian's entries in q).  RatPoly is
the type a polynomial leaves the library as: a canonical tuple of
Fraction coefficients in ascending power order, trailing zeros stripped,
so the zero polynomial is the empty tuple.  It renders in q (`format`)
and serializes (`to_json_list`, "num/den" strings that `Fraction` parses
back), and keeps exact `+`, `-`, `*`, `scale` and evaluation, which tests
use as an independent route and `perfbench/tracing.py` traces by name.
Nothing here touches a float.  Degrees stay small (at most twice the
number of tree vertices), so the representation is dense.

`conv` is the one dense convolution of integer lists and
`successive_differences` the one product with 1 - x; `from_t` is the one
conversion from an integer t-list over a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
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

    def format(self) -> str:
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
                v = "q" if power == 1 else f"q^{power}"
                if mag == 1:
                    term = v
                elif mag.denominator == 1:
                    term = f"{mag}{v}"
                else:
                    term = f"{mag} {v}"
            parts.append(("- " if c < 0 else "+ ") + term)
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


def from_t(coeffs: Iterable[int], denom: int = 1) -> RatPoly:
    """Polynomial in q from integer coefficients in t = q^2, all divided
    by one common denominator."""
    out: list = []
    for c in coeffs:
        out += (Fraction(c, denom), 0)
    return RatPoly(out)
