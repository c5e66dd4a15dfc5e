"""Symmetric-group character data: Murnaghan-Nakayama, two-row closed form,
alpha tables, and the last-row (trinomial difference) triangle.

alpha_{n,lambda,i} is the integer (1/2^i) * sum_j C(i,j) chi_lambda(j),
where chi_lambda(j) is the irreducible character at cycle type
2^j 1^(n-2j).  For two-row shapes (n-k, k) we write alpha_{n,k,i}; the
convention is alpha_{n,k,i} = 0 whenever k or i exceeds floor(n/2).

last_{l,k} = alpha_{2l,k,l} equals the difference of successive trinomial
coefficients p_{l,k} - p_{l,k-1}, with p_{l,k} the coefficient of x^k in
(1 + x + x^2)^l.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb, factorial
from operator import lt
from typing import Iterator, Sequence

from .ratpoly import conv


def as_partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Validate a weakly decreasing sequence of positive integers."""
    t = tuple(map(int, parts))
    if t and min(t) < 1:
        raise ValueError(f"partition parts must be positive: {t}")
    if any(map(lt, t, t[1:])):
        raise ValueError(f"partition must be weakly decreasing: {t}")
    return t


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n in weakly decreasing form."""

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def two_cycle_type(n: int, j: int) -> tuple[int, ...]:
    """Cycle type 2^j 1^(n-2j)."""
    if not 0 <= 2 * j <= n:
        raise ValueError(f"need 0 <= 2j <= n, got n={n}, j={j}")
    return (2,) * j + (1,) * (n - 2 * j)


def hook_shape(n: int, k: int) -> tuple[int, ...]:
    """Hook partition (k, 1^(n-k))."""
    if not 1 <= k <= n:
        raise ValueError(f"hook needs 1 <= k <= n, got k={k}, n={n}")
    return (k,) + (1,) * (n - k)


def two_row_shape(n: int, k: int) -> tuple[int, ...]:
    """Two-row partition (n-k, k); (n,) when k = 0."""
    if not 0 <= k <= n // 2:
        raise ValueError(f"two-row needs 0 <= k <= n//2, got k={k}, n={n}")
    return (n - k, k) if k else (n,)


def syt_count(shape: Sequence[int]) -> int:
    """Number of standard Young tableaux, by the hook length product."""
    shape = as_partition(shape)
    if not shape:
        return 1
    conj = [0] * shape[0]
    for p in shape:
        for c in range(p):
            conj[c] += 1
    n = sum(shape)
    denom = 1
    for r, p in enumerate(shape):
        for c in range(p):
            denom *= p - c + conj[c] - r - 1
    count, rem = divmod(factorial(n), denom)
    assert rem == 0
    return count


def centralizer_size(cycle_type: Sequence[int]) -> int:
    """z_rho = prod over distinct part sizes i of i^m_i * m_i!."""
    z = 1
    mult: dict[int, int] = {}
    for p in cycle_type:
        mult[p] = mult.get(p, 0) + 1
    for i, m in mult.items():
        z *= i**m * factorial(m)
    return z


# -- Murnaghan-Nakayama ---------------------------------------------------


@cache
def _mn(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not shape:
        return 1
    t = cycles[0]
    rest = cycles[1:]
    m = len(shape)
    beta = [shape[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        leg = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_shape = tuple(c - (m - 1 - i) for i, c in enumerate(new_beta))
        new_shape = tuple(p for p in new_shape if p > 0)
        total += (-1) ** leg * _mn(new_shape, rest)
    return total


def mn_character(shape: Sequence[int], cycle_type: Sequence[int]) -> int:
    """chi_lambda(rho) by border-strip removal on first-column hook lengths."""
    shape = as_partition(shape)
    # sorted after conversion, so only positivity is left to check
    rho = tuple(sorted(map(int, cycle_type), reverse=True))
    if rho and rho[-1] < 1:
        raise ValueError(f"partition parts must be positive: {rho}")
    if sum(shape) != sum(rho):
        raise ValueError(f"|shape|={sum(shape)} != |cycle type|={sum(rho)}")
    return _mn(shape, rho)


@lru_cache(maxsize=None)
def two_row_char(n: int, k: int, j: int) -> int:
    """chi_{(n-k,k)} at cycle type 2^j 1^(n-2j).

    Closed form by Young's rule: for m <= n/2 the permutation character
    on the m-subsets of {1..n} is the sum of chi_{(n-i,i)} over i <= m,
    so chi_{(n-k,k)} = F(k) - F(k-1), where F(m) counts the m-subsets
    fixed by an involution with j 2-cycles (see Sagan, The Symmetric
    Group).
    """
    if not 0 <= k <= n // 2:
        raise ValueError(f"need 0 <= k <= n//2, got k={k}, n={n}")
    if not 0 <= j <= n // 2:
        raise ValueError(f"need 0 <= j <= n//2, got j={j}, n={n}")
    return _fixed_subsets(n, j, k) - _fixed_subsets(n, j, k - 1)


# one cache under two names: perfbench/tracing.py reads this one by name
_two_row_rec = two_row_char


def _fixed_subsets(n: int, j: int, m: int) -> int:
    """F(m) = sum_a C(j, a) C(n-2j, m-2a): an m-subset fixed by the
    involution is a union of a of its 2-cycles and m-2a fixed points."""
    return sum(comb(j, a) * comb(n - 2 * j, m - 2 * a)
               for a in range(min(j, m // 2) + 1))


# -- alpha -----------------------------------------------------------------


def alpha(n: int, shape: Sequence[int], i: int) -> int:
    """(1/2^i) sum_j C(i,j) chi_shape(2^j 1^(n-2j)), asserted integral."""
    shape = as_partition(shape)
    if sum(shape) != n:
        raise ValueError(f"shape {shape} is not a partition of {n}")
    if not 0 <= i <= n // 2:
        raise ValueError(f"need 0 <= i <= n//2, got i={i}")
    total = sum(comb(i, j) * _mn(shape, two_cycle_type(n, j)) for j in range(i + 1))
    q, r = divmod(total, 1 << i)
    if r:
        raise ArithmeticError(
            f"alpha({n},{shape},{i}): sum {total} not divisible by 2^{i}; "
            "character bug"
        )
    return q


def alpha_two_row(n: int, k: int, i: int) -> int:
    """alpha_{n,k,i} through the two-row character fast path."""
    total = sum(comb(i, j) * two_row_char(n, k, j) for j in range(i + 1))
    q, r = divmod(total, 1 << i)
    if r:
        raise ArithmeticError(f"alpha_two_row({n},{k},{i}): non-integral")
    return q


# -- trinomial machinery ---------------------------------------------------


def poly_power_coeffs(base: Sequence[int], exponent: int) -> list[int]:
    """Integer coefficient list of base(x)^exponent."""
    out = [1]
    for _ in range(exponent):
        out = conv(out, base)
    return out


@lru_cache(maxsize=None)
def trinomial_coeffs(l: int) -> tuple[int, ...]:
    """Coefficients p_0..p_{2l} of f = (1 + x + x^2)^l, in O(l) steps.

    Differentiating gives (1 + x + x^2) f' = l (1 + 2x) f; comparing the
    coefficients of x^k on both sides,
    (k+1) p_{k+1} + k p_k + (k-1) p_{k-1} = l p_k + 2l p_{k-1}, so
    (k+1) p_{k+1} = (l-k) p_k + (2l-k+1) p_{k-1}, from p_0 = 1 (and
    p_{-1} = 0).  Each division is exact, and is asserted so.
    """
    p = [1]
    prev = 0
    for k in range(2 * l):
        q, r = divmod((l - k) * p[k] + (2 * l - k + 1) * prev, k + 1)
        assert r == 0
        prev = p[k]
        p.append(q)
    return tuple(p)


def last_value(l: int, k: int) -> int:
    """last_{l,k} = p_{l,k} - p_{l,k-1}; zero outside 0 <= k <= l."""
    if k < 0 or k > l:
        return 0
    p = trinomial_coeffs(l)
    return p[k] - (p[k - 1] if k >= 1 else 0)


@dataclass(frozen=True)
class LastTable:
    """Triangle of last_{l,k} for 0 <= k <= l <= l_max."""

    l_max: int
    rows: tuple[tuple[int, ...], ...]

    def get(self, l: int, k: int) -> int:
        if 0 <= l <= self.l_max and 0 <= k <= l:
            return self.rows[l][k]
        return 0


def last_table_trinomial(l_max: int) -> LastTable:
    rows = tuple(
        tuple(last_value(l, k) for k in range(l + 1)) for l in range(l_max + 1)
    )
    return LastTable(l_max, rows)


def last_table_recursive(l_max: int) -> LastTable:
    """Three-term recursion route.

    The recursion d_{l,k} = d_{l-1,k} + d_{l-1,k-1} + d_{l-1,k-2} holds for
    the full signed first-difference sequence of the trinomial rows (seed
    d_0 = [1, -1]); with the zero boundary of the published triangle it
    would break on the diagonal (e.g. l=3, k=3 would give 0+1+1=2, not 1).
    We recurse on the signed sequence and keep the 0 <= k <= l slice.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    signed = [1, -1]
    rows = [(1,)]
    for l in range(1, l_max + 1):
        # signed[k] = prev[k] + prev[k-1] + prev[k-2], zero off the ends
        signed = [a + b + c for a, b, c in zip(
            signed + [0, 0], [0] + signed + [0], [0, 0] + signed)]
        rows.append(tuple(signed[: l + 1]))
    return LastTable(l_max, tuple(rows))


def last_table(l_max: int) -> LastTable:
    """Last-row triangle, computed both ways; the routes must agree."""
    a = last_table_trinomial(l_max)
    b = last_table_recursive(l_max)
    if a.rows != b.rows:
        raise AssertionError("trinomial and recursive last tables disagree")
    return a


# -- alpha tables -----------------------------------------------------------


@dataclass(frozen=True)
class AlphaTable:
    """alpha_{n,k,i} for 0 <= k, i <= floor(n/2), rows indexed by i."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def get(self, k: int, i: int) -> int:
        half = self.n // 2
        if 0 <= k <= half and 0 <= i <= half:
            return self.rows[i][k]
        return 0

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]


@lru_cache(maxsize=None)
def alpha_table(n: int) -> AlphaTable:
    """Build by the box-removal recursion alpha_{n,k,i} =
    alpha_{n-1,k,i} + alpha_{n-1,k-1,i} (valid for i <= floor((n-1)/2)),
    filling the extra row of each even n from the trinomial differences.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = [[1]]  # n = 1: single entry alpha_{1,0,0}
    for m in range(2, n + 1):
        half = m // 2
        # row i of m - 1 has (m-1)//2 + 1 entries; pad one zero each side
        rows = [[a + b for a, b in zip(prow + [0], [0] + prow)][: half + 1]
                for prow in rows]
        if m % 2 == 0:
            rows.append([last_value(half, k) for k in range(half + 1)])
    return AlphaTable(n, tuple(map(tuple, rows)))


def two_row_dimension(n: int, k: int) -> int:
    """dim of the two-row irreducible: C(n,k) - C(n,k-1)."""
    return comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)
