"""Symmetric-group character data: Murnaghan-Nakayama, two-row closed form,
alpha tables, and the last-row (trinomial difference) triangle.

alpha_{n,lambda,i} is the integer (1/2^i) * sum_j C(i,j) chi_lambda(j),
where chi_lambda(j) is the irreducible character at cycle type
2^j 1^(n-2j).  For two-row shapes (n-k, k) we write alpha_{n,k,i}; the
convention is alpha_{n,k,i} = 0 whenever k or i exceeds floor(n/2).

last_{l,k} = alpha_{2l,k,l} equals the difference of successive trinomial
coefficients p_{l,k} - p_{l,k-1}, with p_{l,k} the coefficient of x^k in
(1 + x + x^2)^l.

This module is the one owner of character lookups: callers ask by public
name, and the choice of route stays here.  For n <= COLUMN_MAX_N,
`mn_character` reads a shape's place, its index in partitions(n), in the
column `_column(n, rho)`, built once per cycle type from its suffix column
by a move table per (m, t) (the S17 table, 88,209 values, about 0.05 s
cold on a 2-vCPU host, CPython 3.11); above it `_mn` removes strips from
the one shape, as `involution_characters` always does (its docstring
says why).  Both read one strip rule, `_strips`.  Two-row characters
have closed-form columns, `two_row_column`; `_mn` is also the tests'
independent route.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb, factorial
from operator import lt
from typing import Iterator, Sequence

from .ratpoly import conv, successive_differences


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


# -- Murnaghan-Nakayama ---------------------------------------------------


def _strips(beads: int, t: int) -> Iterator[tuple[int, int]]:
    """(mask left, odd leg) of each t-strip of the shape whose n-bead mask
    is beads: a bead moves from b to an empty b - t, signed by the beads
    strictly between; the t filled low positions are shifted out."""
    # the beads at b >= t whose slot b - t is empty
    movable = beads & ~(beads << t) & -(1 << t)
    while movable:
        low = movable & -movable
        movable ^= low
        dest = low >> t
        yield (beads ^ low ^ dest) >> t, (beads & (low - dest)).bit_count() & 1


@cache
def _degree(beads: int) -> int:
    """f^shape of a mask: each bead's position less the beads below it."""
    parts = []
    while beads:
        low = beads & -beads
        parts.append(low.bit_length() - 1 - len(parts))
        beads ^= low
    return syt_count([p for p in reversed(parts) if p])


@cache
def _mn(beads: int, cycles: tuple[int, ...]) -> int:
    """chi(cycles) of the shape whose n-bead mask is beads, n = sum(cycles),
    cycles descending: one level of _strips per cycle longer than 1, each
    level's signed shapes merged by mask; chi(1^m) = f^shape ends it."""
    level = {beads: 1}
    for t in cycles:
        if t == 1:
            break
        level, last = defaultdict(int), level
        for mask, value in last.items():
            for smaller, odd_leg in _strips(mask, t):
                level[smaller] += -value if odd_leg else value
    return sum(value * _degree(mask) for mask, value in level.items())


@cache
def _shapes(n: int) -> tuple[list[int], dict[int, int]]:
    """The n-bead masks of the partitions of n, descending as partitions(n)
    is, and each mask's place.  A shape's one parent lacks a box of its last
    part: the parent's mask, given a bottom bead, moves up its bottom run's
    top bead (a new part 1) or, into an empty slot, the next bead."""
    if not n:
        return [0], {0: 0}
    grown = []
    for mask in _shapes(n - 1)[0]:
        beads = mask << 1 | 1
        run = beads & ~(beads + 1)
        grown.append(beads + (run + 1 >> 1))
        last = beads ^ run
        last &= -last
        if last and not beads & last << 1:
            grown.append(beads + last)
    masks = sorted(grown, reverse=True)
    return masks, {mask: place for place, mask in enumerate(masks)}


@cache
def _moves(m: int, t: int) -> tuple[list[tuple[int, int]], ...]:
    """By place of a shape of m, the (place in m + t, odd leg) of every
    t-strip it can gain: _strips read upward."""
    places = _shapes(m)[1]
    table = tuple([] for _ in places)
    for place, mask in enumerate(_shapes(m + t)[0]):
        for smaller, odd_leg in _strips(mask, t):
            table[places[smaller]].append((place, odd_leg))
    return table


@cache
def _column(n: int, rho: tuple[int, ...]) -> tuple[int, ...]:
    """chi_lambda(rho) for every lambda of n by place: MN read as
    multiplication by p_t, t = rho[0], on the column of rho[1:] through the
    move table of (n - t, t).  Every cycle type ending in rho shares it."""
    if not rho:
        return (1,)
    t = rho[0]
    out = [0] * len(_shapes(n)[0])
    for value, moves in zip(_column(n - t, rho[1:]), _moves(n - t, t)):
        if value:
            for place, odd_leg in moves:
                out[place] += -value if odd_leg else value
    return tuple(out)


# largest n whose characters come from _column; above it, from _mn
COLUMN_MAX_N = 20


@cache
def _shape(parts: tuple, placed: bool) -> tuple[int, int]:
    """Size n and n-bead mask of a validated shape, cached as given (part
    i puts a bead at part + n - 1 - i, empty rows fill the lowest slots),
    or, `placed`, its key: its place, or above COLUMN_MAX_N its mask."""
    shape = as_partition(parts)
    n = sum(shape)
    mask = (sum(1 << (p + n - 1 - i) for i, p in enumerate(shape))
            | (1 << n - len(shape)) - 1)
    return n, _shapes(n)[1][mask] if placed and n <= COLUMN_MAX_N else mask


@cache
def _cycles(parts: tuple, n: int) -> tuple[int, ...]:
    """The key of a cycle type of a shape of n, sorted after conversion:
    its column, or above COLUMN_MAX_N rho; a refusal builds no column."""
    rho = as_partition(sorted(map(int, parts), reverse=True))
    if sum(rho) != n:
        raise ValueError(f"|shape|={n} != |cycle type|={sum(rho)}")
    return _column(n, rho) if n <= COLUMN_MAX_N else rho


def mn_character(shape: Sequence[int], cycle_type: Sequence[int]) -> int:
    """chi_lambda(rho), by Murnaghan-Nakayama: one cached probe per
    argument, the shape's (_shape), then the cycle type's (_cycles)."""
    n, shape_key = _shape(tuple(shape), True)
    rho_key = _cycles(tuple(cycle_type), n)
    return rho_key[shape_key] if n <= COLUMN_MAX_N else _mn(shape_key, rho_key)


@lru_cache(maxsize=None)
def two_row_char(n: int, k: int, j: int) -> int:
    """chi_{(n-k,k)} at cycle type 2^j 1^(n-2j), from two_row_column."""
    if not 0 <= k <= n // 2:
        raise ValueError(f"need 0 <= k <= n//2, got k={k}, n={n}")
    if not 0 <= j <= n // 2:
        raise ValueError(f"need 0 <= j <= n//2, got j={j}, n={n}")
    return two_row_column(n, j)[k]


# one cache under two names: perfbench/tracing.py reads this one by name
_two_row_rec = two_row_char


@lru_cache(maxsize=None)
def two_row_column(n: int, j: int) -> tuple[int, ...]:
    """chi_{(n-k,k)}(2^j 1^(n-2j)) for k <= n//2, as F(k) - F(k-1) by
    Young's rule (Sagan, The Symmetric Group): F(m), the sum of chi_{(n-i,i)}
    over i <= m, counts the m-subsets an involution with j 2-cycles fixes,
    the coefficient of x^m in (1 + x^2)^j (1 + x)^(n-2j)."""
    return tuple(successive_differences(
        trinomial_power(j, 0, n - 2 * j, top=n // 2)))


# -- alpha -----------------------------------------------------------------


def involution_characters(shape: Sequence[int], width: int) -> list[int]:
    """chi_shape(2^j 1^(n-2j)) for j < width, by border-strip removal from
    the one shape: the columns _column builds at these few cycle types cost
    6-10 ms per n at n = 18..20, against about 1 ms pointwise."""
    n, mask = _shape(tuple(shape), False)
    return [_mn(mask, two_cycle_type(n, j)) for j in range(width)]


def alpha(n: int, shape: Sequence[int], i: int) -> int:
    """(1/2^i) sum_j C(i,j) chi_shape(2^j 1^(n-2j)), asserted integral."""
    shape = as_partition(shape)
    if sum(shape) != n:
        raise ValueError(f"shape {shape} is not a partition of {n}")
    if not 0 <= i <= n // 2:
        raise ValueError(f"need 0 <= i <= n//2, got i={i}")
    total = sum(comb(i, j) * chi for j, chi
                in enumerate(involution_characters(shape, i + 1)))
    q, r = divmod(total, 1 << i)
    if r:
        raise ArithmeticError(
            f"alpha({n},{shape},{i}): sum {total} not divisible by 2^{i}; "
            "character bug"
        )
    return q


# -- trinomial machinery ---------------------------------------------------


def poly_power_coeffs(base: Sequence[int], exponent: int) -> list[int]:
    """Integer coefficient list of base(x)^exponent."""
    out = [1]
    for _ in range(exponent):
        out = conv(out, base)
    return out


def trinomial_power(l: int, c: int, b: int = 0,
                    top: int | None = None) -> list[int]:
    """Coefficients p_0..p_top of f = (1 + cx + x^2)^l (1 + x)^b in O(top)
    steps; top defaults to the degree 2l + b (zeros past it).

    From (1 + cx + x^2)(1 + x) f' = (l (c + 2x)(1 + x) + b (1 + cx + x^2)) f,
    (k+1) p_{k+1} = u_k p_k + v_k p_{k-1} + w_k p_{k-2} from p_0 = 1 (and
    p_{-1} = p_{-2} = 0), with u_k = cl + b - (c+1)k, w_k = 2l + b - k + 2
    and v_k = cl + 2l + bc - (c+1)(k-1).  Each division is asserted exact.
    """
    if top is None:
        top = 2 * l + b
    s = c + 1
    u, v, w = c * l + b, c * l + 2 * l + b * c + s, 2 * l + b + 2
    p = [1]
    cur, prev, prev2 = 1, 0, 0  # p_{k-1} .. p_{k-3}, times u_{k-1} .. w_{k-1}
    for k in range(1, top + 1):
        q, r = divmod(u * cur + v * prev + w * prev2, k)
        assert r == 0
        u, v, w = u - s, v - s, w - 1
        prev2, prev, cur = prev, cur, q
        p.append(q)
    return p


@lru_cache(maxsize=None)
def trinomial_coeffs(l: int) -> tuple[int, ...]:
    """Coefficients p_0..p_{2l} of (1 + x + x^2)^l, cached per l: the
    palindrome p_k = p_{2l-k} around trinomial_power(l, 1, top=l)."""
    half = trinomial_power(l, 1, top=l)
    return tuple(half + half[-2::-1])


def last_value(l: int, k: int) -> int:
    """last_{l,k} = p_{l,k} - p_{l,k-1}; zero outside 0 <= k <= l."""
    if k < 0 or k > l:
        return 0
    p = trinomial_coeffs(l)
    return p[k] - (p[k - 1] if k >= 1 else 0)


def last_pair(l: int, k: int) -> tuple[int, int]:
    """(last_{l,k+1}, last_{l,k}) for 0 <= k < l, the neighbours a
    last-row ratio reads, from one trinomial row."""
    p = trinomial_coeffs(l)
    return p[k + 1] - p[k], (p[k] - p[k - 1] if k else p[0])


@dataclass(frozen=True)
class LastTable:
    """Triangle of last_{l,k} for 0 <= k <= l <= l_max."""

    l_max: int
    rows: tuple[tuple[int, ...], ...]


def last_table_trinomial(l_max: int) -> LastTable:
    """Row l: successive differences of (1 + x + x^2)^l to x^l."""
    rows = tuple(tuple(successive_differences(trinomial_coeffs(l)[:l + 1]))
                 for l in range(l_max + 1))
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


@lru_cache(maxsize=None)
def alpha_table(n: int) -> AlphaTable:
    """Row i: the successive differences of (1 + x + x^2)^i (1 + x)^(n-2i)
    to x^(n//2), since chi_{(n-k,k)}(j) is the coefficient of x^k in
    (1 - x)(1 + x^2)^j (1 + x)^(n-2j) (two_row_column) and summing over j
    with weights C(i,j) gives (2 + 2x + 2x^2)^i (1 + x)^(n-2i) (lem22)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return AlphaTable(n, tuple(
        tuple(successive_differences(
            trinomial_power(i, 1, n - 2 * i, top=n // 2)))
        for i in range(n // 2 + 1)))


def two_row_dimension(n: int, k: int) -> int:
    """dim of the two-row irreducible (n-k, k): its character at the
    identity, the j = 0 column of two_row_char."""
    return two_row_char(n, k, 0)
