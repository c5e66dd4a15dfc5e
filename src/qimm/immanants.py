"""Immanant evaluation and the inequality verifiers.

Two independent immanant algorithms are kept side by side:

  * immanant_bruteforce expands an integer polynomial matrix row by row,
    Leibniz style, over the permutations whose entries are all nonzero,
    and sums chi_lambda(pi) * prod M[i, pi(i)] by cycle type (the oracle;
    capped at n <= 9; it assumes nothing about trees);
  * immanant_tree contracts the sum to matching involutions through the
    c_j(q) weights (the production path).

The normalized immanant divides by chi_lambda(id).

All tree-side data are integer polynomials in t = q^2 until the last
division by a character degree, so the per-tree checks run on integer
t-coefficient lists, cleared of (positive) character-degree denominators.
Every combination of such lists is one _weighted_sum: the character sums
sum_j chi(2^j 1^(n-2j)) c_j, the a_i of eq. (5) by signed binomial rows,
the Theorem 2 gap rows and gaps, and the eq. (5) comparison.  Both
Theorem 1 gaps are one integer form in the hook sums and 1 - t, read from
the grid values of the c_j (hook_margins).  A tree's c_j vanish above its
matching number nu and matching_weight_arrays returns c_0..c_nu, so each
sum runs over those alone; the hook characters and the Theorem 2 gap rows
are tables cached per (n, nu + 1).
Character values come from `characters` by public name: the matching
route asks involution_characters, the oracle mn_character, and the
two-row sums and degrees read whole two_row_column columns.
The oracle expands the q-Laplacian's integer q-coefficient lists
directly.  RatPoly appears only where a polynomial leaves the module.

Verifier results are InequalityVerdict records (sweeps read the gaps
from hook_margins and two_row_gaps).  `holds` is the honest outcome of
the exact check; `degenerate` marks instances whose ratio form divides by
zero; `asserted` marks instances inside the range this artifact vouches
for.  The stated ranges of the last-row ratio lemmas contain a few small
counterexamples refuted by the published triangle itself (see
LEMMA9_ERRATA); those are reported, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm
from operator import mul
from typing import Iterable, Sequence

from .characters import (
    alpha_table,
    as_partition,
    involution_characters,
    last_pair,
    mn_character,
    partitions,
    syt_count,
    trinomial_power,
    two_row_column,
)
from .ratpoly import RatPoly, conv, from_t, successive_differences
from .trees import PolyMatrix, Tree, matching_weight_arrays, q_laplacian

BRUTEFORCE_MAX_N = 9

# Theorems 1 and 2 hold for trees on n >= 5 vertices (P_4 fails thm2 at
# k = 2): their sweeps start here; thm2 and lem13 below it are unasserted.
THEOREM_MIN_N = 5

# (l, k) pairs where the stated range of the last-row ratio lemma is
# contradicted by the published triangle (checked exhaustively to l=120).
LEMMA9_ERRATA = frozenset({(3, 1), (4, 3), (6, 5)})

# The generalized difference-ratio claim is stated for all positive l, but
# its own r = s = 1 special case is the binomial lemma, which needs l >= 3;
# the excluded l = 2 instance is the lone failure (checked to s,r <= 5,
# l <= 15).
REM12_ERRATA = frozenset({(1, 1, 2, 1)})  # (s, r, l, k)


@dataclass(slots=True)
class InequalityVerdict:
    """One exact check.  The fields, in order, are the serialized form:
    the keys of to_json() and the verify CSV header."""

    claim: str
    params: dict
    holds: bool
    degenerate: bool = False
    asserted: bool = True
    witness: str = ""
    detail: str = ""

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def default_q_grid() -> tuple[Fraction, ...]:
    """Exact rationals -10, -19/2, ..., 10 (step 1/2)."""
    return tuple(Fraction(i, 2) for i in range(-20, 21))


# -- integer coefficient lists ----------------------------------------------


def _trim(coeffs: list[int]) -> list[int]:
    """Strip trailing zeros in place; the zero polynomial becomes []."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _weighted_sum(arrays: Sequence[Sequence[int]],
                  factors: Iterable[int]) -> list[int]:
    """sum_j factors[j] * arrays[j], as long as the longest array."""
    out = [0] * max(map(len, arrays), default=0)
    for f, arr in zip(factors, arrays):
        if f:
            for p, c in enumerate(arr):
                out[p] += f * c
    return out


# -- immanant algorithms ---------------------------------------------------


def _cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lens = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        v = s
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def _bruteforce_buckets(matrix: PolyMatrix
                        ) -> dict[tuple[int, ...], list[int]]:
    """Entry-product sums over every permutation with no zero entry, keyed
    by cycle type, as integer coefficient lists.

    The permutations are expanded row by row, skipping zero entries and
    used columns, with the partial product carried down the expansion.
    """
    n = matrix.n
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force capped at n <= {BRUTEFORCE_MAX_N}")
    rows = [[(j, e) for j, e in enumerate(row) if e]
            for row in matrix.entries]
    buckets: dict[tuple[int, ...], list[int]] = {}
    perm = [0] * n

    def expand(i: int, used: int, prod: list[int]) -> None:
        if i == n:
            acc = buckets.setdefault(_cycle_type(perm), [])
            acc.extend([0] * (len(prod) - len(acc)))
            for p, c in enumerate(prod):
                acc[p] += c
            return
        for j, entry in rows[i]:
            if not used >> j & 1:
                perm[i] = j
                expand(i + 1, used | 1 << j, conv(prod, entry))

    expand(0, 0, [1])
    return buckets


def _combine_buckets(buckets: dict[tuple[int, ...], list[int]],
                     shape: tuple[int, ...]) -> list[int]:
    """sum over cycle types rho of chi_shape(rho) times the bucket."""
    return _weighted_sum(list(buckets.values()),
                         [mn_character(shape, rho) for rho in buckets])


def immanant_bruteforce(matrix: PolyMatrix, shape: Sequence[int],
                        normalized: bool = False) -> RatPoly:
    """Sum over the permutations of chi(pi) times the entry product of an
    integer polynomial matrix; `normalized` divides by chi(id) alone."""
    shape = as_partition(shape)
    n = matrix.n
    if sum(shape) != n:
        raise ValueError(f"|shape| = {sum(shape)} != matrix dimension {n}")
    total = _combine_buckets(_bruteforce_buckets(matrix), shape)
    dim = mn_character(shape, (1,) * n) if normalized else 1
    return RatPoly.from_ints(total, dim)


def _matching_sum(weights: Sequence[Sequence[int]],
                  shape: tuple[int, ...]) -> list[int]:
    """sum_j chi_shape(2^j 1^(n-2j)) c_j in t: the matching route, shared
    by immanant_tree and the oracle that checks it."""
    return _weighted_sum(weights, involution_characters(shape, len(weights)))


def immanant_tree(tree: Tree, shape: Sequence[int],
                  normalized: bool = False) -> RatPoly:
    """Matching-involution route: sum_j chi_shape(2^j 1^(n-2j)) c_j(q)."""
    shape = as_partition(shape)
    n = tree.n
    if sum(shape) != n:
        raise ValueError(f"|shape| = {sum(shape)} != tree size {n}")
    total = _matching_sum(matching_weight_arrays(tree), shape)
    return from_t(total, syt_count(shape) if normalized else 1)


def a_coeff_arrays(weights: Sequence[Sequence[int]]) -> list[list[int]]:
    """a_i for i <= nu, in t = q^2, from the t-arrays of c_0..c_nu by
    binomial inversion; the a_i above nu are zero.

    c_j = sum_{i >= j} C(i,j) a_i, so a_i = sum_{j >= i} (-1)^(j-i) C(j,i) c_j.
    """
    rows = len(weights)
    return [_trim(_weighted_sum(weights[i:], [(-1) ** m * comb(i + m, i)
                                              for m in range(rows - i)]))
            for i in range(rows)]


def extract_a_coeffs(tree: Tree) -> tuple[RatPoly, ...]:
    """Recover a_i(q), i = 0..floor(n/2), from the matching weights by
    binomial inversion."""
    a = a_coeff_arrays(matching_weight_arrays(tree))
    return tuple(from_t(arr) for arr in a + [[]] * (tree.n // 2 + 1 - len(a)))


def _two_row_rows(n: int, width: int) -> list[tuple[int, ...]]:
    """chi_{(n-k,k)}(2^j 1^(n-2j)) for j < width, one row per k =
    0..floor(n/2): the two_row_column of each j, transposed."""
    return list(zip(*(two_row_column(n, j) for j in range(width))))


def _two_row_sums(n: int, weights: Sequence[Sequence[int]]
                  ) -> list[list[int]]:
    """sum_j chi_{(n-k,k)}(2^j 1^(n-2j)) c_j in t, k = 0..floor(n/2)."""
    return [_weighted_sum(weights, row)
            for row in _two_row_rows(n, len(weights))]


def normalized_two_row_immanants(tree: Tree) -> tuple[RatPoly, ...]:
    """Normalized immanants for (n-k, k), k = 0..floor(n/2)."""
    n = tree.n
    sums = _two_row_sums(n, matching_weight_arrays(tree))
    return tuple(map(from_t, sums, two_row_column(n, 0)))


# -- Theorem 2: the two-row chain ------------------------------------------


@lru_cache(maxsize=None)
def _two_row_gap_table(n: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Rows f_k chi_{k-1}(j) - f_{k-1} chi_k(j), k = 1..floor(n/2), for
    j < width: chi_k is the character of (n-k, k) at 2^j 1^(n-2j), and
    its j = 0 value is the degree f_k."""
    chi = _two_row_rows(n, width)
    return tuple(tuple(_weighted_sum((lo, hi), (hi[0], -lo[0])))
                 for lo, hi in zip(chi, chi[1:]))


def two_row_gaps(n: int, weights: Sequence[Sequence[int]]
                 ) -> list[list[int]]:
    """t-arrays of f_k f_{k-1} (imm_{k-1} - imm_k), k = 1..floor(n/2),
    from the c_j t-arrays of an n-vertex tree; the positive scaling keeps
    the coefficient signs."""
    return [_weighted_sum(weights, row)
            for row in _two_row_gap_table(n, len(weights))]


def check_two_row_chain(tree: Tree) -> list[InequalityVerdict]:
    """Per k: imm_{k-1} - imm_k must be even in q with coefficients >= 0.

    That certificate is sufficient for the inequality at every real q and
    is what the term-by-term proof produces.  On t = q^2 arrays evenness
    holds by construction, so the check is coefficientwise nonnegativity.
    Instances with n < THEOREM_MIN_N are reported but not asserted (the
    path on four vertices genuinely fails at k = 2 for large |q|).
    """
    n = tree.n
    dims = two_row_column(n, 0)
    label = tree.label()
    verdicts = []
    for k, arr in enumerate(two_row_gaps(n, matching_weight_arrays(tree)), 1):
        holds = all(c >= 0 for c in arr)
        witness = str(from_t(arr, dims[k] * dims[k - 1]))
        detail = ""
        if not holds:
            detail = f"difference imm_{k-1} - imm_{k} = {witness}"
        verdicts.append(
            InequalityVerdict(
                claim="thm2",
                params={"n": n, "tree": label, "k": k},
                holds=holds,
                witness=witness,
                asserted=n >= THEOREM_MIN_N,
                detail=detail,
            )
        )
    return verdicts


# -- Theorem 1: the hook chain ----------------------------------------------


@lru_cache(maxsize=None)
def _hook_char_data(n: int, width: int) -> tuple[tuple[int, ...], ...]:
    """chi_{hook_k}(2^j 1^(n-2j)) for k = 1..n, j < width; the j = 0
    column is the degree of hook_k.  By the hook generating function at
    -y, chi^(k,1^(n-k))(2^j 1^(n-2j)) = [y^(n-k)] (1+y)^(n-j-1) (1-y)^j,
    so column j + 1 is column j times (1-y)/(1+y): successive
    differences, then an alternating prefix sum."""
    column = list(accumulate(range(1, n), lambda c, m: c * (n - m) // m,
                             initial=1))
    columns = [column]
    for _ in range(1, width):
        column = list(accumulate(successive_differences(column),
                                 lambda s, c: c - s))
        columns.append(column)
    return tuple(zip(*columns))[::-1]


@lru_cache(maxsize=16)
def _grid_table(grid: tuple[Fraction, ...], degree: int
                ) -> tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...],
                           int]:
    """Evaluation table of a q grid for t-polynomials of degree <= degree.

    The distinct t = q^2 in order of first appearance, the first q giving
    each, and per t the integer row r with sum_p g_p r_p = denom * g(t) for
    every g, so that integer values compare directly across t.
    """
    firsts: dict[Fraction, Fraction] = {}
    for q in grid:
        firsts.setdefault(q * q, q)
    denom = lcm(*(t.denominator ** degree for t in firsts))
    rows = []
    for t in firsts:
        a, b = t.numerator, t.denominator
        scale = denom // b ** degree
        rows.append(tuple(a ** p * b ** (degree - p) * scale
                          for p in range(degree + 1)))
    return tuple(firsts.values()), tuple(rows), denom


def hook_margins(tree: Tree, q_grid: Sequence[Fraction] | None = None
                 ) -> list[tuple[str, int, Fraction, Fraction]]:
    """(claim, k, smallest gap, q where it occurs) of the weak hook
    inequalities for k = 2..n, then the strong ones, on an exact grid.

    Weak: imm_{k-1} <= imm_k.  Strong, cleared of denominators:
    (k-1) imm_{k-1} + (q^2 - 1) <= (k-2) imm_k.

    Times the hook degrees f_{k-1} f_k > 0, both gaps take one integer
    form in the hook sums H_k = sum_j chi_{hook_k}(j) c_j and in 1 - t.
    The nu + 1 weights c_j are evaluated once per distinct t = q^2 of the
    grid, and each H_k(t) is the same sum over those values.  The grid is
    scanned in order, so the first grid point wins ties.
    """
    grid = tuple(q_grid) if q_grid is not None else default_q_grid()
    n = tree.n
    weights = matching_weight_arrays(tree)
    chars = _hook_char_data(n, len(weights))
    qs, rows, denom = _grid_table(grid, max(map(len, weights)) - 1)
    # denom times c_j(t), H_k(t) and 1 - t, per distinct t of the grid
    values = [[sum(map(mul, w, row)) for row in rows] for w in weights]
    at = [_weighted_sum(values, ch) for ch in chars]
    one_minus_t = [row[0] - row[1] for row in rows]
    # gap times f_{k-1} f_k: b H_k(t) - a H_{k-1}(t) + c (1 - t), with
    # (a, b, c) from k and the hook degrees lo = f_{k-1}, hi = f_k
    forms = (("thm1-weak", lambda k, lo, hi: (hi, lo, 0)),
             ("thm1-strong",
              lambda k, lo, hi: ((k - 1) * hi, (k - 2) * lo, lo * hi)))
    margins = []
    for claim, form in forms:
        for k in range(2, n + 1):
            f_lo, f_hi = chars[k - 2][0], chars[k - 1][0]
            a, b, c = form(k, f_lo, f_hi)
            values = [b * h - a * l + c * u for l, h, u
                      in zip(at[k - 2], at[k - 1], one_minus_t)]
            low = min(values)
            margins.append((claim, k, Fraction(low, denom * f_lo * f_hi),
                            qs[values.index(low)]))
    return margins


def check_hook_chain(tree: Tree, q_grid: Sequence[Fraction] | None = None
                     ) -> list[InequalityVerdict]:
    """One verdict per hook_margins entry, holding when its gap is >= 0."""
    n, label = tree.n, tree.label()
    return [
        InequalityVerdict(
            claim=claim,
            params={"n": n, "tree": label, "k": k},
            holds=gap >= 0,
            witness=f"min gap {gap} at q={q}",
            detail="" if gap >= 0 else f"negative gap {gap} at q={q}",
        )
        for claim, k, gap, q in hook_margins(tree, q_grid)
    ]


# -- alpha ratio inequalities -----------------------------------------------


def _ratio_verdict(claim: str, params: dict, num_l: int, den_l: int,
                   num_r: int, den_r: int, asserted: bool,
                   detail: str = "") -> InequalityVerdict:
    """Cross-multiplied num_l/den_l <= num_r/den_r with degeneracy flag."""
    lhs = num_l * den_r
    rhs = num_r * den_l
    degenerate = den_l == 0 or den_r == 0
    return InequalityVerdict(
        claim=claim,
        params=params,
        holds=lhs <= rhs,
        witness=f"gap {rhs - lhs} = {num_r}*{den_l} - {num_l}*{den_r}",
        degenerate=degenerate,
        asserted=asserted and not degenerate,
        detail=detail if detail else ("zero denominator" if degenerate else ""),
    )


def _alpha_ratio(claim: str, n: int, k: int, i: int,
                 asserted: bool) -> InequalityVerdict:
    """alpha_{n,k,i}/alpha_{n,k,0} >= alpha_{n,k+1,i}/alpha_{n,k+1,0}: the
    denominators are the degrees f_k, f_{k+1} > 0 (k < n//2), so this is
    never degenerate."""
    rows = alpha_table(n).rows  # rows[i][k] is alpha_{n,k,i}
    row = rows[i]
    return _ratio_verdict(claim, {"n": n, "k": k, "i": i}, row[k + 1],
                          rows[0][k + 1], row[k], rows[0][k], asserted)


def lem13_verdict(n: int, k: int, i: int) -> InequalityVerdict:
    """lem13 at one (n, k, i), i <= n//2, k < n//2; asserted from
    THEOREM_MIN_N."""
    return _alpha_ratio("lem13", n, k, i, n >= THEOREM_MIN_N)


def lem6_verdict(n: int, k: int, i: int) -> InequalityVerdict:
    """lem6, the same ratio as lem13 for i < n//2, asserted at every n."""
    return _alpha_ratio("lem6", n, k, i, True)


def check_alpha_ratios(n: int) -> list[InequalityVerdict]:
    """lem13 and lem6, the ratio chain lemmas at a single n; the last-row
    lemmas are check_last_row_ratios.

    All comparisons are exact cross-multiplied integers; nothing divides.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    half = n // 2
    return [v for i in range(half + 1) for k in range(half)
            for v in ((lem13_verdict(n, k, i), lem6_verdict(n, k, i))
                      if i < half else (lem13_verdict(n, k, i),))]


def lem9_verdict(l: int, k: int) -> InequalityVerdict:
    """lem9 at one (l, k), 1 <= k < l: last_{l,k+1}/last_{l-1,k} <=
    last_{l,k}/last_{l-1,k-1}; degenerate at l = 2, refuted at the
    LEMMA9_ERRATA."""
    errata = (l, k) in LEMMA9_ERRATA
    above, here = last_pair(l, k)
    below_above, below = last_pair(l - 1, k - 1)
    return _ratio_verdict(
        "lem9", {"l": l, "k": k}, above, below_above, here, below,
        asserted=l >= 3 and not errata,
        detail="published triangle refutes the stated range here"
        if errata else "")


# every refuted lem9 instance sits at l <= this
_ERRATA_L_MAX = max(a for a, _ in LEMMA9_ERRATA)


def cor10_verdict(l: int, k: int, r: int) -> InequalityVerdict:
    """cor10 at one (l, k, r), 1 <= r <= k < l: last_{l,k+1}/last_{l,k} <=
    last_{l-r,k+1-r}/last_{l-r,k-r}.  Its derivation chains the lem9
    instances (l-t, k-t), t < r, and is broken when one is degenerate
    (l - t < 3) or refuted (only possible once l - r < _ERRATA_L_MAX)."""
    broken = l - r < 2 or (l - r < _ERRATA_L_MAX and any(
        0 <= l - a == k - b < r for a, b in LEMMA9_ERRATA))
    return _ratio_verdict(
        "cor10", {"l": l, "k": k, "r": r},
        *last_pair(l, k), *last_pair(l - r, k - r),
        asserted=l >= 3 and not broken,
        detail="derivation chain passes through a refuted or degenerate "
        "instance" if broken else "")


def lem11_verdict(l: int, k: int) -> InequalityVerdict:
    """lem11 at one (l, k), 1 <= k < l: last_{l,k+1}/(C(2l,k+1)-C(2l,k))
    <= last_{l,k}/(C(2l,k)-C(2l,k-1)), asserted from l = 3."""
    above, here = last_pair(l, k)
    return _ratio_verdict(
        "lem11", {"l": l, "k": k},
        above, comb(2 * l, k + 1) - comb(2 * l, k),
        here, comb(2 * l, k) - comb(2 * l, k - 1),
        asserted=l >= 3)


def check_last_row_ratios(l: int) -> list[InequalityVerdict]:
    """Last-row ratio lemmas at one row l of the triangle: lem9, cor10 for
    each r <= k and lem11, for each k < l.

    l = 2 is degenerate for lem9 (last_{1,1} = 0), as the source notes.
    A few further boundary instances of lem9/cor10 are false despite the
    stated ranges (LEMMA9_ERRATA); they are reported with asserted=False.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    return [v for k in range(1, l)
            for v in (lem9_verdict(l, k),
                      *(cor10_verdict(l, k, r) for r in range(1, k + 1)),
                      lem11_verdict(l, k))]


def sr_differences(l: int, c: int) -> list[int]:
    """D_c(0..l): the successive coefficient differences of (1+cx+x^2)^l
    to x^l, the rows a rem12 instance compares."""
    return successive_differences(trinomial_power(l, c, top=l))


def rem12_verdict(l: int, s: int, r: int, k: int, da: Sequence[int],
                  db: Sequence[int]) -> InequalityVerdict:
    """rem12 at one (l, s, r, k), k < l, from da = sr_differences(l, s)
    and db = sr_differences(l, r + s): D_{r+s}(k+1) D_s(k) >= D_{r+s}(k)
    D_s(k+1)."""
    lhs = db[k + 1] * da[k]
    rhs = db[k] * da[k + 1]
    degenerate = da[k] == 0 or da[k + 1] == 0
    erratum = (s, r, l, k) in REM12_ERRATA
    if degenerate:
        detail = "zero successive difference on the s side"
    elif erratum:
        detail = ("the r=s=1 case needs l >= 3; this is its excluded "
                  "l = 2 instance")
    else:
        detail = ""
    return InequalityVerdict(
        claim="rem12",
        params={"l": l, "s": s, "r": r, "k": k},
        holds=lhs >= rhs,
        witness=f"gap {lhs - rhs}",
        degenerate=degenerate,
        asserted=not degenerate and not erratum,
        detail=detail,
    )


def check_general_sr(l: int, s: int, r: int) -> list[InequalityVerdict]:
    """Successive-difference ratio inequality for (1+sx+x^2)^l against
    (1+(r+s)x+x^2)^l, for k = 0..l-1.

    With D_c(k) the k-th successive coefficient difference of
    (1+cx+x^2)^l, the claim is D_{r+s}(k+1)/D_s(k+1) >= D_{r+s}(k)/D_s(k);
    at r = s = 1 this is exactly the last-row-over-binomial lemma.  (The
    source prints the reciprocal orientation, which its own r = s = 1
    special case contradicts.)  Checked cross-multiplied; instances whose
    s-side difference vanishes carry the degeneracy flag.
    """
    if l < 1 or s < 1 or r < 1:
        raise ValueError("need l, s, r >= 1")
    da, db = sr_differences(l, s), sr_differences(l, r + s)
    return [rem12_verdict(l, s, r, k, da, db) for k in range(l)]


# -- cross-algorithm sweeps --------------------------------------------------


def oracle_equivalence_report(tree: Tree) -> list[tuple[tuple[int, ...], bool]]:
    """For every shape of |tree|: matching route == brute force, exactly,
    compared as integer q-coefficient lists."""
    n = tree.n
    buckets = _bruteforce_buckets(q_laplacian(tree))
    weights = matching_weight_arrays(tree)
    results = []
    for shape in partitions(n):
        in_t = _matching_sum(weights, shape)
        lhs = [0] * (2 * len(in_t))
        lhs[::2] = in_t
        rhs = _combine_buckets(buckets, shape)
        results.append((shape, _trim(lhs) == _trim(rhs)))
    return results


def eq5_reconstruction_ok(tree: Tree) -> bool:
    """eq5_holds on the tree's own matching weights."""
    weights = matching_weight_arrays(tree)
    return eq5_holds(tree.n, weights, a_coeff_arrays(weights))


def eq5_holds(n: int, weights: Sequence[Sequence[int]],
              a: Sequence[Sequence[int]]) -> bool:
    """sum_i a_i 2^i alpha_{n,k,i} / alpha_{n,k,0} reproduces every
    normalized two-row immanant, checked cross-multiplied on the t-arrays
    of the matching weights c_j of an n-vertex tree and their a_coeff_arrays:
    f_k sum_i 2^i alpha_{n,k,i} a_i = alpha_{n,k,0} sum_j chi_{(n-k,k)}(j) c_j.
    """
    table = alpha_table(n)
    dims = two_row_column(n, 0)
    for k, imm in enumerate(_two_row_sums(n, weights)):
        recon = _weighted_sum(
            a, [(1 << i) * table.get(k, i) for i in range(len(a))])
        if any(_weighted_sum((recon, imm), (dims[k], -table.get(k, 0)))):
            return False
    return True
