"""Lattice-path enumeration, the two path bijections, odd-peak-restricted
counting, and the two-row standard-tableau view.

Path classes (all paths start at the origin; steps U = +1, D = -1,
H = 0 in height):

  NLP(n, h)  nonnegative U/D paths of length n ending at height h;
  UHD(l, h)  U/H/D paths of length l ending at height h, sign-free;
  GRP(l, h)  nonnegative UHD paths ending at height h with no H step
             at height 0 (generalized Riordan paths).

A peak of a U/D path is a lattice point where an up step ends and a down
step starts.  Odd-height peaks live at odd x, so the step pair producing
one occupies exactly one of the intervals s_d = (2d-2, 2d); a peak at
(x, y) is attributed to interval d = (x+1)/2.

Each path is walked once: the pass that checks its alphabet also stores
its running heights, and every height query reads them.  Paths and
tableaux are listed one step (or entry) at a time with no recursion, so
their size is bounded by memory, not by the recursion limit.  The
odd-peak and odd-descent histograms are counted by the same growth with
prefixes merged by state, not by listing; the listings stay the
bijection sweeps' input and the tests' independent route.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import ge, le
from typing import Iterator, Sequence

from .characters import alpha_table, last_value, two_row_dimension

_STEP = {"U": 1, "D": -1, "H": 0}


@dataclass(frozen=True)
class LatticePath:
    """Step string over U/D/H with its running heights, computed once."""

    steps: str
    _heights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            heights = tuple(
                accumulate(map(_STEP.__getitem__, self.steps), initial=0))
        except KeyError:
            raise ValueError(
                f"bad step in {self.steps!r}; expected U/D/H") from None
        object.__setattr__(self, "_heights", heights)

    def heights(self) -> tuple[int, ...]:
        """Heights at positions 0..len(steps), starting at 0."""
        return self._heights

    def __len__(self) -> int:
        return len(self.steps)

    def end_height(self) -> int:
        return self._heights[-1]

    def is_ud(self) -> bool:
        return "H" not in self.steps

    def is_nonnegative(self) -> bool:
        return min(self._heights) >= 0

    def has_ground_h(self) -> bool:
        return any(s == "H" and h == 0
                   for s, h in zip(self.steps, self._heights))

    def is_grp(self) -> bool:
        return self.is_nonnegative() and not self.has_ground_h()

    def __str__(self) -> str:
        return self.steps


_FLIP = str.maketrans("UD", "DU")  # reflect across the x-axis; H fixed


# -- enumeration -----------------------------------------------------------


def enumerate_paths(path_class: str, length: int, end_height: int
                    ) -> list[LatticePath]:
    """Exhaustive, duplicate-free listing of one path class, in the
    lexicographic order of its alphabet.  Prefixes grow one step per
    round, and a prefix that can no longer reach `end_height` is dropped."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if path_class == "NLP":
        if (length - end_height) % 2:
            raise ValueError(
                f"parity mismatch: length {length} cannot reach {end_height}"
            )
        if end_height < 0 or end_height > length:
            raise ValueError(f"end height {end_height} unreachable")
        alphabet = "UD"
    elif path_class == "UHD":
        if abs(end_height) > length:
            raise ValueError(f"end height {end_height} unreachable")
        alphabet = "UHD"
    elif path_class == "GRP":
        if end_height < 0 or end_height > length:
            raise ValueError(f"end height {end_height} unreachable")
        alphabet = "UHD"
    else:
        raise ValueError(f"unknown path class {path_class!r}")
    floor = -length if path_class == "UHD" else 0
    riordan = path_class == "GRP"

    prefixes = [("", 0)]
    for rem in range(length - 1, -1, -1):
        prefixes = [
            (word + s, nh)
            for word, h in prefixes
            for s in alphabet
            if (nh := h + _STEP[s]) >= floor
            and abs(end_height - nh) <= rem
            and not (riordan and s == "H" and h == 0)
        ]
    return [LatticePath(word) for word, _ in prefixes]


# -- the end-height bijection on UHD paths -----------------------------------


def _riordan_suffix_cut(path: LatticePath, level: int) -> int:
    """Smallest cut c such that the suffix stays at or above `level` and
    has no H step at `level`.  The suffix then starts exactly at `level`
    (or c = 0 for level 0 when the whole path qualifies)."""
    h = path.heights()
    c = len(path)
    if h[c] < level:
        raise ValueError(f"path {path} has no suffix at level {level}")
    while c and h[c - 1] >= level and not (
            path.steps[c - 1] == "H" and h[c - 1] == level):
        c -= 1
    return c


def _swap_at_cut(path: LatticePath, c: int) -> LatticePath:
    """P = S X R with X the step before cut c: flip(S), then H for U or
    U for H, then R unchanged."""
    s, x, r = path.steps[: c - 1], path.steps[c - 1], path.steps[c:]
    if x == "D":
        raise AssertionError("cut step cannot be D")
    return LatticePath(s.translate(_FLIP) + ("U" if x == "H" else "H") + r)


def callan_fwd(path: LatticePath) -> LatticePath:
    """End-height-raising bijection UHD(l, h) minus GRP(l, h) -> UHD(l, h+1).

    Split P = S X R at the longest Riordan suffix R starting on the axis;
    X is H (at ground) or U (rising from -1).  Map SHR to flip(S) U R and
    SUR to flip(S) H R, lifting R by one level.
    """
    if path.end_height() < 0:
        raise ValueError(f"{path} ends below the axis; not in the domain")
    c = _riordan_suffix_cut(path, 0)
    if c == 0:
        raise ValueError(f"{path} is already a generalized Riordan path")
    return _swap_at_cut(path, c)


def callan_inv(path: LatticePath) -> LatticePath:
    """Inverse of callan_fwd; defined on UHD paths ending at height >= 1."""
    if path.end_height() < 1:
        raise ValueError(f"{path} ends below height 1; not in the image")
    return _swap_at_cut(path, _riordan_suffix_cut(path, 1))


# -- the doubling bijection ---------------------------------------------------


_DOUBLE = str.maketrans({"U": "UU", "D": "DD", "H": "DU"})
_HALVE = {"UU": "U", "DD": "D", "DU": "H"}


def riordan_double_fwd(path: LatticePath) -> LatticePath:
    """GRP(l, l-k) -> U/D paths of length 2l with no odd-height peaks."""
    if not path.is_grp():
        raise ValueError(f"{path} is not a generalized Riordan path")
    return LatticePath(path.steps.translate(_DOUBLE))


def riordan_double_inv(path: LatticePath) -> LatticePath:
    """Inverse: reads aligned step pairs UU/DD/DU; a UD pair is exactly an
    odd-height peak and means the path is outside the image."""
    if not path.is_ud():
        raise ValueError(f"{path} is not a U/D path")
    if len(path) % 2:
        raise ValueError(f"{path} has odd length")
    if not path.is_nonnegative():
        raise ValueError(f"{path} goes below the axis; not in the image")
    halves = []
    for t in range(0, len(path), 2):
        pair = path.steps[t: t + 2]
        if pair == "UD":
            raise ValueError(
                f"odd-height peak at x={t + 1}; {path} not in the image"
            )
        halves.append(_HALVE[pair])
    out = LatticePath("".join(halves))
    if not out.is_grp():
        raise ValueError(f"{path} not in the image (preimage {out} not GRP)")
    return out


# -- peaks and restricted counting -------------------------------------------


def peak_profile(path: LatticePath) -> list[tuple[int, int, str]]:
    """All peaks of a U/D path as (x, height, parity-of-height)."""
    if not path.is_ud():
        raise ValueError("peaks are defined for U/D paths here")
    s, h = path.steps, path.heights()
    return [(t, h[t], "odd" if h[t] % 2 else "even")
            for t in range(1, len(s)) if s[t - 1] == "U" and s[t] == "D"]


def max_odd_peak_interval(path: LatticePath) -> int:
    """Largest interval index d = (x+1)/2 over odd-height peaks; 0 if none."""
    return max(((x + 1) // 2 for x, y, parity in peak_profile(path)
                if parity == "odd"), default=0)


def count_restricted(n: int, k: int, i: int) -> int:
    """Nonnegative U/D paths with n steps and k down steps whose odd-height
    peaks all sit in intervals s_1..s_{floor(n/2)-i}; equals alpha_{n,k,i}."""
    if not (0 <= k <= n // 2 and 0 <= i <= n // 2):
        raise ValueError(f"need 0 <= k, i <= n//2, got k={k}, i={i}")
    return allowed_count(restricted_count_histogram(n, k), n, i)


@lru_cache(maxsize=None)
def restricted_count_histogram(n: int, k: int) -> tuple[int, ...]:
    """hist[d] = number of NLP(n, n-2k) paths whose largest odd-peak
    interval index (max_odd_peak_interval) is exactly d; built once per
    (n, k) and shared by the counting and probability sweeps.

    Counted, not listed: prefixes grow one step per round under the
    growth rules of enumerate_paths("NLP", n, n-2k), and prefixes with
    the same (height, last step was U, largest odd-peak interval so far)
    are merged into one count, so the work is polynomial in n."""
    if not 0 <= k <= n // 2:
        raise ValueError(f"need 0 <= k <= n//2, got k={k}")
    end = n - 2 * k
    states = {(0, False, 0): 1}
    for x in range(n):  # every prefix ends at point x
        rem = n - x - 1
        grown: dict[tuple[int, bool, int], int] = defaultdict(int)
        for (h, up, d), count in states.items():
            if abs(end - h - 1) <= rem:
                grown[h + 1, True, d] += count
            if h and abs(end - h + 1) <= rem:
                # U then D: a peak at (x, h), in interval (x+1)//2
                if up and h % 2:
                    d = max(d, (x + 1) // 2)
                grown[h - 1, False, d] += count
        states = grown
    hist = [0] * (n // 2 + 1)
    for (_, _, d), count in states.items():
        hist[d] += count
    return tuple(hist)


def allowed_count(hist: Sequence[int], n: int, i: int) -> int:
    """Objects of a histogram by largest odd interval index d (path peaks
    or tableau descents) with d <= floor(n/2) - i."""
    return sum(hist[: n // 2 - i + 1])


# -- standard Young tableaux with at most two rows ----------------------------


@dataclass(frozen=True)
class TwoRowSYT:
    """Standard Young tableau of shape (n-k, k) as two increasing rows."""

    row1: tuple[int, ...]
    row2: tuple[int, ...]

    def __post_init__(self):
        r1, r2 = self.row1, self.row2
        if sorted(r1 + r2) != list(range(1, len(r1) + len(r2) + 1)):
            raise ValueError("rows must partition 1..n")
        if any(map(ge, r1, r1[1:])):
            raise ValueError("row 1 must increase")
        if any(map(ge, r2, r2[1:])):
            raise ValueError("row 2 must increase")
        if len(r2) > len(r1):
            raise ValueError("row 2 may not be longer than row 1")
        if any(map(le, r2, r1)):
            raise ValueError("columns must increase")

    @property
    def n(self) -> int:
        return len(self.row1) + len(self.row2)

    def descents(self) -> list[int]:
        """Positions i with i in row 1 and i+1 in row 2."""
        r1, r2 = set(self.row1), set(self.row2)
        return [i for i in range(1, self.n) if i in r1 and i + 1 in r2]

    def row_diff(self, i: int) -> int:
        """RowDiff of the restriction to 1..i (first minus second row size);
        both rows increase, so each count is a bisection."""
        return bisect_right(self.row1, i) - bisect_right(self.row2, i)


def max_odd_descent_interval(tableau: TwoRowSYT) -> int:
    """Largest (d+1)//2 over descents d with odd RowDiff; 0 if none.  The
    tableau counterpart of max_odd_peak_interval."""
    return max(
        ((d + 1) // 2 for d in tableau.descents() if tableau.row_diff(d) % 2),
        default=0,
    )


def syt_descent_histogram(n: int, k: int) -> list[int]:
    """hist[d] = number of standard tableaux of shape (n-k, k) whose
    max_odd_descent_interval is exactly d.

    Counted, not listed: entries 1..n are placed one per round under the
    growth rules of enumerate_two_row_syt, and partial tableaux with the
    same (row 1 length, row 2 length, last entry in row 1, largest
    odd-RowDiff descent interval so far) are merged into one count."""
    if not 0 <= k <= n // 2:
        raise ValueError(f"need 0 <= k <= n//2, got k={k}")
    states = {(0, 0, False, 0): 1}
    for entry in range(1, n + 1):
        grown: dict[tuple[int, int, bool, int], int] = defaultdict(int)
        for (len1, len2, last_in_row1, d), count in states.items():
            if len1 < n - k:
                grown[len1 + 1, len2, True, d] += count
            if len2 < min(k, len1):
                # entry-1 in row 1 and entry in row 2: a descent at
                # entry-1, where RowDiff is len1 - len2
                if last_in_row1 and (len1 - len2) % 2:
                    d = max(d, entry // 2)
                grown[len1, len2 + 1, False, d] += count
        states = grown
    hist = [0] * (n // 2 + 1)
    for (_, _, _, d), count in states.items():
        hist[d] += count
    return hist


def enumerate_two_row_syt(n: int, k: int) -> Iterator[TwoRowSYT]:
    """All standard tableaux of shape (n-k, k): entries 1..n are placed
    one per round, in row 1 before row 2, so the listing is in
    lexicographic order of the row word."""
    if not 0 <= k <= n // 2:
        raise ValueError(f"need 0 <= k <= n//2, got k={k}")
    rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for entry in range(1, n + 1):
        grown = []
        for row1, row2 in rows:
            if len(row1) < n - k:
                grown.append((row1 + (entry,), row2))
            if len(row2) < min(k, len(row1)):
                grown.append((row1, row2 + (entry,)))
        rows = grown
    for row1, row2 in rows:
        yield TwoRowSYT(row1, row2)


# -- probabilities and identities ---------------------------------------------


def probability_sequences(n: int) -> list[list[tuple[int, Fraction]]]:
    """seqs[i] = [(k, P_k)] for i = 0..floor((n-1)/2), k = 0..floor(n/2),
    with P_k the probability that a uniform NLP(n, n-2k) path keeps its
    odd-height peaks inside the first floor(n/2)-i intervals.  Each
    NLP(n, n-2k) histogram is counted once; every i reads a prefix of it."""
    hists = [restricted_count_histogram(n, k) for k in range(n // 2 + 1)]
    return [
        [(k, Fraction(allowed_count(h, n, i), two_row_dimension(n, k)))
         for k, h in enumerate(hists)]
        for i in range((n - 1) // 2 + 1)
    ]


def weakly_decreasing(seq: Sequence[tuple[int, Fraction]]) -> bool:
    """Whether the probabilities of a (k, P_k) sequence weakly decrease."""
    return all(a[1] >= b[1] for a, b in zip(seq, seq[1:]))


def probability_monotonicity(n: int, i: int
                             ) -> tuple[list[tuple[int, Fraction]], bool]:
    """Probability that a uniform NLP(n, n-2k) path keeps its odd-height
    peaks inside the first floor(n/2)-i intervals, for k = 0..floor(n/2);
    returns the exact sequence and whether it weakly decreases in k."""
    if not 0 <= i <= (n - 1) // 2:
        raise ValueError(f"need i <= floor((n-1)/2), got i={i}")
    seq = probability_sequences(n)[i]
    return seq, weakly_decreasing(seq)


def catalan(l: int) -> int:
    return comb(2 * l, l) // (l + 1)


def riordan_number(l: int) -> int:
    return last_value(l, l)


def sequence_identities(l_max: int) -> dict:
    """Catalan-Riordan convolution and the binomial-Riordan expansion of
    every alpha_{2l,k,i}, checked exactly for l <= l_max."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    catalan_riordan = []
    for l in range(l_max + 1):
        rhs = sum(comb(l, t) * riordan_number(l - t) for t in range(l + 1))
        catalan_riordan.append((l, catalan(l), rhs, catalan(l) == rhs))
    convolution = []
    for l in range(1, l_max + 1):
        table = alpha_table(2 * l)
        for k in range(l + 1):
            for i in range(l + 1):
                rhs = sum(
                    comb(l - i, t) * last_value(l - t, k - t)
                    for t in range(l - i + 1)
                )
                convolution.append(
                    ((l, k, i), table.get(k, i), rhs, table.get(k, i) == rhs)
                )
    return {"catalan_riordan": catalan_riordan, "convolution": convolution}
