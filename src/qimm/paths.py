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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

from .characters import alpha_table, last_value, two_row_dimension

_STEP = {"U": 1, "D": -1, "H": 0}


@dataclass(frozen=True)
class LatticePath:
    """Step string over U/D/H with cached running heights."""

    steps: str

    def __post_init__(self):
        if any(s not in _STEP for s in self.steps):
            raise ValueError(f"bad step in {self.steps!r}; expected U/D/H")

    def heights(self) -> tuple[int, ...]:
        """Heights at positions 0..len(steps), starting at 0."""
        h = 0
        out = [0]
        for s in self.steps:
            h += _STEP[s]
            out.append(h)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.steps)

    def end_height(self) -> int:
        return self.heights()[-1]

    def min_height(self) -> int:
        return min(self.heights())

    def is_ud(self) -> bool:
        return "H" not in self.steps

    def is_nonnegative(self) -> bool:
        return self.min_height() >= 0

    def has_ground_h(self) -> bool:
        h = 0
        for s in self.steps:
            if s == "H" and h == 0:
                return True
            h += _STEP[s]
        return False

    def is_grp(self) -> bool:
        return self.is_nonnegative() and not self.has_ground_h()

    def __str__(self) -> str:
        return self.steps


def _flip(steps: str) -> str:
    """Reflect across the x-axis: swap U and D, H fixed."""
    return steps.translate(str.maketrans("UD", "DU"))


# -- enumeration -----------------------------------------------------------


def enumerate_paths(path_class: str, length: int, end_height: int
                    ) -> list[LatticePath]:
    """Exhaustive, duplicate-free listing of one path class."""
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
        nonneg = True
        riordan = False
    elif path_class == "UHD":
        if abs(end_height) > length:
            raise ValueError(f"end height {end_height} unreachable")
        alphabet = "UHD"
        nonneg = False
        riordan = False
    elif path_class == "GRP":
        if end_height < 0 or end_height > length:
            raise ValueError(f"end height {end_height} unreachable")
        alphabet = "UHD"
        nonneg = True
        riordan = True
    else:
        raise ValueError(f"unknown path class {path_class!r}")

    out: list[LatticePath] = []

    def rec(prefix: list[str], h: int):
        rem = length - len(prefix)
        if abs(end_height - h) > rem:
            return
        if rem == 0:
            out.append(LatticePath("".join(prefix)))
            return
        for s in alphabet:
            nh = h + _STEP[s]
            if nonneg and nh < 0:
                continue
            if riordan and s == "H" and h == 0:
                continue
            prefix.append(s)
            rec(prefix, nh)
            prefix.pop()

    rec([], 0)
    return out


def nlp_count(n: int, k: int) -> int:
    """|NLP(n, n-2k)| = C(n,k) - C(n,k-1)."""
    return two_row_dimension(n, k)


# -- the end-height bijection on UHD paths -----------------------------------


def _riordan_suffix_cut(path: LatticePath, level: int) -> int:
    """Smallest cut c such that the suffix stays at or above `level` and
    has no H step at `level`.  The suffix then starts exactly at `level`
    (or c = 0 for level 0 when the whole path qualifies)."""
    h = path.heights()
    n = len(path)
    ok_from = n + 1
    if h[n] >= level:
        ok_from = n
    for c in range(n - 1, -1, -1):
        if h[c] < level:
            break
        if path.steps[c] == "H" and h[c] == level:
            break
        ok_from = c
    if ok_from == n + 1 or h[n] < level:
        raise ValueError(f"path {path} has no suffix at level {level}")
    return ok_from


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
    s, x, r = path.steps[: c - 1], path.steps[c - 1], path.steps[c:]
    if x == "H":
        return LatticePath(_flip(s) + "U" + r)
    if x == "U":
        return LatticePath(_flip(s) + "H" + r)
    raise AssertionError("cut step cannot be D")


def callan_inv(path: LatticePath) -> LatticePath:
    """Inverse of callan_fwd; defined on UHD paths ending at height >= 1."""
    if path.end_height() < 1:
        raise ValueError(f"{path} ends below height 1; not in the image")
    c = _riordan_suffix_cut(path, 1)
    s, x, r = path.steps[: c - 1], path.steps[c - 1], path.steps[c:]
    if x == "H":
        return LatticePath(_flip(s) + "U" + r)
    if x == "U":
        return LatticePath(_flip(s) + "H" + r)
    raise AssertionError("cut step cannot be D")


# -- the doubling bijection ---------------------------------------------------


_DOUBLE = {"U": "UU", "D": "DD", "H": "DU"}
_HALVE = {"UU": "U", "DD": "D", "DU": "H"}


def riordan_double_fwd(path: LatticePath) -> LatticePath:
    """GRP(l, l-k) -> U/D paths of length 2l with no odd-height peaks."""
    if not path.is_grp():
        raise ValueError(f"{path} is not a generalized Riordan path")
    return LatticePath("".join(_DOUBLE[s] for s in path.steps))


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
    h = path.heights()
    out = []
    for t in range(len(path) - 1):
        if path.steps[t] == "U" and path.steps[t + 1] == "D":
            y = h[t + 1]
            out.append((t + 1, y, "odd" if y % 2 else "even"))
    return out


def max_odd_peak_interval(path: LatticePath) -> int:
    """Largest interval index d = (x+1)/2 over odd-height peaks; 0 if none."""
    worst = 0
    for x, y, parity in peak_profile(path):
        if parity == "odd":
            worst = max(worst, (x + 1) // 2)
    return worst


def count_restricted(n: int, k: int, i: int) -> int:
    """Nonnegative U/D paths with n steps and k down steps whose odd-height
    peaks all sit in intervals s_1..s_{floor(n/2)-i}; equals alpha_{n,k,i}."""
    if not (0 <= k <= n // 2 and 0 <= i <= n // 2):
        raise ValueError(f"need 0 <= k, i <= n//2, got k={k}, i={i}")
    return allowed_count(restricted_count_histogram(n, k), n, i)


@lru_cache(maxsize=None)
def restricted_count_histogram(n: int, k: int) -> tuple[int, ...]:
    """hist[d] = number of NLP(n, n-2k) paths whose largest odd-peak
    interval index is exactly d; built once per (n, k) and shared by the
    counting and probability sweeps."""
    hist = [0] * (n // 2 + 1)
    for p in enumerate_paths("NLP", n, n - 2 * k):
        hist[max_odd_peak_interval(p)] += 1
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
        n = len(self.row1) + len(self.row2)
        if sorted(self.row1 + self.row2) != list(range(1, n + 1)):
            raise ValueError("rows must partition 1..n")
        if any(a >= b for a, b in zip(self.row1, self.row1[1:])):
            raise ValueError("row 1 must increase")
        if any(a >= b for a, b in zip(self.row2, self.row2[1:])):
            raise ValueError("row 2 must increase")
        if len(self.row2) > len(self.row1):
            raise ValueError("row 2 may not be longer than row 1")
        if any(self.row2[t] <= self.row1[t] for t in range(len(self.row2))):
            raise ValueError("columns must increase")

    @property
    def n(self) -> int:
        return len(self.row1) + len(self.row2)

    def shape(self) -> tuple[int, int]:
        return (len(self.row1), len(self.row2))

    def descents(self) -> list[int]:
        """Positions i with i in row 1 and i+1 in row 2."""
        r1, r2 = set(self.row1), set(self.row2)
        return [i for i in range(1, self.n) if i in r1 and i + 1 in r2]

    def row_diff(self, i: int) -> int:
        """RowDiff of the restriction to 1..i (first minus second row size);
        both rows increase, so each count is a bisection."""
        return bisect_right(self.row1, i) - bisect_right(self.row2, i)

    def to_json(self) -> dict:
        """Wire form: the two rows as JSON arrays of integers."""
        return {"row1": list(self.row1), "row2": list(self.row2)}

    @classmethod
    def from_json(cls, data: dict) -> "TwoRowSYT":
        return cls(tuple(data["row1"]), tuple(data["row2"]))


def syt_to_path(tableau: TwoRowSYT) -> LatticePath:
    """Step i is U when i sits in the first row, D otherwise."""
    r1 = set(tableau.row1)
    return LatticePath(
        "".join("U" if i in r1 else "D" for i in range(1, tableau.n + 1))
    )


def path_to_syt(path: LatticePath) -> TwoRowSYT:
    if not path.is_ud():
        raise ValueError("only U/D paths encode two-row tableaux")
    if not path.is_nonnegative():
        raise ValueError("path dips below the axis; columns would decrease")
    row1 = tuple(i + 1 for i, s in enumerate(path.steps) if s == "U")
    row2 = tuple(i + 1 for i, s in enumerate(path.steps) if s == "D")
    return TwoRowSYT(row1, row2)


def max_odd_descent_interval(tableau: TwoRowSYT) -> int:
    """Largest (d+1)//2 over descents d with odd RowDiff; 0 if none.  The
    tableau counterpart of max_odd_peak_interval."""
    return max(
        ((d + 1) // 2 for d in tableau.descents() if tableau.row_diff(d) % 2),
        default=0,
    )


def syt_descent_histogram(n: int, k: int) -> list[int]:
    """hist[d] = number of standard tableaux of shape (n-k, k) whose
    max_odd_descent_interval is exactly d."""
    hist = [0] * (n // 2 + 1)
    for tab in enumerate_two_row_syt(n, k):
        hist[max_odd_descent_interval(tab)] += 1
    return hist


def enumerate_two_row_syt(n: int, k: int) -> Iterator[TwoRowSYT]:
    """All standard tableaux of shape (n-k, k), by direct row growth."""
    if not 0 <= k <= n // 2:
        raise ValueError(f"need 0 <= k <= n//2, got k={k}")

    def rec(entry: int, row1: tuple[int, ...], row2: tuple[int, ...]):
        if entry > n:
            yield TwoRowSYT(row1, row2)
            return
        if len(row1) < n - k:
            yield from rec(entry + 1, row1 + (entry,), row2)
        if len(row2) < min(k, len(row1)):
            yield from rec(entry + 1, row1, row2 + (entry,))

    yield from rec(1, (), ())


# -- probabilities and identities ---------------------------------------------


def probability_sequences(n: int) -> list[list[tuple[int, Fraction]]]:
    """seqs[i] = [(k, P_k)] for i = 0..floor((n-1)/2), k = 0..floor(n/2),
    with P_k the probability that a uniform NLP(n, n-2k) path keeps its
    odd-height peaks inside the first floor(n/2)-i intervals.  Each
    NLP(n, n-2k) is listed once; every i reads a prefix of its histogram."""
    hists = [restricted_count_histogram(n, k) for k in range(n // 2 + 1)]
    return [
        [(k, Fraction(allowed_count(h, n, i), nlp_count(n, k)))
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
