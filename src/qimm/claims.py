"""One function per verifiable claim, each returning Verdicts: plans of
rows in key order, one per claim form.  The CLI `verify` subcommands and
the acceptance suite both drive these; results are deterministic given
the parameters.

Claim ids: thm1-weak, thm1-strong, thm2, lem6, lem9, cor10, lem11, lem13,
rem12, lem15-bij, lem16-bij, lem17-conv, lem18, lem19, lem20, lem21,
lem22, rem20, a0-identity, oracle-equivalence.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from math import isqrt
from typing import Callable, Iterable, Sequence

from .characters import (alpha, alpha_table, last_value, poly_power_coeffs,
                         two_row_shape)
from .immanants import (
    BRUTEFORCE_MAX_N,
    COR10,
    LEM6,
    LEM9,
    LEM11,
    LEM13,
    OUTCOME_FLAGS,
    REM12,
    THEOREM_MIN_N,
    Form,
    InequalityVerdict,
    Plan,
    Verdicts,
    a_coeff_arrays,
    cor10_row,
    default_q_grid,
    eq5_holds,
    hook_margins,
    lem6_row,
    lem9_row,
    lem11_row,
    lem13_row,
    oracle_equivalence_report,
    rem12_row,
    sr_differences,
    two_row_gaps,
)
from .paths import (
    LatticePath,
    allowed_count,
    callan_fwd,
    callan_inv,
    enumerate_paths,
    probability_sequences,
    restricted_count_histogram,
    riordan_double_fwd,
    riordan_double_inv,
    sequence_identities,
    syt_descent_histogram,
    weakly_decreasing,
)
from .ratpoly import conv, successive_differences
from .trees import (
    ALL_TREES_MAX_N,
    Tree,
    all_labeled_trees,
    free_trees,
    matching_weight_arrays,
    random_trees,
)

# fixed ranges of the identity sweep: rem20 for l <= 12, lem17-conv for l <= 8
RIORDAN_L_MAX = 12
CONV_L_MAX = 8

# the first value of each capped sweep, and the smallest random sample
SWEEP_START = dict(n_max=THEOREM_MIN_N, hook_n_max=THEOREM_MIN_N,
                   oracle_n_max=2, alpha_n_max=2, last_l_max=2, count_n_max=2,
                   prob_n_max=2, sr_max=1, sr_l_max=1, callan_l_max=1,
                   double_l_max=1, random_count=1)

# Upper caps on the alpha and last tables, for `qimm alpha-table N` /
# `last-table L` and for alpha_n_max / last_l_max: at the cap the costlier
# user, verify alpha-ratios, takes about 5.5-7 s at 50 MB (3-3.5 s at
# 18 MB at --l-max 150), nearly all of it the ratio verdict lines, each
# one % of its claim's template over one row of integers.
ALPHA_TABLE_MAX_N = 200
LAST_TABLE_MAX_L = 150
# The general-sr sweep's caps, each with the other at its default: about
# 0.6-1.0 s at --sr-max 50 and 0.4-0.6 s at --sr-l-max 100.
SR_MAX = 50
SR_L_MAX = 100
# The random thm2 sample: covered by classes at n <= ALL_TREES_MAX_N (about
# 0.1 s at n = 8 at the cap); a failing class walks it unpriced, ~10 s per n.
RANDOM_TREES_MAX = 100_000
# One walked thm2 tree on n vertices costs about 100,000 + n^4 ns (fitted
# to n = 8..200, an over-estimate from n = 50 on, where big-integer
# matching weights dominate); the sample past exhaustive_tree_max and
# ALL_TREES_MAX_N may cost as much as RANDOM_TREES_MAX walked at n = 8.
SAMPLE_TREE_NS = 100_000
# distinct c_j arrays the thm2 sweep memoizes per n: every class up to
# n = 11 (235 free trees); above that most sampled trees have their own
THM2_MEMO_MAX = 256


# the last value of each sweep with an upper cap: labeled walks for the
# tree caps, the brute force for the oracle, the tables, and the sizes of
# the general-sr sweep and the random sample
SWEEP_MAX = dict(hook_n_max=ALL_TREES_MAX_N,
                 exhaustive_tree_max=ALL_TREES_MAX_N,
                 oracle_n_max=BRUTEFORCE_MAX_N,
                 alpha_n_max=ALPHA_TABLE_MAX_N, last_l_max=LAST_TABLE_MAX_L,
                 sr_max=SR_MAX, sr_l_max=SR_L_MAX,
                 random_count=RANDOM_TREES_MAX)


def check_cap(name: str, value: int, cap: int, where: str = "") -> None:
    """Refuse a sweep or table size past its cap, before any work."""
    if value > cap:
        raise ValueError(f"{name} = {value} is above its cap {cap}{where}")


def _sample_ns(first: int, last: int) -> int:
    """The modelled cost of one sampled tree at each n = first..last, in
    closed form, so a huge last costs nothing to bound."""
    def fourth_powers(m):  # 1^4 + ... + m^4
        return m * (m + 1) * (2 * m + 1) * (3 * m * m + 3 * m - 1) // 30
    return (SAMPLE_TREE_NS * (last - first + 1) + fourth_powers(last)
            - fourth_powers(first - 1))


def _sr_verdicts(sr_max: int, sr_l_max: int) -> int:
    """The general-sr sweep's verdicts, which set its time and memory: l
    for each (s, r) pair and each l <= sr_l_max."""
    return sr_max ** 2 * sr_l_max * (sr_l_max + 1) // 2


@dataclass(frozen=True)
class SweepConfig:
    """Caps for the verification sweeps.  `deepen` (the CLI's --deep)
    raises the tree caps and the path caps; the CLI's cap flags take
    these fields as their destinations and defaults.  A config, deepened
    or not, is checked when built, so no sweep starts above its SWEEP_MAX
    or below its SWEEP_START, the general-sr sweep writes at most
    SR_VERDICTS_MAX verdicts and the walked thm2 sample costs at most
    SAMPLE_NS_MAX; exhaustive_tree_max is cut to n_max."""

    n_max: int = 8
    exhaustive_tree_max: int = 7
    hook_n_max: int = 6
    oracle_n_max: int = 6
    random_count: int = 1000
    seed: int = 0
    alpha_n_max: int = 40
    last_l_max: int = 40
    sr_l_max: int = 12
    sr_max: int = 4
    callan_l_max: int = 6
    double_l_max: int = 7
    count_n_max: int = 14
    prob_n_max: int = 14

    def __post_init__(self):
        object.__setattr__(self, "exhaustive_tree_max",
                           min(self.exhaustive_tree_max, self.n_max))
        for name, cap in SWEEP_MAX.items():
            check_cap(name, getattr(self, name), cap)
        for name, start in SWEEP_START.items():
            if getattr(self, name) < start:
                raise ValueError(f"{name} = {getattr(self, name)} checks "
                                 f"nothing: its sweep starts at {start}")
        check_cap("sr_max", self.sr_max,
                  isqrt(SR_VERDICTS_MAX // _sr_verdicts(1, self.sr_l_max)),
                  f" at sr_l_max = {self.sr_l_max}")
        covered = max(self.exhaustive_tree_max, ALL_TREES_MAX_N)
        if self.n_max > covered:
            check_cap("random_count", self.random_count,
                      SAMPLE_NS_MAX // _sample_ns(covered + 1, self.n_max),
                      f" at n_max = {self.n_max}")

    def deepen(self) -> "SweepConfig":
        return replace(
            self,
            n_max=max(self.n_max, 8),
            exhaustive_tree_max=min(8, self.exhaustive_tree_max + 1),
            hook_n_max=self.hook_n_max + 1,
            oracle_n_max=min(7, self.oracle_n_max + 1),
            random_count=self.random_count * 5,
            callan_l_max=self.callan_l_max + 1,
            double_l_max=self.double_l_max + 1,
            count_n_max=self.count_n_max + 2,
            prob_n_max=self.prob_n_max + 2,
        )

    def span(self, cap: str) -> range:
        """The values a capped sweep visits: SWEEP_START[cap] to the cap."""
        return range(SWEEP_START[cap], getattr(self, cap) + 1)


# the two general-sr caps together: the verdicts of the costlier single-
# flag cap, with the other flag at its default (195,000, at --sr-max 50)
SR_VERDICTS_MAX = max(_sr_verdicts(SR_MAX, SweepConfig.sr_l_max),
                      _sr_verdicts(SweepConfig.sr_max, SR_L_MAX))
# the walked thm2 sample: the cost of its random_count cap at the default
# n_max if walked, about 10 s
SAMPLE_NS_MAX = RANDOM_TREES_MAX * _sample_ns(SweepConfig.n_max,
                                              SweepConfig.n_max)


def _walk(trees: Iterable[Tree], check: Callable) -> tuple[int, dict]:
    """Run `check`, which yields (claim, what failed), on every tree: the
    tree count and each claim's failures, prefixed by the tree's label."""
    checked, failures = 0, defaultdict(list)
    for checked, tree in enumerate(trees, 1):
        for claim, what in check(tree):
            failures[claim].append(f"{tree.label()} {what}")
    return checked, failures


def _class_walk(n: int, check: Callable, labeled: Iterable[Tree] | None = None,
                count: int | None = None) -> tuple[int, dict]:
    """`_walk` over `labeled`, `count` labeled trees on n vertices (all
    n^(n-2) by default), for a `check` whose outcome relabeling does not
    change (one that reads a tree only through n and its matching
    weights, or through an expansion of its q-Laplacian by permutation
    cycle type), so `check` runs once per isomorphism class of
    `free_trees(n)`: when every class holds, so does every tree.
    If any class fails, `labeled` is walked, so failures name its trees
    in its order (Pruefer order by default).  Whatever else `check`
    records comes from class representatives, which are labeled trees
    but not the first in Pruefer order: `verify_hook` keeps only gap
    values and finds the labeled tree that attains each by a walk."""
    for tree, _ in free_trees(n):
        if any(check(tree)):
            return _walk(labeled or all_labeled_trees(n), check)
    return (n ** (n - 2) if count is None else count), defaultdict(list)


# A row made up front: holds << 2 | asserted (2), its detail, its values.
# A tree sweep's detail, its one %s, names the first five failures.  Each
# form's rows are sorted once by their params as strings (_verdicts): the
# key order, since every row of a form has its param names.
_FAILURES = ("%s",)


def _row(holds: bool, values: tuple, detail: int = 0) -> tuple:
    return holds << 2 | 2, detail, values


def _tree_row(fails: list[str], *values) -> tuple:
    return _row(not fails, (*values, "; ".join(fails[:5])))


def _verdicts(*plans: tuple[Form, list[tuple]]) -> Verdicts:
    for form, rows in plans:
        rows.sort(key=lambda row: [str(v) for v in row[2][:len(form.names)]])
    return Verdicts([Plan(form, len(rows), rows.__iter__)
                     for form, rows in plans])


def verify_two_row(config: SweepConfig) -> Verdicts:
    """Theorem 2 sweep: exhaustive for small n and seeded random sampling
    of labeled trees above the exhaustive cap.  For n <= ALL_TREES_MAX_N
    either is covered by one tree per isomorphism class (`_class_walk`),
    and only a failing class makes the sample be walked, tree by tree."""
    # n and the c_j arrays fix a tree's failures, and a walked sample
    # repeats arrays (no more distinct ones than classes: 106 at n = 10):
    # the memo keeps each n's first THM2_MEMO_MAX arrays, class probes
    # first, so it stays small however many trees are sampled
    memo: dict[tuple, tuple[str, ...]] = {}

    def check(tree):
        weights = matching_weight_arrays(tree)
        key = tuple(map(tuple, weights))
        fails = memo.get(key)
        if fails is None:  # each k whose gap has a negative coefficient
            fails = tuple(f"k={k}: {gap}" for k, gap in enumerate(
                two_row_gaps(tree.n, weights), 1) if any(c < 0 for c in gap))
            if len(memo) < THM2_MEMO_MAX:
                memo[key] = fails
        for what in fails:
            yield "thm2", what
    rows = []
    for n in config.span("n_max"):
        memo.clear()
        src_label, labeled, count = "all", None, None
        if n > config.exhaustive_tree_max:
            src_label = f"random:{config.random_count}:seed={config.seed}"
            labeled = random_trees(n, config.random_count, config.seed)
            count = config.random_count
        checked, failures = (
            _class_walk(n, check, labeled, count) if n <= ALL_TREES_MAX_N
            else _walk(labeled, check))
        fails = failures["thm2"]
        rows.append(_tree_row(fails, f"1..{n // 2}", n, src_label, checked,
                              len(fails)))
    return _verdicts((Form("thm2", ("k", "n", "trees"),
                           "%d trees, %d violations", _FAILURES,
                           ("k", "trees")), rows))


def verify_hook(config: SweepConfig) -> Verdicts:
    """Theorem 1 weak and strong hook chains on the default exact q grid,
    over one tree per isomorphism class (`_class_walk`).  The smallest
    margin per claim is named by the first labeled tree in Pruefer order,
    at its first k, whose hook_margins gap attains it; that walk stops as
    soon as every claim has one."""
    grid = default_q_grid()
    rows = defaultdict(list)
    for n in config.span("hook_n_max"):
        low: dict[str, Fraction] = {}  # weak, strong

        # no restart when _class_walk falls back to labeled trees: a class
        # representative is itself a labeled tree, so every gap seen is
        # attained by one, and the witness walk below names the first
        def check(tree):
            for claim, k, gap, q in hook_margins(tree, grid):
                low[claim] = min(low.get(claim, gap), gap)
                if gap < 0:
                    yield claim, f"k={k}: negative gap {gap} at q={q}"

        checked, failures = _class_walk(n, check)
        witness: dict[str, tuple[Tree, int]] = {}
        for tree in all_labeled_trees(n):
            for claim, k, gap, _ in hook_margins(tree, grid):
                if gap == low[claim]:
                    witness.setdefault(claim, (tree, k))
            if len(witness) == len(low):
                break
        for claim, gap in low.items():
            tree, k = witness[claim]
            rows[claim].append(_tree_row(
                failures[claim], f"{len(grid)} points", n, "all", checked,
                str(gap), tree.label(), k))
    return _verdicts(*((Form(claim, ("grid", "n", "trees"),
                             "%d trees; min gap %s (%s, k=%d)", _FAILURES,
                             ("grid", "trees")), rows[claim])
                       for claim in sorted(rows)))


def _by_str(start: int, stop: int) -> list[int]:
    """range(start, stop) in the order of its values as strings: a
    parameter's order in the key."""
    return sorted(range(start, stop), key=str)


def verify_alpha_ratios(config: SweepConfig) -> Verdicts:
    """lem6 and lem13 for n up to alpha_n_max; lem9, cor10, lem11 for rows
    of the last-row triangle up to last_l_max.  Each claim is a plan whose
    row maker gives its verdicts one at a time, in key order: (i, k, n)
    for lem13 and lem6, (k, l) for lem9 and lem11, (k, l, r) for cor10."""
    n_max, l_max = config.alpha_n_max, config.last_l_max
    halves = [n // 2 for n in config.span("alpha_n_max")]
    l_span = config.span("last_l_max")

    def alpha(row, lem6):
        # i <= n//2 (i < n//2 for lem6) and k < n//2, so n starts at
        # 2 max(i + lem6, k + 1), which is at least the sweep's start 2
        for i in _by_str(0, n_max // 2 + 1 - lem6):
            for k in _by_str(0, n_max // 2):
                for n in _by_str(2 * max(i + lem6, k + 1), n_max + 1):
                    yield row(n, k, i)

    def last(row):  # 1 <= k < l
        for k in _by_str(1, l_max):
            for l in _by_str(k + 1, l_max + 1):
                yield row(l, k)

    def cor10():  # 1 <= r <= k < l
        for k in _by_str(1, l_max):
            rs = _by_str(1, k + 1)
            for l in _by_str(k + 1, l_max + 1):
                for r in rs:
                    yield cor10_row(l, k, r)

    return Verdicts([
        Plan(COR10, sum(l * (l - 1) // 2 for l in l_span), cor10),
        Plan(LEM11, sum(l - 1 for l in l_span), partial(last, lem11_row)),
        Plan(LEM13, sum(h * (h + 1) for h in halves),
             partial(alpha, lem13_row, 0)),
        Plan(LEM6, sum(h * h for h in halves), partial(alpha, lem6_row, 1)),
        Plan(LEM9, sum(l - 1 for l in l_span), partial(last, lem9_row)),
    ])


def verify_general_sr(config: SweepConfig) -> Verdicts:
    """rem12 for s, r <= sr_max and l <= sr_l_max, one plan in key order
    (k, l, r, s); each pass computes the rows D_c, c <= 2 sr_max, once per
    l and holds them while it makes the rows."""
    sides = _by_str(1, config.sr_max + 1)
    l_max = config.sr_l_max

    def rows():
        diffs = {l: [None, *(sr_differences(l, c)
                             for c in range(1, 2 * config.sr_max + 1))]
                 for l in config.span("sr_l_max")}
        for k in _by_str(0, l_max):
            for l in _by_str(k + 1, l_max + 1):
                row = diffs[l]
                for r in sides:
                    for s in sides:
                        yield rem12_row(l, s, r, k, row[s], row[r + s])

    return Verdicts([Plan(REM12, _sr_verdicts(config.sr_max, l_max), rows)])


# -- path claims ---------------------------------------------------------------


def verify_callan(config: SweepConfig) -> Verdicts:
    """lem15-bij: exhaustive round trips plus the published example pair.
    UHD(l, l-k+1), the target of slice k, is the row listed for k - 1."""
    golden_ok = (
        str(callan_fwd(LatticePath("UDDUUUUH"))) == "DUUHUUUH"
        and str(callan_inv(LatticePath("UDDHDUUU"))) == "DUUHUDDH"
    )
    rows = []
    for l in config.span("callan_l_max"):
        u_up: list[LatticePath] = []
        for k in range(l + 1):
            u_here = enumerate_paths("UHD", l, l - k)
            grp = [p for p in u_here if p.is_grp()]
            domain = [p for p in u_here if not p.is_grp()]
            images = [callan_fwd(p) for p in domain]
            # the images are matched against UHD(l, l-k+1) before any is
            # inverted, since callan_inv raises on a path outside that set
            ok = (
                len(set(images)) == len(domain)
                and set(images) == set(u_up)
                and all(callan_inv(q) == p for p, q in zip(domain, images))
                and len(grp) == last_value(l, k)
                and len(u_here) - len(grp) == len(u_up)
            )
            rows.append(_row(ok, (k, l, len(u_here), len(grp), len(u_up))))
            u_up = u_here
    return _verdicts(
        (Form("lem15-bij", ("case",), "f(UDDUUUUH), f^-1(UDDHDUUU)",
              strings=("case",)), [_row(golden_ok, ("published-examples",))]),
        (Form("lem15-bij", ("k", "l"), "|UHD|=%d, |GRP|=%d, |UHD+1|=%d"),
         rows))


def verify_doubling(config: SweepConfig) -> Verdicts:
    """lem16-bij: the doubled image is exactly the odd-peak-free slice."""
    rows = []
    for l in config.span("double_l_max"):
        for k in range(l + 1):
            grp = enumerate_paths("GRP", l, l - k)
            images = [riordan_double_fwd(p) for p in grp]
            # riordan_double_inv accepts exactly the NLP(2l, 2l-2k) paths
            # with no odd-height peak (an aligned UD pair is one) and raises
            # on the rest, a failed round trip; once every image round-trips
            # it lies in that target, and distinct images as many as its
            # paths (entry 0 of the slice's histogram) fill it
            try:
                round_trips = all(riordan_double_inv(q) == p
                                  for p, q in zip(grp, images))
            except ValueError:
                round_trips = False
            ok = (
                round_trips
                and len(set(images)) == len(grp)
                == restricted_count_histogram(2 * l, k)[0]
                and len(grp) == last_value(l, k)
            )
            rows.append(_row(ok, (k, l, len(grp), len(images))))
    return _verdicts((Form("lem16-bij", ("k", "l"), "|GRP|=%d, image=%d"),
                      rows))


def verify_counting(config: SweepConfig) -> Verdicts:
    """lem18 (even n) and lem19 (odd n): restricted path counts equal the
    alpha table entrywise."""
    rows = defaultdict(list)
    for n in config.span("count_n_max"):
        half = n // 2
        table = alpha_table(n)
        for k in range(half + 1):
            hist = restricted_count_histogram(n, k)
            for i in range(half + 1):
                counted = allowed_count(hist, n, i)
                expect = table.get(k, i)
                rows["lem19" if n % 2 else "lem18"].append(
                    _row(counted == expect, (i, k, n, counted, expect)))
    return _verdicts(*((Form(claim, ("i", "k", "n"), "paths %d, alpha %d"),
                        rows[claim]) for claim in sorted(rows)))


def verify_probability(config: SweepConfig) -> Verdicts:
    """lem20 on paths and lem21 on tableaux, with exact rationals.  Each
    path class and tableau shape has its histogram counted once per n, by
    two separately written state transfers (restricted_count_histogram,
    syt_descent_histogram), so no path or tableau is listed; every i
    reads a prefix of a histogram."""
    lem20, lem21 = [], []
    for n in config.span("prob_n_max"):
        path_seqs = probability_sequences(n)
        # tableau side: descents with odd RowDiff, counted from the rows
        syt_hists = [syt_descent_histogram(n, k) for k in range(n // 2 + 1)]
        for i, seq in enumerate(path_seqs):
            seq2 = [(k, Fraction(allowed_count(h, n, i), sum(h)))
                    for k, h in enumerate(syt_hists)]
            for rows, holds, probs, detail in (
                    (lem20, weakly_decreasing(seq), seq, 0),
                    (lem21, weakly_decreasing(seq2) and seq2 == seq, seq2,
                     seq2 != seq)):
                rows.append(_row(holds, (i, n, ", ".join(
                    f"k={k}:{p}" for k, p in probs)), detail))
    return _verdicts((Form("lem20", ("i", "n"), "%s"), lem20),
                     (Form("lem21", ("i", "n"), "%s",
                           ("", "tableau and path probabilities disagree")),
                      lem21))


def verify_identities(config: SweepConfig) -> Verdicts:
    """rem20 (Catalan-Riordan), lem17-conv (binomial-Riordan expansion),
    and lem22: successive differences of (1+x)^(n-2i) (1+x+x^2)^i by
    convolution against alpha(n, (n-k, k), i), alpha's definition through
    general Murnaghan-Nakayama (alpha_table is that product)."""
    report = sequence_identities(RIORDAN_L_MAX, CONV_L_MAX)
    rem20 = [_row(ok, (l, l, lhs, rhs))
             for l, lhs, rhs, ok in report["catalan_riordan"]]
    lem17 = [_row(ok, (i, k, l, lhs, rhs))
             for (l, k, i), lhs, rhs, ok in report["convolution"]]
    lem22 = []
    for n in config.span("count_n_max"):
        half = n // 2
        for i in range(half + 1):
            coeffs = poly_power_coeffs((1, 1), n - 2 * i)
            tri = poly_power_coeffs((1, 1, 1), i)
            diffs = successive_differences(conv(coeffs, tri))
            for k, diff in enumerate(diffs[:half + 1]):
                value = alpha(n, two_row_shape(n, k), i)
                lem22.append(_row(diff == value, (i, k, n, diff, value)))
    return _verdicts(
        (Form("lem17-conv", ("i", "k", "l"), "alpha=%d, sum=%d"), lem17),
        (Form("lem22", ("i", "k", "n"), "diff %d, alpha %d"), lem22),
        (Form("rem20", ("l",), "C_%d=%d, convolution=%d"), rem20))


# -- immanant infrastructure claims --------------------------------------------


def verify_oracle(config: SweepConfig) -> Verdicts:
    """oracle-equivalence: matching route equals brute force for every
    labeled tree and every shape, n <= oracle_n_max, over one tree per
    isomorphism class (`_class_walk`).  Relabeling conjugates the
    q-Laplacian by a permutation matrix and chi is a class function, so
    the brute-force immanant is the same on every labeling; the matching
    route reads only the c_j.  Both routes still run on the same tree."""
    def check(tree):
        for shape, ok in oracle_equivalence_report(tree):
            if not ok:
                yield "oracle-equivalence", str(shape)
    rows = []
    for n in config.span("oracle_n_max"):
        checked, failures = _class_walk(n, check)
        rows.append(_tree_row(failures["oracle-equivalence"], n,
                              "all partitions", "all", checked))
    return _verdicts((Form("oracle-equivalence", ("n", "shapes", "trees"),
                           "%d trees", _FAILURES, ("shapes", "trees")), rows))


def verify_a_coeffs(config: SweepConfig) -> Verdicts:
    """a0-identity: a_0 = 1 - q^2; a_i even with nonnegative coefficients
    for i >= 1; reconstruction through the alpha table is exact.  On t =
    q^2 arrays a_i is even by construction and a_0 reads [1, -1]."""
    def check(tree):
        weights = matching_weight_arrays(tree)
        a = a_coeff_arrays(weights)
        if a[0] != [1, -1]:  # then only a0 is reported
            yield "a0-identity", "a0"
            return
        for i in range(1, len(a)):
            if any(c < 0 for c in a[i]):
                yield "a0-identity", f"a{i}"
        if not eq5_holds(tree.n, weights, a):
            yield "a0-identity", "reconstruction"
    rows = []
    for n in config.span("oracle_n_max"):
        checked, failures = _class_walk(n, check)
        rows.append(_tree_row(failures["a0-identity"], n, "all", checked))
    return _verdicts((Form("a0-identity", ("n", "trees"), "%d trees",
                           _FAILURES, ("trees",)), rows))


# -- verdict lines ---------------------------------------------------------------

# A verify line is json.dumps(v.to_json(), sort_keys=True), made by JSON
# like every sorted-key line, or in CSV the row csv.writer writes of
# to_json()'s values, in CSV_ORDER, params as that JSON's text.  A form
# whose slots are all %d (no str param, no %s in its witness, no % in any
# detail) writes a row as one % of its outcome and detail's template, its
# slots in field order in either format; any other form writes each line
# from the row's verdict.
CSV_ORDER = [f.name for f in fields(InequalityVerdict)]
JSON = json.JSONEncoder(sort_keys=True)
_BOOL = ("false", "true")
_CSV_QUOTED = re.compile('[,"\r\n]')  # what makes csv.writer quote a field


def csv_field(text: str) -> str:
    """One field as csv.writer writes it (quoted where _CSV_QUOTED)."""
    return ('"%s"' % text.replace('"', '""') if _CSV_QUOTED.search(text)
            else text)


def csv_row(values: Iterable) -> str:
    """The line csv.writer writes for `values`."""
    return ",".join(csv_field(str(v)) for v in values) + "\r\n"


def writers(form: Form, fmt: str) -> list[list[Callable[[tuple], str]]]:
    """For each outcome and detail, what makes a row's JSON (or, under fmt
    "csv", CSV) line from its values."""
    csv = fmt == "csv"
    text = csv_field if csv else encode_basestring_ascii
    params = "{%s}" % ", ".join(
        f"{encode_basestring_ascii(name).replace('%', '%%')}: %d"
        for name in form.names)

    def templated(outcome, detail):
        field = dict(zip(("holds", "asserted", "degenerate"),
                         (str(flag) if csv else _BOOL[flag]
                          for flag in OUTCOME_FLAGS[outcome])),
                     claim=text(form.claim.replace("%", "%%")),
                     params=csv_field(params) if csv else params,
                     witness=text(form.witness),
                     detail=text(form.details[detail]))
        if csv:
            return (",".join(map(field.get, CSV_ORDER)) + "\r\n").__mod__
        return ("{%s}\n" % ", ".join(f'"{name}": {field[name]}'
                                     for name in sorted(field))).__mod__

    def from_verdict(outcome, detail):
        def write(values):
            v = form.verdict((outcome, detail, values)).to_json()
            return (csv_row({**v, "params": JSON.encode(v["params"])}.values())
                    if csv else JSON.encode(v) + "\n")
        return write

    make = (from_verdict if form.strings or "%s" in form.witness
            or "%" in "".join(form.details) else templated)
    return [[make(outcome, detail) for detail in range(len(form.details))]
            for outcome in range(len(OUTCOME_FLAGS))]


# -- dispatcher ------------------------------------------------------------------


VERIFY_NAMES = ("two-row", "hook", "alpha-ratios", "general-sr", "paths",
                "probability", "identities", "all")


def run_claims(which: str, config: SweepConfig) -> Verdicts:
    """The claim set of one of VERIFY_NAMES, in canonical order: every
    sweep's plans, merged by claim.  The ratio claims' rows are made as
    the sequence is iterated; every other claim's are made here."""
    if which not in VERIFY_NAMES:
        raise ValueError(f"unknown claim set {which!r}; use one of "
                         f"{', '.join(VERIFY_NAMES)}")
    sweeps = {"two-row": (verify_two_row,), "hook": (verify_hook,),
              "alpha-ratios": (verify_alpha_ratios,),
              "general-sr": (verify_general_sr,),
              "paths": (verify_callan, verify_doubling, verify_counting),
              "probability": (verify_probability,),
              "identities": (verify_identities,),
              "all": (verify_oracle, verify_a_coeffs)}
    plans = [plan for name, group in sweeps.items() if which in (name, "all")
             for sweep in group for plan in sweep(config).plans]
    return Verdicts(sorted(plans, key=lambda plan: plan.form.claim))


# A tally counts verdicts per claim by outcome, at index
# holds << 2 | asserted << 1 | degenerate.
OUTCOMES = len(OUTCOME_FLAGS)


def summary(tally: dict[str, Sequence[int]]) -> dict:
    """The run summary of a tally."""
    bins = [sum(col) for col in zip(*tally.values())] or [0] * OUTCOMES
    failed = bins[0b010]  # degenerate failures are not counted as failed
    return {
        "total": sum(bins),
        "passed_asserted": bins[0b110] + bins[0b111],
        "failed_asserted": failed,
        "degenerate": sum(bins[1::2]),
        "violations_reported_unasserted": bins[0b000] + bins[0b001],
        "all_ok": failed == 0,
    }


def summarize(verdicts: Iterable[InequalityVerdict]) -> dict:
    tally = defaultdict(lambda: [0] * OUTCOMES)
    for v in verdicts:
        tally[v.claim][v.holds << 2 | v.asserted << 1 | v.degenerate] += 1
    return summary(tally)
