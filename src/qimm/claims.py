"""One function per verifiable claim, each returning InequalityVerdict
records.  The CLI `verify` subcommands and the acceptance suite both drive
these; results are deterministic given the parameters.

Claim ids: thm1-weak, thm1-strong, thm2, lem6, lem9, cor10, lem11, lem13,
rem12, lem15-bij, lem16-bij, lem17-conv, lem18, lem19, lem20, lem21,
lem22, rem20, a0-identity, oracle-equivalence.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from json.encoder import (JSONEncoder, c_make_encoder,
                          encode_basestring_ascii)
from math import factorial, isqrt
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

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
    InequalityVerdict,
    RatioForm,
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
# 1.1-1.9 s at --sr-max 50 and 0.7-0.8 s at --sr-l-max 100.
SR_MAX = 50
SR_L_MAX = 100
# The random thm2 sample: 100,000 labeled trees at n = 8 take about 9 s.
RANDOM_TREES_MAX = 100_000
# One sampled thm2 tree on n vertices costs about 100,000 + n^4 ns (fitted
# to n = 8..200, an over-estimate from n = 50 on, where big-integer
# matching weights dominate); the sampled sweep, random_count trees for
# each n past exhaustive_tree_max, may cost as much as RANDOM_TREES_MAX
# trees at the default n_max = 8.
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
    SR_VERDICTS_MAX verdicts and the sampled thm2 sweep costs at most
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
        if self.n_max > self.exhaustive_tree_max:
            check_cap("random_count", self.random_count, SAMPLE_NS_MAX
                      // _sample_ns(self.exhaustive_tree_max + 1, self.n_max),
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
# the sampled thm2 sweep: the cost of its random_count cap at the default
# n_max, about 10 s
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


def _class_walk(n: int, check: Callable) -> tuple[int, dict]:
    """`_walk` over every labeled tree on n vertices, for a `check` whose
    outcome relabeling does not change (one that reads a tree only
    through n and its matching weights, or through an expansion of its
    q-Laplacian by permutation cycle type), so `check` runs once per
    isomorphism class of `free_trees(n)`, which covers its n!/|Aut T|
    labeled trees.
    If any class fails, n is walked labeled, so failures name labeled
    trees in Pruefer order.  Whatever else `check` records comes from
    class representatives, which are labeled trees but not the first in
    Pruefer order: `verify_hook` keeps only gap values and finds the
    labeled tree that attains each by a walk of its own."""
    covered = 0
    for tree, aut in free_trees(n):
        if any(check(tree)):
            return _walk(all_labeled_trees(n), check)
        covered += factorial(n) // aut
    return covered, defaultdict(list)


def _tree_verdict(claim, params, fails, witness) -> InequalityVerdict:
    """Holds when no tree failed; detail names the first five failures."""
    return InequalityVerdict(claim=claim, params=params, holds=not fails,
                             witness=witness, detail="; ".join(fails[:5]))


def _two_row_failures(n: int, weights: Sequence[Sequence[int]]
                      ) -> tuple[str, ...]:
    """thm2 on an n-vertex tree with c_j t-arrays `weights`: each k whose
    gap has a negative coefficient, worded as the sweep reports it."""
    return tuple(f"k={k}: {gap}"
                 for k, gap in enumerate(two_row_gaps(n, weights), 1)
                 if any(c < 0 for c in gap))


def verify_two_row(config: SweepConfig) -> list[InequalityVerdict]:
    """Theorem 2 sweep: exhaustive for small n, over one tree per
    isomorphism class (`_class_walk`), and seeded random sampling of
    labeled trees above the exhaustive cap."""
    # n and the c_j arrays fix a tree's failures, and a random sample
    # repeats arrays (22 distinct ones among 1,000 trees at n = 8): the
    # memo keeps each n's first THM2_MEMO_MAX arrays, so it stays small
    # however many trees are sampled
    memo: dict[tuple, tuple[str, ...]] = {}

    def check(tree):
        weights = matching_weight_arrays(tree)
        key = tuple(map(tuple, weights))
        fails = memo.get(key)
        if fails is None:
            fails = _two_row_failures(tree.n, weights)
            if len(memo) < THM2_MEMO_MAX:
                memo[key] = fails
        for what in fails:
            yield "thm2", what
    verdicts = []
    for n in config.span("n_max"):
        memo.clear()
        if n <= config.exhaustive_tree_max:
            src_label = "all"
            checked, failures = _class_walk(n, check)
        else:
            src_label = f"random:{config.random_count}:seed={config.seed}"
            checked, failures = _walk(
                random_trees(n, config.random_count, config.seed), check)
        fails = failures["thm2"]
        verdicts.append(_tree_verdict(
            "thm2", {"n": n, "trees": src_label, "k": f"1..{n // 2}"}, fails,
            f"{checked} trees, {len(fails)} violations"))
    return verdicts


def verify_hook(config: SweepConfig) -> list[InequalityVerdict]:
    """Theorem 1 weak and strong hook chains on the default exact q grid,
    over one tree per isomorphism class (`_class_walk`).  The smallest
    margin per claim is named by the first labeled tree in Pruefer order,
    at its first k, whose hook_margins gap attains it; that walk stops as
    soon as every claim has one."""
    grid = default_q_grid()
    verdicts = []
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
            verdicts.append(_tree_verdict(
                claim, {"n": n, "trees": "all", "grid": f"{len(grid)} points"},
                failures[claim],
                f"{checked} trees; min gap {gap} ({tree.label()}, k={k})"))
    return verdicts


def _by_str(start: int, stop: int) -> list[int]:
    """range(start, stop) in the order of its values as strings: the order
    _sort_key puts a parameter in."""
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
        def rows():
            for i in _by_str(0, n_max // 2 + 1 - lem6):
                for k in _by_str(0, n_max // 2):
                    for n in _by_str(2 * max(i + lem6, k + 1), n_max + 1):
                        yield row(n, k, i)
        return rows

    def last(row):  # 1 <= k < l
        def rows():
            for k in _by_str(1, l_max):
                for l in _by_str(k + 1, l_max + 1):
                    yield row(l, k)
        return rows

    def cor10():  # 1 <= r <= k < l
        for k in _by_str(1, l_max):
            rs = _by_str(1, k + 1)
            for l in _by_str(k + 1, l_max + 1):
                for r in rs:
                    yield cor10_row(l, k, r)

    return Verdicts(plans=(
        _Plan(LEM13, sum(h * (h + 1) for h in halves), alpha(lem13_row, 0)),
        _Plan(LEM6, sum(h * h for h in halves), alpha(lem6_row, 1)),
        _Plan(LEM9, sum(l - 1 for l in l_span), last(lem9_row)),
        _Plan(COR10, sum(l * (l - 1) // 2 for l in l_span), cor10),
        _Plan(LEM11, sum(l - 1 for l in l_span), last(lem11_row)),
    ))


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

    return Verdicts(plans=[_Plan(
        REM12, _sr_verdicts(config.sr_max, l_max), rows)])


# -- path claims ---------------------------------------------------------------


def verify_callan(config: SweepConfig) -> list[InequalityVerdict]:
    """lem15-bij: exhaustive round trips plus the published example pair.
    UHD(l, l-k+1), the target of slice k, is the row listed for k - 1."""
    verdicts = []
    golden_ok = (
        str(callan_fwd(LatticePath("UDDUUUUH"))) == "DUUHUUUH"
        and str(callan_inv(LatticePath("UDDHDUUU"))) == "DUUHUDDH"
    )
    verdicts.append(
        InequalityVerdict(
            claim="lem15-bij",
            params={"case": "published-examples"},
            holds=golden_ok,
            witness="f(UDDUUUUH), f^-1(UDDHDUUU)",
        )
    )
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
            verdicts.append(
                InequalityVerdict(
                    claim="lem15-bij",
                    params={"l": l, "k": k},
                    holds=ok,
                    witness=f"|UHD|={len(u_here)}, |GRP|={len(grp)}, "
                            f"|UHD+1|={len(u_up)}",
                )
            )
            u_up = u_here
    return verdicts


def verify_doubling(config: SweepConfig) -> list[InequalityVerdict]:
    """lem16-bij: the doubled image is exactly the odd-peak-free slice."""
    verdicts = []
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
            verdicts.append(
                InequalityVerdict(
                    claim="lem16-bij",
                    params={"l": l, "k": k},
                    holds=ok,
                    witness=f"|GRP|={len(grp)}, image={len(images)}",
                )
            )
    return verdicts


def verify_counting(config: SweepConfig) -> list[InequalityVerdict]:
    """lem18 (even n) and lem19 (odd n): restricted path counts equal the
    alpha table entrywise."""
    verdicts = []
    for n in config.span("count_n_max"):
        claim = "lem18" if n % 2 == 0 else "lem19"
        half = n // 2
        table = alpha_table(n)
        for k in range(half + 1):
            hist = restricted_count_histogram(n, k)
            for i in range(half + 1):
                counted = allowed_count(hist, n, i)
                expect = table.get(k, i)
                verdicts.append(
                    InequalityVerdict(
                        claim=claim,
                        params={"n": n, "k": k, "i": i},
                        holds=counted == expect,
                        witness=f"paths {counted}, alpha {expect}",
                    )
                )
    return verdicts


def verify_probability(config: SweepConfig) -> list[InequalityVerdict]:
    """lem20 on paths and lem21 on tableaux, with exact rationals.  Each
    path class and tableau shape has its histogram counted once per n, by
    two separately written state transfers (restricted_count_histogram,
    syt_descent_histogram), so no path or tableau is listed; every i
    reads a prefix of a histogram."""
    verdicts = []
    for n in config.span("prob_n_max"):
        path_seqs = probability_sequences(n)
        for i, seq in enumerate(path_seqs):
            verdicts.append(
                InequalityVerdict(
                    claim="lem20",
                    params={"n": n, "i": i},
                    holds=weakly_decreasing(seq),
                    witness=", ".join(f"k={k}:{p}" for k, p in seq),
                )
            )
        # tableau side: descents with odd RowDiff, counted from the rows
        syt_hists = [syt_descent_histogram(n, k) for k in range(n // 2 + 1)]
        for i, path_seq in enumerate(path_seqs):
            seq2 = [(k, Fraction(allowed_count(h, n, i), sum(h)))
                    for k, h in enumerate(syt_hists)]
            verdicts.append(
                InequalityVerdict(
                    claim="lem21",
                    params={"n": n, "i": i},
                    holds=weakly_decreasing(seq2) and seq2 == path_seq,
                    witness=", ".join(f"k={k}:{p}" for k, p in seq2),
                    detail="" if seq2 == path_seq
                    else "tableau and path probabilities disagree",
                )
            )
    return verdicts


def verify_identities(config: SweepConfig) -> list[InequalityVerdict]:
    """rem20 (Catalan-Riordan), lem17-conv (binomial-Riordan expansion),
    and lem22: successive differences of (1+x)^(n-2i) (1+x+x^2)^i by
    convolution against alpha(n, (n-k, k), i), alpha's definition through
    general Murnaghan-Nakayama (alpha_table is that product)."""
    verdicts = []
    report = sequence_identities(RIORDAN_L_MAX)
    for l, lhs, rhs, ok in report["catalan_riordan"]:
        verdicts.append(
            InequalityVerdict(
                claim="rem20",
                params={"l": l},
                holds=ok,
                witness=f"C_{l}={lhs}, convolution={rhs}",
            )
        )
    for (l, k, i), lhs, rhs, ok in report["convolution"]:
        if l > CONV_L_MAX:
            break
        verdicts.append(
            InequalityVerdict(
                claim="lem17-conv",
                params={"l": l, "k": k, "i": i},
                holds=ok,
                witness=f"alpha={lhs}, sum={rhs}",
            )
        )
    for n in config.span("count_n_max"):
        half = n // 2
        for i in range(half + 1):
            coeffs = poly_power_coeffs((1, 1), n - 2 * i)
            tri = poly_power_coeffs((1, 1, 1), i)
            diffs = successive_differences(conv(coeffs, tri))
            for k, diff in enumerate(diffs[:half + 1]):
                value = alpha(n, two_row_shape(n, k), i)
                verdicts.append(
                    InequalityVerdict(
                        claim="lem22",
                        params={"n": n, "k": k, "i": i},
                        holds=diff == value,
                        witness=f"diff {diff}, alpha {value}",
                    )
                )
    return verdicts


# -- immanant infrastructure claims --------------------------------------------


def verify_oracle(config: SweepConfig) -> list[InequalityVerdict]:
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
    verdicts = []
    for n in config.span("oracle_n_max"):
        checked, failures = _class_walk(n, check)
        verdicts.append(_tree_verdict(
            "oracle-equivalence",
            {"n": n, "trees": "all", "shapes": "all partitions"},
            failures["oracle-equivalence"], f"{checked} trees"))
    return verdicts


def verify_a_coeffs(config: SweepConfig) -> list[InequalityVerdict]:
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
    verdicts = []
    for n in config.span("oracle_n_max"):
        checked, failures = _class_walk(n, check)
        verdicts.append(_tree_verdict(
            "a0-identity", {"n": n, "trees": "all"}, failures["a0-identity"],
            f"{checked} trees"))
    return verdicts


# -- verdict lines ---------------------------------------------------------------

# A verify JSON line is json.dumps(v.to_json(), sort_keys=True): one % of
# VERDICT_LINE over the fields in name order, typed as VERDICT_SLOTS says:
# bools from _BOOL, strings by json's ASCII escaper, params by a C
# encoder with json.dumps' sorted-key settings, built once here.  A CSV
# row is csv_row of to_json()'s values, params as its JSON text.
VERDICT_SLOTS = dict(asserted="bool", claim="str", degenerate="bool",
                     detail="str", holds="bool", params="dict", witness="str")
VERDICT_LINE = "{%s}\n" % ", ".join(
    f"{encode_basestring_ascii(name)}: %s" for name in VERDICT_SLOTS)
_BOOL = ("false", "true")
# each slot's JSON text, a params slot already being JSON
_JSON_SLOT = dict(bool=_BOOL.__getitem__, str=encode_basestring_ascii,
                  dict=str)
_params_chunks = c_make_encoder(None, JSONEncoder().default,
                                encode_basestring_ascii, None, ": ", ", ",
                                True, False, True)
# csv.writer's writerow returns what its file's write returns: with str
# as write, the CSV line itself
csv_row = csv.writer(SimpleNamespace(write=str)).writerow


def json_line(v: InequalityVerdict) -> str:
    return VERDICT_LINE % (
        _BOOL[v.asserted], encode_basestring_ascii(v.claim),
        _BOOL[v.degenerate], encode_basestring_ascii(v.detail),
        _BOOL[v.holds], "".join(_params_chunks(v.params, 0)),
        encode_basestring_ascii(v.witness))


def csv_line(v: InequalityVerdict) -> str:
    return csv_row({**v.to_json(), "params": "".join(
        _params_chunks(v.params, 0))}.values())


def check_slots(verdict_fields) -> None:
    """Refuse a verdict whose fields are not VERDICT_SLOTS."""
    typed = {f.name: f.type for f in verdict_fields}
    if typed != VERDICT_SLOTS:
        raise TypeError(f"InequalityVerdict fields {typed} are not the "
                        f"slots a verdict line writes, {VERDICT_SLOTS}")


check_slots(fields(InequalityVerdict))


def _literal(text: str) -> str:
    return text.replace("%", "%%")


# -- dispatcher ------------------------------------------------------------------


@lru_cache(maxsize=256)
def _sort_layout(names: tuple) -> tuple[str, Callable]:
    """_sort_key's %-template and value getter for params of these names."""
    order = sorted(names)
    get = itemgetter(*order) if len(order) > 1 else (
        lambda params: tuple(params[name] for name in order))
    return "\0".join(["%s", *(name.replace("%", "%%") + "\0%s"
                              for name in order)]), get


def _sort_key(v: InequalityVerdict) -> str:
    """One string: the claim, then each parameter name and str(value) in
    name order, joined by NUL.  NUL sorts below every character a claim,
    name or value holds, so where one string ends first, here or in the
    tuple (claim, sorted((name, str(value)), ...)), it sorts first in
    both: the two keys order verdicts alike."""
    template, values = _sort_layout(tuple(v.params))
    return template % (v.claim, *values(v.params))


class _Plan:
    """One ratio claim's verdicts as rows (see RatioForm), made one at a
    time in key order by `rows`, and how many it makes."""

    __slots__ = ("form", "claim", "count", "rows")

    def __init__(self, form: RatioForm, count: int,
                 rows: Callable[[], Iterator[tuple]]):
        self.form, self.claim, self.count, self.rows = (form, form.claim,
                                                        count, rows)

    def lines(self, fmt: str) -> list[list[str]]:
        """The claim's JSON or CSV (fmt "csv") line for each outcome and
        detail, with the row's values left as %d: a row's line is one % of
        lines[outcome][detail] over its values.  Built per call, as a CSV
        writer's first row allocates a 128 KiB buffer it keeps."""
        form = self.form
        params = "{%s}" % ", ".join(
            f"{_literal(encode_basestring_ascii(name))}: %d"
            for name in form.names)
        order = [f.name for f in fields(InequalityVerdict)]

        def line(flags, detail):
            slots = dict(zip(("holds", "asserted", "degenerate"), flags),
                         claim=_literal(form.claim), params=params,
                         witness=form.witness, detail=_literal(detail))
            if fmt == "csv":
                return csv_row(slots[name] for name in order)
            return VERDICT_LINE % tuple(
                _JSON_SLOT[kind](slots[name])
                for name, kind in VERDICT_SLOTS.items())
        return [[line(flags, detail) for detail in form.details]
                for flags in OUTCOME_FLAGS]


class Verdicts:
    """Verdicts in canonical (_sort_key) order: the eager ones, sorted
    once when built, and each planned claim's, made as iteration reaches
    them.  _sort_key puts the claim first, then NUL, so the stream is each
    claim's verdicts in turn, in claim-name order, and a plan makes its
    claim's verdicts in key order.  Sized and re-iterable: each pass makes
    the planned verdicts anew and holds none of them."""

    __slots__ = ("eager", "plans")

    def __init__(self, eager: Iterable[InequalityVerdict] = (),
                 plans: Iterable[_Plan] = ()):
        self.eager = sorted(eager, key=_sort_key)
        self.plans = sorted(plans, key=attrgetter("claim"))

    def __len__(self) -> int:
        return len(self.eager) + sum(plan.count for plan in self.plans)

    def parts(self) -> Iterator[InequalityVerdict | _Plan]:
        """The eager verdicts in order, each plan in its place among them."""
        pending = self.plans[::-1]  # the next plan last
        for v in self.eager:
            # a claim name that sorts first has the keys that sort first
            while pending and pending[-1].claim < v.claim:
                yield pending.pop()
            yield v
        yield from reversed(pending)

    def __iter__(self) -> Iterator[InequalityVerdict]:
        for part in self.parts():
            if isinstance(part, _Plan):
                yield from map(part.form.verdict, part.rows())
            else:
                yield part


VERIFY_NAMES = ("two-row", "hook", "alpha-ratios", "general-sr", "paths",
                "probability", "identities", "all")


def run_claims(which: str, config: SweepConfig) -> Verdicts:
    """The claim set of one of VERIFY_NAMES, in canonical order.  The
    ratio claims (alpha-ratios, general-sr) are plans, made as the
    sequence is iterated; every other verdict is made here."""
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
    eager, plans = [], []
    for name, group in sweeps.items():
        if which in (name, "all"):
            for sweep in group:
                part = sweep(config)
                if isinstance(part, Verdicts):
                    eager += part.eager
                    plans += part.plans
                else:
                    eager += part
    return Verdicts(eager, plans)


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
