"""One function per verifiable claim, each returning InequalityVerdict
records.  The CLI `verify` subcommands and the acceptance suite both drive
these; results are deterministic given the parameters.

Claim ids: thm1-weak, thm1-strong, thm2, lem6, lem9, cor10, lem11, lem13,
rem12, lem15-bij, lem16-bij, lem17-conv, lem18, lem19, lem20, lem21,
lem22, rem20, a0-identity, oracle-equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .characters import (
    alpha_table,
    last_table,
    poly_power_coeffs,
)
from .immanants import (
    InequalityVerdict,
    a_coeff_arrays,
    check_alpha_ratios,
    check_general_sr,
    check_hook_chain,
    check_last_row_ratios,
    default_q_grid,
    eq5_holds,
    oracle_equivalence_report,
    two_row_gaps,
)
from .paths import (
    LatticePath,
    allowed_count,
    callan_fwd,
    callan_inv,
    enumerate_paths,
    max_odd_peak_interval,
    probability_sequences,
    restricted_count_histogram,
    riordan_double_fwd,
    riordan_double_inv,
    sequence_identities,
    syt_descent_histogram,
    weakly_decreasing,
)
from .ratpoly import conv
from .trees import (
    Tree,
    all_labeled_trees,
    matching_weight_arrays,
    random_trees,
)

# fixed ranges of the identity sweep: rem20 for l <= 12, lem17-conv for l <= 8
RIORDAN_L_MAX = 12
CONV_L_MAX = 8


@dataclass(frozen=True)
class SweepConfig:
    """Caps for the verification sweeps.  `deepen` (the CLI's --deep)
    raises the tree caps and the path caps; the CLI's cap flags take
    these fields as their destinations and defaults."""

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


def verify_two_row(config: SweepConfig) -> list[InequalityVerdict]:
    """Theorem 2 sweep: exhaustive over labeled trees for small n, seeded
    random sampling above the exhaustive cap."""
    verdicts = []
    for n in range(5, config.n_max + 1):
        exhaustive = n <= config.exhaustive_tree_max
        if exhaustive:
            source: Iterable[Tree] = all_labeled_trees(n)
            src_label = "all"
        else:
            source = random_trees(n, config.random_count, config.seed)
            src_label = f"random:{config.random_count}:seed={config.seed}"
        checked = 0
        failures = []
        for tree in source:
            checked += 1
            gaps = two_row_gaps(n, matching_weight_arrays(tree))
            for k, gap in enumerate(gaps, 1):
                if any(c < 0 for c in gap):
                    failures.append((tree.label(), k, gap))
        verdicts.append(
            InequalityVerdict(
                claim="thm2",
                params={"n": n, "trees": src_label, "k": f"1..{n // 2}"},
                holds=not failures,
                witness=f"{checked} trees, {len(failures)} violations",
                detail="; ".join(
                    f"{lbl} k={k}: {w}" for lbl, k, w in failures[:5]
                ),
            )
        )
    return verdicts


def verify_hook(config: SweepConfig) -> list[InequalityVerdict]:
    """Theorem 1 weak and strong hook chains on the default exact q grid;
    the smallest margin per claim comes from the per-tree verdicts."""
    grid = default_q_grid()
    verdicts = []
    for n in range(5, config.hook_n_max + 1):
        checked = 0
        worst: dict[str, tuple[Fraction, str, int]] = {}
        failures = []
        for tree in all_labeled_trees(n):
            checked += 1
            for v in check_hook_chain(tree, grid):
                gap, _ = v.margin
                if v.claim not in worst or gap < worst[v.claim][0]:
                    worst[v.claim] = (gap, v.params["tree"], v.params["k"])
                if not v.holds:
                    failures.append(v)
        for claim in ("thm1-weak", "thm1-strong"):
            gap, lbl, k = worst[claim]
            fails = [f for f in failures if f.claim == claim]
            verdicts.append(
                InequalityVerdict(
                    claim=claim,
                    params={"n": n, "trees": "all",
                            "grid": f"{len(grid)} points"},
                    holds=not fails,
                    witness=f"{checked} trees; min gap {gap} "
                            f"({lbl}, k={k})",
                    detail="; ".join(
                        f"{f.params['tree']} k={f.params['k']}: {f.detail}"
                        for f in fails[:5]
                    ),
                )
            )
    return verdicts


def verify_alpha_ratios(config: SweepConfig) -> list[InequalityVerdict]:
    """lem6 and lem13 for n up to alpha_n_max; lem9, cor10, lem11 for rows
    of the last-row triangle up to last_l_max."""
    verdicts = []
    for n in range(2, config.alpha_n_max + 1):
        verdicts.extend(check_alpha_ratios(n))
    for l in range(2, config.last_l_max + 1):
        verdicts.extend(check_last_row_ratios(l))
    return verdicts


def verify_general_sr(config: SweepConfig) -> list[InequalityVerdict]:
    verdicts = []
    for s in range(1, config.sr_max + 1):
        for r in range(1, config.sr_max + 1):
            for l in range(1, config.sr_l_max + 1):
                verdicts.extend(check_general_sr(l, s, r))
    return verdicts


# -- path claims ---------------------------------------------------------------


def verify_callan(config: SweepConfig) -> list[InequalityVerdict]:
    """lem15-bij: exhaustive round trips plus the published example pair."""
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
    for l in range(1, config.callan_l_max + 1):
        table = last_table(l)
        for k in range(l + 1):
            u_here = enumerate_paths("UHD", l, l - k)
            grp = [p for p in u_here if p.is_grp()]
            u_up = enumerate_paths("UHD", l, l - k + 1) if k >= 1 else []
            domain = [p for p in u_here if not p.is_grp()]
            images = [callan_fwd(p) for p in domain]
            ok = (
                len(set(str(p) for p in images)) == len(domain)
                and set(str(p) for p in images) == set(str(p) for p in u_up)
                and all(str(callan_inv(q)) == str(p)
                        for p, q in zip(domain, images))
                and len(grp) == table.get(l, k)
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
    return verdicts


def verify_doubling(config: SweepConfig) -> list[InequalityVerdict]:
    """lem16-bij: the doubled image is exactly the odd-peak-free slice."""
    verdicts = []
    for l in range(1, config.double_l_max + 1):
        table = last_table(l)
        for k in range(l + 1):
            grp = enumerate_paths("GRP", l, l - k)
            images = sorted(str(riordan_double_fwd(p)) for p in grp)
            target = sorted(
                str(p)
                for p in enumerate_paths("NLP", 2 * l, 2 * l - 2 * k)
                if max_odd_peak_interval(p) == 0
            )
            round_trip = all(
                str(riordan_double_inv(riordan_double_fwd(p))) == str(p)
                for p in grp
            )
            ok = (
                images == target
                and len(set(images)) == len(grp)
                and len(grp) == table.get(l, k)
                and round_trip
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
    for n in range(2, config.count_n_max + 1):
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
    path class and tableau shape is listed once per n; every i reads a
    prefix of its histogram."""
    verdicts = []
    for n in range(2, config.prob_n_max + 1):
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
    and lem22 (successive differences of (1+x)^(n-2i) (1+x+x^2)^i)."""
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
    for n in range(2, config.count_n_max + 1):
        half = n // 2
        table = alpha_table(n)
        for i in range(half + 1):
            coeffs = poly_power_coeffs((1, 1), n - 2 * i)
            tri = poly_power_coeffs((1, 1, 1), i)
            prod = conv(coeffs, tri)
            for k in range(half + 1):
                diff = prod[k] - (prod[k - 1] if k >= 1 else 0)
                verdicts.append(
                    InequalityVerdict(
                        claim="lem22",
                        params={"n": n, "k": k, "i": i},
                        holds=diff == table.get(k, i),
                        witness=f"diff {diff}, alpha {table.get(k, i)}",
                    )
                )
    return verdicts


# -- immanant infrastructure claims --------------------------------------------


def verify_oracle(config: SweepConfig) -> list[InequalityVerdict]:
    """oracle-equivalence: matching route equals brute force for every
    labeled tree and every shape, n <= oracle_n_max."""
    verdicts = []
    for n in range(2, config.oracle_n_max + 1):
        checked = 0
        bad = []
        for tree in all_labeled_trees(n):
            checked += 1
            for shape, ok in oracle_equivalence_report(tree):
                if not ok:
                    bad.append((tree.label(), shape))
        verdicts.append(
            InequalityVerdict(
                claim="oracle-equivalence",
                params={"n": n, "trees": "all", "shapes": "all partitions"},
                holds=not bad,
                witness=f"{checked} trees",
                detail="; ".join(f"{t} {s}" for t, s in bad[:5]),
            )
        )
    return verdicts


def verify_a_coeffs(config: SweepConfig) -> list[InequalityVerdict]:
    """a0-identity: a_0 = 1 - q^2; a_i even with nonnegative coefficients
    for i >= 1; reconstruction through the alpha table is exact.  On t =
    q^2 arrays a_i is even by construction and a_0 reads [1, -1]."""
    verdicts = []
    for n in range(2, config.oracle_n_max + 1):
        checked = 0
        bad = []
        for tree in all_labeled_trees(n):
            checked += 1
            weights = matching_weight_arrays(tree)
            a = a_coeff_arrays(weights)
            if a[0] != [1, -1]:
                bad.append((tree.label(), "a0"))
                continue
            for i in range(1, len(a)):
                if any(c < 0 for c in a[i]):
                    bad.append((tree.label(), f"a{i}"))
            if not eq5_holds(n, weights, a):
                bad.append((tree.label(), "reconstruction"))
        verdicts.append(
            InequalityVerdict(
                claim="a0-identity",
                params={"n": n, "trees": "all"},
                holds=not bad,
                witness=f"{checked} trees",
                detail="; ".join(f"{t} {w}" for t, w in bad[:5]),
            )
        )
    return verdicts


# -- dispatcher ------------------------------------------------------------------


def _sort_key(v: InequalityVerdict):
    return (v.claim, sorted((k, str(val)) for k, val in v.params.items()))


def run_claims(which: str, config: SweepConfig) -> list[InequalityVerdict]:
    """Run one verify subcommand's claim set, sorted canonically."""
    verdicts: list[InequalityVerdict] = []
    if which in ("two-row", "all"):
        verdicts.extend(verify_two_row(config))
    if which in ("hook", "all"):
        verdicts.extend(verify_hook(config))
    if which in ("alpha-ratios", "all"):
        verdicts.extend(verify_alpha_ratios(config))
    if which in ("general-sr", "all"):
        verdicts.extend(verify_general_sr(config))
    if which in ("paths", "all"):
        verdicts.extend(verify_callan(config))
        verdicts.extend(verify_doubling(config))
        verdicts.extend(verify_counting(config))
    if which in ("probability", "all"):
        verdicts.extend(verify_probability(config))
    if which in ("identities", "all"):
        verdicts.extend(verify_identities(config))
    if which == "all":
        verdicts.extend(verify_oracle(config))
        verdicts.extend(verify_a_coeffs(config))
    verdicts.sort(key=_sort_key)
    return verdicts


def summarize(verdicts: Sequence[InequalityVerdict]) -> dict:
    passed = sum(1 for v in verdicts if v.holds and v.asserted)
    failed = sum(
        1 for v in verdicts if not v.holds and v.asserted and not v.degenerate
    )
    degenerate = sum(1 for v in verdicts if v.degenerate)
    reported = sum(
        1 for v in verdicts if not v.holds and not v.asserted
    )
    return {
        "total": len(verdicts),
        "passed_asserted": passed,
        "failed_asserted": failed,
        "degenerate": degenerate,
        "violations_reported_unasserted": reported,
        "all_ok": failed == 0,
    }
