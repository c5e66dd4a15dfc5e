"""Acceptance gate: one test per criterion, each exact (zero tolerance)
and timed against its stated budget.  Run as

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from fractions import Fraction
from math import comb

from qimm.characters import (
    alpha_table,
    last_table_recursive,
    last_table_trinomial,
)
from qimm.claims import (
    SweepConfig,
    verify_a_coeffs,
    verify_alpha_ratios,
    verify_callan,
    verify_counting,
    verify_doubling,
    verify_general_sr,
    verify_hook,
    verify_oracle,
    verify_two_row,
)
from qimm.cli import main
from qimm.immanants import (
    LEMMA9_ERRATA,
    check_two_row_chain,
    immanant_tree,
)
from qimm.paths import (
    count_restricted,
    enumerate_paths,
    probability_monotonicity,
    riordan_number,
    sequence_identities,
)
from qimm.ratpoly import RatPoly
from qimm.trees import path_tree, star_tree

TABLE_N6 = [["1", "5", "9", "5"], ["1", "4", "6", "3"],
            ["1", "3", "4", "2"], ["1", "2", "3", "1"]]
TABLE_N7 = [["1", "6", "14", "14"], ["1", "5", "10", "9"],
            ["1", "4", "7", "6"], ["1", "3", "5", "4"]]
TABLE_N8 = [["1", "7", "20", "28", "14"], ["1", "6", "15", "19", "9"],
            ["1", "5", "11", "13", "6"], ["1", "4", "8", "9", "4"],
            ["1", "3", "6", "6", "3"]]
TABLE_LAST = [
    [1], [1, 0], [1, 1, 1], [1, 2, 3, 1], [1, 3, 6, 6, 3],
    [1, 4, 10, 15, 15, 6], [1, 5, 15, 29, 40, 36, 15],
    [1, 6, 21, 49, 84, 105, 91, 36],
    [1, 7, 28, 76, 154, 238, 280, 232, 91],
    [1, 8, 36, 111, 258, 468, 672, 750, 603, 232],
]


def _finish(num, name, t0, budget_s):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s "
          f"< {budget_s}s budget)")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s"


def test_criterion_01_alpha_tables(capsys):
    t0 = time.time()
    for n, expect in ((6, TABLE_N6), (7, TABLE_N7), (8, TABLE_N8)):
        assert main(["alpha-table", str(n), "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)["entries"]
        assert got == expect, f"alpha table n={n} differs"
    with capsys.disabled():
        _finish(1, "alpha tables n=6,7,8 reproduce the worked example", t0, 1)


def test_criterion_02_last_table(capsys):
    t0 = time.time()
    assert main(["last-table", "9", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["entries"]
    assert got == [[str(v) for v in row] for row in TABLE_LAST]
    assert last_table_trinomial(9).rows == last_table_recursive(9).rows
    assert last_table_trinomial(9).rows == tuple(
        tuple(row) for row in TABLE_LAST
    )
    with capsys.disabled():
        _finish(2, "last-table 9 matches, two independent routes agree",
                t0, 1)


def test_criterion_03_p4_counterexample(capsys):
    t0 = time.time()
    p4 = path_tree(4)
    assert immanant_tree(p4, (3, 1), normalized=True) == RatPoly(
        (1, 0, 3, 0, Fraction(4, 3))
    )
    assert immanant_tree(p4, (2, 2), normalized=True) == RatPoly(
        (1, 0, 2, 0, 2)
    )
    p4_verdicts = {v.params["k"]: v for v in check_two_row_chain(p4)}
    assert p4_verdicts[2].holds is False
    assert all(v.holds for v in check_two_row_chain(star_tree(4)))
    with capsys.disabled():
        _finish(3, "P4 immanants exact; chain fails at k=2 for P4, "
                   "holds for S4", t0, 1)


def test_criterion_04_two_row_sweep(capsys):
    t0 = time.time()
    verdicts = verify_two_row(
        SweepConfig(n_max=8, exhaustive_tree_max=7, random_count=1000, seed=0)
    )
    by_n = {v.params["n"]: v for v in verdicts}
    for n, count in ((5, 125), (6, 1296), (7, 16807)):
        assert by_n[n].holds, by_n[n].detail
        assert by_n[n].witness.startswith(f"{count} trees")
        assert by_n[n].params["trees"] == "all"
    assert by_n[8].holds, by_n[8].detail
    assert by_n[8].witness.startswith("1000 trees")
    with capsys.disabled():
        _finish(4, "theorem-2 differences even and nonnegative on "
                   "125+1296+16807 trees plus 1000 random n=8", t0, 300)


def test_criterion_05_oracle_equivalence(capsys):
    t0 = time.time()
    verdicts = verify_oracle(SweepConfig(oracle_n_max=6))
    assert all(v.holds for v in verdicts), [v.detail for v in verdicts]
    counts = {v.params["n"]: v.witness for v in verdicts}
    assert counts[6].startswith("1296 trees")
    with capsys.disabled():
        _finish(5, "matching immanant equals brute force for all trees "
                   "n<=6, all shapes", t0, 120)


def test_criterion_06_a_coefficients(capsys):
    t0 = time.time()
    verdicts = verify_a_coeffs(SweepConfig(oracle_n_max=6))
    assert all(v.holds for v in verdicts), [v.detail for v in verdicts]
    with capsys.disabled():
        _finish(6, "a_0 = 1-q^2, a_i even nonnegative, reconstruction "
                   "exact for all trees n<=6", t0, 120)


def test_criterion_07_hook_chains(capsys):
    t0 = time.time()
    verdicts = verify_hook(SweepConfig(hook_n_max=6))
    assert all(v.holds for v in verdicts), [v.detail for v in verdicts]
    claims = {(v.claim, v.params["n"]) for v in verdicts}
    assert ("thm1-weak", 5) in claims and ("thm1-strong", 6) in claims
    with capsys.disabled():
        _finish(7, "hook chains (weak and strong) hold on the default "
                   "grid for all trees n=5,6", t0, 120)


def test_criterion_08_ratio_inequalities(capsys):
    t0 = time.time()
    verdicts = verify_alpha_ratios(
        SweepConfig(alpha_n_max=40, last_l_max=40)
    )
    by_claim = {}
    for v in verdicts:
        by_claim.setdefault(v.claim, []).append(v)

    lem13 = [v for v in by_claim["lem13"] if v.params["n"] >= 5]
    assert lem13 and all(v.holds for v in lem13)
    assert max(v.params["n"] for v in lem13) == 40

    lem11 = [v for v in by_claim["lem11"] if v.asserted]
    assert lem11 and all(v.holds for v in lem11)
    assert max(v.params["l"] for v in lem11) == 40

    cor10 = by_claim["cor10"]
    assert all(v.holds for v in cor10 if v.asserted)

    lem9 = {(v.params["l"], v.params["k"]): v for v in by_claim["lem9"]}
    assert lem9[(2, 1)].degenerate
    assert all(v.holds for v in lem9.values() if v.asserted)
    # the boundary instances the published triangle itself refutes
    for lk in LEMMA9_ERRATA:
        assert not lem9[lk].holds and not lem9[lk].asserted

    sr = verify_general_sr(SweepConfig(sr_l_max=12, sr_max=4))
    assert all(v.holds for v in sr if v.asserted)
    sr_fail = [v for v in sr if not v.holds]
    assert [(v.params["s"], v.params["r"], v.params["l"], v.params["k"])
            for v in sr_fail] == [(1, 1, 2, 1)]
    with capsys.disabled():
        _finish(8, "cross-multiplied ratio inequalities hold (lem13 n<=40, "
                   "lem11 l<=40, cor10, rem12 s,r<=4 l<=12); l=2 "
                   "degeneracy reported", t0, 30)


def test_criterion_09_bijection_suites(capsys):
    t0 = time.time()
    callan = verify_callan(SweepConfig(callan_l_max=6))
    assert all(v.holds for v in callan), [v.params for v in callan]
    doubling = verify_doubling(SweepConfig(double_l_max=7))
    assert all(v.holds for v in doubling)
    sizes = [len(enumerate_paths("GRP", 4, h)) for h in (4, 3, 2, 1, 0)]
    assert sizes == [1, 3, 6, 6, 3]
    with capsys.disabled():
        _finish(9, "Callan bijection round-trips (l<=6, golden pair); "
                   "doubling image odd-peak-free with the right sizes "
                   "(l<=7); GRP(4,.) sizes 1,3,6,6,3", t0, 60)


def test_criterion_10_path_alpha_equivalence(capsys):
    t0 = time.time()
    verdicts = verify_counting(SweepConfig(count_n_max=14))
    assert all(v.holds for v in verdicts)
    seen = {(v.params["n"], v.params["k"], v.params["i"]) for v in verdicts}
    assert (14, 7, 7) in seen and (13, 6, 6) in seen
    assert count_restricted(8, 4, 0) == 14 == alpha_table(8).get(4, 0)
    decomposition = [
        comb(4, t) * riordan_number(4 - t) for t in range(5)
    ]
    assert decomposition == [3, 4, 6, 0, 1] and sum(decomposition) == 14
    rep = sequence_identities(4)
    assert rep["catalan_riordan"][4] == (4, 14, 14, True)
    with capsys.disabled():
        _finish(10, "restricted path counts equal alpha for all n<=14; "
                    "14 Catalan paths; C_4 = 14 decomposition", t0, 120)


def test_criterion_11_probability_monotonicity(capsys):
    t0 = time.time()
    for n in range(2, 15):
        for i in range((n - 1) // 2 + 1):
            seq, monotone = probability_monotonicity(n, i)
            assert monotone, (n, i, seq)
    with capsys.disabled():
        _finish(11, "exact probability sequences weakly decrease in k "
                    "for all n<=14, i<=floor((n-1)/2)", t0, 30)
