import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from qimm import immanants
from qimm.characters import (
    mn_character,
    partitions,
    two_cycle_type,
)
from qimm.immanants import (
    LEMMA9_ERRATA,
    a_coeff_arrays,
    default_q_grid,
    check_alpha_ratios,
    check_general_sr,
    check_hook_chain,
    check_last_row_ratios,
    check_two_row_chain,
    eq5_reconstruction_ok,
    extract_a_coeffs,
    hook_margins,
    immanant_bruteforce,
    immanant_tree,
    normalized_two_row_immanants,
    oracle_equivalence_report,
)
from qimm.trees import matching_weights
from qimm.ratpoly import RatPoly
from qimm.trees import (
    PolyMatrix,
    Tree,
    all_labeled_trees,
    free_trees,
    path_tree,
    q_laplacian,
    random_trees,
    star_tree,
)

P4_31 = RatPoly((1, 0, 3, 0, Fraction(4, 3)))
P4_22 = RatPoly((1, 0, 2, 0, 2))


def hook_shape(n, k):
    """Hook partition (k, 1^(n-k))."""
    return (k,) + (1,) * (n - k)


def test_bruteforce_2x2_determinant_and_permanent():
    m = q_laplacian(path_tree(2))
    assert immanant_bruteforce(m, (1, 1)) == RatPoly((1, 0, -1))
    assert immanant_bruteforce(m, (2,)) == RatPoly((1, 0, 1))


def _cycle_type(perm):
    seen, lens = set(), []
    for s in range(len(perm)):
        length, v = 0, s
        while v not in seen:
            seen.add(v)
            v = perm[v]
            length += 1
        if length:
            lens.append(length)
    return tuple(sorted(lens, reverse=True))


def test_bruteforce_dense_matrix_matches_permutation_sum():
    # dense, non-symmetric integer entries: nothing tree-like to lean on
    n = 5
    rows = tuple(
        tuple((i - j, 0 if i == j else j + 1, 1 + 2 * i - j)
              for j in range(n))
        for i in range(n)
    )
    matrix = PolyMatrix(rows)
    for shape in partitions(n):
        expected = RatPoly()
        for perm in permutations(range(n)):
            prod = RatPoly((1,))
            for i in range(n):
                prod = prod * RatPoly(rows[i][perm[i]])
            expected = expected + prod.scale(
                mn_character(shape, _cycle_type(perm)))
        assert immanant_bruteforce(matrix, shape) == expected
        assert immanant_bruteforce(matrix, shape, normalized=True) == (
            expected.scale(Fraction(1, mn_character(shape, (1,) * n))))


def test_bruteforce_cap():
    n = 10
    rows = tuple(
        tuple((1,) if i == j else () for j in range(n))
        for i in range(n)
    )
    with pytest.raises(ValueError):
        immanant_bruteforce(PolyMatrix(rows), (n,))


def test_bruteforce_shape_size_check():
    with pytest.raises(ValueError):
        immanant_bruteforce(q_laplacian(path_tree(3)), (2, 2))


def test_p4_normalized_two_row_values():
    p4 = path_tree(4)
    assert immanant_tree(p4, (3, 1), normalized=True) == P4_31
    assert immanant_tree(p4, (2, 2), normalized=True) == P4_22


def test_p4_cross_algorithm():
    p4 = path_tree(4)
    m = q_laplacian(p4)
    assert immanant_tree(p4, (3, 1), normalized=True) == immanant_bruteforce(
        m, (3, 1), normalized=True
    )


def test_determinant_is_one_minus_q2():
    det = RatPoly((1, 0, -1))
    for n in range(2, 7):
        for tree in random_trees(n, 8, seed=n):
            assert immanant_tree(tree, (1,) * n) == det


def test_oracle_equivalence_small():
    for n in range(2, 6):
        for tree in all_labeled_trees(n):
            assert all(ok for _, ok in oracle_equivalence_report(tree))


def test_bruteforce_invariant_under_relabeling():
    # the oracle sweep runs once per isomorphism class: relabeling
    # conjugates q_laplacian by a permutation matrix, so the brute-force
    # sum per cycle type, and with it the oracle report, stays the same
    rng = random.Random(16)
    trees = [tree for n in range(2, 9) for tree in random_trees(n, 3, seed=n)]
    moved_any = False
    for tree in trees + [path_tree(8), star_tree(8)]:
        buckets = immanants._bruteforce_buckets(q_laplacian(tree))
        report = oracle_equivalence_report(tree)
        assert all(ok for _, ok in report)
        for _ in range(3):
            perm = list(range(1, tree.n + 1))
            rng.shuffle(perm)
            moved = Tree(tree.n, tuple((perm[u - 1], perm[v - 1])
                                       for u, v in tree.edges))
            moved_any |= q_laplacian(moved) != q_laplacian(tree)
            assert immanants._bruteforce_buckets(
                q_laplacian(moved)) == buckets, tree.label()
            assert oracle_equivalence_report(moved) == report, tree.label()
    assert moved_any


def test_oracle_checks_the_matching_route(monkeypatch):
    # immanant_tree and the oracle share one matching-route sum, so a
    # fault in it shows as an oracle mismatch
    tree = path_tree(5)
    route = immanants._matching_sum
    monkeypatch.setattr(
        immanants, "_matching_sum",
        lambda *args: [c + 1 for c in route(*args)])
    assert immanant_tree(tree, (3, 2)) != immanant_bruteforce(
        q_laplacian(tree), (3, 2))
    assert not any(ok for _, ok in oracle_equivalence_report(tree))


def test_normalized_at_zero_is_one():
    tree = path_tree(5)
    for shape in partitions(5):
        assert immanant_tree(tree, shape, normalized=True)(0) == 1


def test_a_coeffs_p2():
    a = extract_a_coeffs(path_tree(2))
    assert a == (RatPoly((1, 0, -1)), RatPoly((0, 0, 1)))


def test_a_coeffs_properties_sampled():
    # a star's a_i vanish above i = 1 and one vertex has a_0 alone; every
    # tree still gets floor(n/2) + 1 of them
    trees = [t for n in range(2, 8) for t in random_trees(n, 5, seed=n)]
    for tree in trees + [star_tree(9), Tree(1, ())]:
        a = extract_a_coeffs(tree)
        assert len(a) == tree.n // 2 + 1
        assert a[0] == RatPoly((1, 0, -1))
        for p in a[1:]:
            assert not any(p.coeffs[1::2])
            assert all(c >= 0 for c in p.coeffs)


def test_a_coeffs_rebuild_matching_weights():
    # forward direction of the inversion: c_j = sum_{i >= j} C(i,j) a_i
    for n in range(2, 8):
        for tree in random_trees(n, 5, seed=20 + n):
            a = extract_a_coeffs(tree)
            for j, cj in enumerate(matching_weights(tree)):
                total = RatPoly()
                for i in range(j, len(a)):
                    total = total + a[i].scale(comb(i, j))
                assert total == cj


def test_a_coeff_arrays_match_binomial_inversion():
    # zero rows in the middle and at the end: the inversion is plain
    # arithmetic on whatever rows it is given
    weights = [[1, 5, 2], [0, 3], [0], [0, 0, 7, 1], [0], [0]]
    expect = []
    for i in range(len(weights)):
        row = [0] * 4
        for j in range(i, len(weights)):
            for p, c in enumerate(weights[j]):
                row[p] += (-1) ** (j - i) * comb(j, i) * c
        while row and not row[-1]:
            row.pop()
        expect.append(row)
    assert a_coeff_arrays(weights) == expect
    assert a_coeff_arrays([]) == []


def test_eq5_reconstruction_sampled():
    for n in range(2, 8):
        for tree in random_trees(n, 4, seed=10 + n):
            assert eq5_reconstruction_ok(tree)


def test_two_row_chain_p4_and_s4():
    p4 = check_two_row_chain(path_tree(4))
    by_k = {v.params["k"]: v for v in p4}
    assert by_k[2].holds is False
    assert by_k[2].asserted is False  # below the theorem's n >= 5 range
    assert "q^2" in by_k[2].witness
    s4 = check_two_row_chain(star_tree(4))
    assert all(v.holds for v in s4)
    assert len(s4) == 2


def test_two_row_chain_asserted_from_five():
    for tree in all_labeled_trees(5):
        for v in check_two_row_chain(tree):
            assert v.asserted and v.holds


def test_two_row_witness_is_difference():
    tree = star_tree(4)
    imms = normalized_two_row_immanants(tree)
    v = check_two_row_chain(tree)[1]
    assert v.witness == str(imms[1] - imms[2])


def test_two_row_witness_matches_immanant_tree():
    trees = list(all_labeled_trees(5)) + list(random_trees(8, 10, seed=3))
    for tree in trees:
        n = tree.n
        imms = [immanant_tree(tree, (n - k, k) if k else (n,),
                              normalized=True)
                for k in range(n // 2 + 1)]
        for v in check_two_row_chain(tree):
            k = v.params["k"]
            assert v.witness == str(imms[k - 1] - imms[k])


def _hook_witnesses_by_eval(tree, grid):
    """Grid minima of both hook gaps from immanant_tree and RatPoly
    evaluation, scanning the grid in order (the first point wins ties)."""
    n = tree.n
    imms = [immanant_tree(tree, hook_shape(n, k), normalized=True)
            for k in range(1, n + 1)]
    out = {}
    for k in range(2, n + 1):
        lo, hi = imms[k - 2], imms[k - 1]
        for claim in ("thm1-weak", "thm1-strong"):
            best = None
            for q in grid:
                if claim == "thm1-weak":
                    gap = hi(q) - lo(q)
                else:
                    gap = (k - 2) * hi(q) - ((k - 1) * lo(q) + (q * q - 1))
                if best is None or gap < best[0]:
                    best = (gap, q)
            out[claim, k] = f"min gap {best[0]} at q={best[1]}"
    return out


@pytest.mark.parametrize("grid", [
    None,
    # asymmetric, unsorted, with repeated q^2 values to exercise ties
    (Fraction(3, 2), Fraction(-1), Fraction(1, 3), Fraction(1),
     Fraction(-3, 2), Fraction(0), Fraction(-1, 3), Fraction(5, 2)),
])
def test_hook_chain_matches_immanant_evaluation(grid):
    # both routes read a tree only through its c_j, which relabeling keeps,
    # so one tree per class up to n = 5 (matching number nu <= 2); the
    # larger trees reach nu = 4
    trees = [tree for n in range(2, 6) for tree, _ in free_trees(n)]
    trees += [path_tree(9), star_tree(9), *random_trees(6, 2, seed=3),
              *random_trees(8, 2, seed=3)]
    for tree in trees:
        expected = _hook_witnesses_by_eval(
            tree, grid if grid is not None else default_q_grid())
        verdicts = check_hook_chain(tree, grid)
        assert len(verdicts) == len(expected)
        margins = hook_margins(tree, grid)
        for v, (claim, k, gap, q) in zip(verdicts, margins, strict=True):
            assert (claim, k) == (v.claim, v.params["k"])
            want = expected[v.claim, v.params["k"]]
            assert v.witness == want, (tree.label(), v.claim)
            assert want == f"min gap {gap} at q={q}"
            assert v.holds == (gap >= 0)


def test_hook_chain_asks_characters_up_to_matching_number(monkeypatch):
    # a star's matching number is 1, so only the columns j = 0, 1 of the
    # n hook characters can meet a nonzero c_j
    calls = []
    monkeypatch.setattr(
        immanants, "mn_character",
        lambda *args: calls.append(args) or mn_character(*args))
    table = immanants._hook_char_data
    asked = []
    monkeypatch.setattr(
        immanants, "_hook_char_data",
        lambda *args: asked.append(args) or table(*args))
    table.cache_clear()
    n = 60
    verdicts = check_hook_chain(star_tree(n))
    assert len(calls) <= 2 * n
    assert asked == [(n, 2)]
    assert len(verdicts) == 2 * (n - 1) and all(v.holds for v in verdicts)


def test_hook_char_table_matches_murnaghan_nakayama():
    # the closed form against the general recursion, every column j <= n/2
    for n in range(1, 15):
        width = n // 2 + 1
        assert immanants._hook_char_data(n, width) == tuple(
            tuple(mn_character(hook_shape(n, k), two_cycle_type(n, j))
                  for j in range(width))
            for k in range(1, n + 1)), n


def test_hook_chain_p2_boundary():
    verdicts = check_hook_chain(path_tree(2))
    assert all(v.holds for v in verdicts)
    weak = [v for v in verdicts if v.claim == "thm1-weak"]
    assert weak[0].params["k"] == 2


def test_hook_chain_star_and_path_6():
    for tree in (star_tree(6), path_tree(6)):
        assert all(v.holds for v in check_hook_chain(tree))


def test_hook_chain_custom_grid():
    grid = (Fraction(0), Fraction(1), Fraction(-3, 2))
    verdicts = check_hook_chain(path_tree(4), grid)
    assert all(v.holds for v in verdicts)


def test_alpha_ratio_claims_small_n():
    for n in range(5, 12):
        for v in check_alpha_ratios(n):
            if v.asserted:
                assert v.holds, (v.claim, v.params)


def test_alpha_ratio_n4_aberration_reported():
    verdicts = [v for v in check_alpha_ratios(4) if v.claim == "lem13"]
    bad = [v for v in verdicts if not v.holds]
    assert [(v.params["k"], v.params["i"]) for v in bad] == [(1, 2)]
    assert not bad[0].asserted


def test_lemma9_degenerate_at_l2():
    verdicts = [v for v in check_last_row_ratios(2) if v.claim == "lem9"]
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.degenerate and not v.asserted
    assert v.params == {"l": 2, "k": 1}


def test_lemma9_errata_reported_not_asserted():
    for l, k in sorted(LEMMA9_ERRATA):
        verdicts = {
            (v.params["l"], v.params["k"]): v
            for v in check_last_row_ratios(l)
            if v.claim == "lem9"
        }
        v = verdicts[(l, k)]
        assert not v.holds and not v.asserted
        assert "refutes" in v.detail


def test_lemma9_holds_where_asserted():
    for l in range(3, 12):
        for v in check_last_row_ratios(l):
            if v.claim == "lem9" and v.asserted:
                assert v.holds


def test_lemma11_holds_from_three():
    for l in range(3, 12):
        for v in check_last_row_ratios(l):
            if v.claim == "lem11":
                assert v.asserted and v.holds


def test_cor10_asserted_instances_hold():
    for l in range(3, 12):
        for v in check_last_row_ratios(l):
            if v.claim == "cor10" and v.asserted:
                assert v.holds


def test_cor10_broken_chain_is_unasserted():
    verdicts = {
        (v.params["l"], v.params["k"], v.params["r"]): v
        for v in check_last_row_ratios(4)
        if v.claim == "cor10"
    }
    # chain for r=1 at (4,3) is the refuted lemma instance itself
    assert not verdicts[(4, 3, 1)].asserted
    assert not verdicts[(4, 3, 1)].holds
    # r = k = l - 1 always chains through the degenerate l=2 level
    assert not verdicts[(4, 3, 3)].asserted


def test_general_sr_reduces_to_lemma11():
    for l in (3, 4):
        sr = {
            v.params["k"]: v
            for v in check_general_sr(l, 1, 1)
        }
        lem11 = {
            v.params["k"]: v
            for v in check_last_row_ratios(l)
            if v.claim == "lem11"
        }
        for k, v in lem11.items():
            assert sr[k].holds == v.holds


def test_general_sr_boundary_l1():
    for s in (1, 2, 3):
        for r in (1, 2, 3):
            verdicts = check_general_sr(1, s, r)
            assert all(v.holds for v in verdicts)
            if s == 1:
                # last_{1,1} = 0 makes the s-side difference vanish
                assert verdicts[0].degenerate


def test_general_sr_s2_r3():
    for l in range(1, 13):
        assert all(v.holds for v in check_general_sr(l, 2, 3))


def test_general_sr_l2_erratum():
    verdicts = check_general_sr(2, 1, 1)
    v = {x.params["k"]: x for x in verdicts}[1]
    assert not v.holds and not v.asserted


def test_general_sr_rejects_bad_params():
    with pytest.raises(ValueError):
        check_general_sr(0, 1, 1)
    with pytest.raises(ValueError):
        check_general_sr(3, 0, 1)
