import random
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from qimm import trees
from qimm.ratpoly import RatPoly
from qimm.trees import (
    Tree,
    all_labeled_trees,
    free_trees,
    matching_weight_arrays,
    matching_weights,
    parse_tree_file,
    path_tree,
    pruefer_decode,
    pruefer_encode,
    q_laplacian,
    random_trees,
    star_tree,
)


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(3, ((1, 2),))  # too few edges
    with pytest.raises(ValueError):
        Tree(3, ((1, 2), (1, 2)))  # duplicate
    with pytest.raises(ValueError):
        Tree(3, ((1, 1), (2, 3)))  # self loop
    with pytest.raises(ValueError):
        Tree(3, ((1, 2), (1, 4)))  # label out of range
    with pytest.raises(ValueError):
        Tree(4, ((1, 2), (3, 4), (1, 2)))  # duplicate hides a disconnect


def test_cyclic_edge_list_rejected():
    # n - 1 distinct edges with a cycle leave vertex 4 unreached; the walk
    # marks visited vertices, so it ends on the cycle
    with pytest.raises(ValueError, match="not connected"):
        Tree(4, ((1, 2), (2, 3), (1, 3)))


def test_walk_is_a_bfs_from_vertex_one():
    tree = Tree(5, ((4, 5), (1, 3), (3, 4), (2, 3)))
    assert tree.order == (1, 3, 2, 4, 5)
    assert tree.parent == (0, 0, 3, 1, 3, 4)
    assert Tree(1, ()).order == (1,)


def test_pruefer_decode_forced_cases():
    assert pruefer_decode((), 2).edges == ((1, 2),)
    assert pruefer_decode((2,), 3).edges == ((1, 2), (2, 3))


def test_pruefer_encode_star():
    # strip leaves 2 then 3, recording the hub both times
    assert pruefer_encode(star_tree(4)) == (1, 1)


def test_pruefer_round_trip_exhaustive():
    for n in range(2, 7):
        for seq in product(range(1, n + 1), repeat=n - 2):
            tree = pruefer_decode(seq, n)
            assert pruefer_encode(tree) == seq


@given(st.integers(min_value=7, max_value=9), st.data())
def test_pruefer_round_trip_sampled(n, data):
    seq = tuple(
        data.draw(st.integers(min_value=1, max_value=n))
        for _ in range(n - 2)
    )
    tree = pruefer_decode(seq, n)
    assert pruefer_encode(tree) == seq
    assert pruefer_decode(pruefer_encode(tree), n) == tree


def test_pruefer_rejects_bad_input():
    with pytest.raises(ValueError):
        pruefer_decode((1, 2), 3)
    with pytest.raises(ValueError):
        pruefer_decode((5,), 3)


def test_generator_counts():
    assert sum(1 for _ in all_labeled_trees(3)) == 3
    assert sum(1 for _ in all_labeled_trees(4)) == 16
    assert len(set(t.edges for t in all_labeled_trees(5))) == 125


def test_generator_cap():
    with pytest.raises(ValueError):
        list(all_labeled_trees(10))


def test_path_and_star_edges():
    assert path_tree(4).edges == ((1, 2), (2, 3), (3, 4))
    assert star_tree(4).edges == ((1, 2), (1, 3), (1, 4))
    assert Tree(4, ((3, 4), (2, 1), (2, 3))) == path_tree(4)


def test_random_trees_seeded():
    a = [t.edges for t in random_trees(8, 20, seed=42)]
    b = [t.edges for t in random_trees(8, 20, seed=42)]
    assert a == b
    assert len(set(a)) > 1


def test_q_laplacian_entries():
    m = q_laplacian(star_tree(4))
    assert m[0, 0] == (1, 0, 2)
    assert m[1, 1] == (1,)
    assert m[0, 1] == (0, -1)
    assert m[1, 2] == ()

    p2 = q_laplacian(path_tree(2))
    assert p2[0, 0] == (1,) and p2[0, 1] == (0, -1)

    p4 = q_laplacian(path_tree(4))
    assert [p4[i, i] for i in range(4)] == [(1,), (1, 0, 1), (1, 0, 1), (1,)]


def test_q_laplacian_row_sums_vanish_at_one():
    for tree in random_trees(7, 10, seed=3):
        m = q_laplacian(tree)
        for i in range(tree.n):
            assert sum(RatPoly(m[i, j])(1) for j in range(tree.n)) == 0


def brute_matchings(tree):
    """All matchings by scanning every edge subset for disjointness."""
    out = []
    for r in range(len(tree.edges) + 1):
        for subset in combinations(tree.edges, r):
            used = [v for e in subset for v in e]
            if len(used) == len(set(used)):
                out.append(subset)
    return out


def brute_weights(tree):
    deg = tree.degrees()
    acc = [RatPoly() for _ in range(tree.n // 2 + 1)]
    for matching in brute_matchings(tree):
        matched = {v for e in matching for v in e}
        w = RatPoly((0,) * 2 * len(matching) + (1,))
        for v in range(1, tree.n + 1):
            if v not in matched:
                w = w * RatPoly((1, 0, deg[v] - 1))
        acc[len(matching)] = acc[len(matching)] + w
    return tuple(acc)


def brute_weight_arrays(tree):
    """c_j t-arrays from brute_matchings, trimmed like the library's."""
    deg = tree.degrees()
    rows = [[0] * (tree.n + 1) for _ in range(tree.n // 2 + 1)]
    for matching in brute_matchings(tree):
        matched = {v for e in matching for v in e}
        w = [0] * len(matching) + [1]
        for v in range(1, tree.n + 1):
            if v not in matched:
                w = [a + (deg[v] - 1) * b for a, b in zip(w + [0], [0] + w)]
        for p, c in enumerate(w):
            rows[len(matching)][p] += c
    for row in rows:
        while len(row) > 1 and row[-1] == 0:
            row.pop()
    while rows[-1] == [0]:
        rows.pop()
    return rows


def test_matching_weight_arrays_against_edge_subsets():
    trees = [t for n in range(2, 7) for t in all_labeled_trees(n)]
    trees += list(random_trees(10, 100, seed=2024))
    for tree in trees:
        assert matching_weight_arrays(tree) == brute_weight_arrays(tree)


def test_matching_weight_arrays_single_vertex():
    # the one vertex has degree 0, so its factor is 1 - t
    assert matching_weight_arrays(Tree(1, ())) == [[1, -1]]
    assert matching_weights(Tree(1, ())) == (RatPoly((1, 0, -1)),)


def test_matching_weight_arrays_large_star():
    # c_0: hub factor 1 + (N-2) t; c_1: N-1 edges, each t times leaf factors 1;
    # the matching number is 1, so the arrays end there and only
    # matching_weights pads with zeros to floor(N/2) + 1 entries
    n = 1200
    tree = star_tree(n)
    assert matching_weight_arrays(tree) == [[1, n - 2], [0, n - 1]]
    c = matching_weights(tree)
    assert len(c) == n // 2 + 1
    assert c[1] == RatPoly((0, 0, n - 1))
    assert all(cj == RatPoly() for cj in c[2:])


def test_matching_weight_arrays_large_path():
    # the t^j coefficient of c_j counts the j-matchings of the path
    n = 100
    rows = matching_weight_arrays(path_tree(n))
    assert [row[j] for j, row in enumerate(rows)] == [
        comb(n - j, j) for j in range(n // 2 + 1)]


def test_matching_weight_dp_releases_folded_vertices():
    # a folded vertex drops its packed integers, so the peak stays near
    # one frontier of them rather than one per vertex; a star's rows end
    # at c_1, so no zero slots of c_2..c_(n/2) are decoded
    for tree, last, bound in ((path_tree(150), [0] * 75 + [1], 10_000_000),
                              (star_tree(6000), [0, 5999], 8_000_000)):
        tracemalloc.start()
        try:
            rows = matching_weight_arrays(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows[-1] == last
        assert peak < bound, (tree.n, peak)


def test_matching_weights_p2():
    c = matching_weights(path_tree(2))
    assert c == (RatPoly((1,)), RatPoly((0, 0, 1)))


def test_matching_weights_p4_counts():
    # 3 single-edge matchings, 1 pair (the two end edges), by brute force
    counts = {}
    for m in brute_matchings(path_tree(4)):
        counts[len(m)] = counts.get(len(m), 0) + 1
    assert counts == {0: 1, 1: 3, 2: 1}
    c = matching_weights(path_tree(4))
    assert c[1] == RatPoly((0, 0, 3, 0, 2))
    assert c[2] == RatPoly((0, 0, 0, 0, 1))


def test_matching_weights_at_zero():
    for tree in [*all_labeled_trees(5), star_tree(9), Tree(1, ())]:
        c = matching_weights(tree)
        assert len(c) == tree.n // 2 + 1
        assert c[0](0) == 1
        assert all(cj(0) == 0 for cj in c[1:])


def test_matching_weights_against_subset_bruteforce():
    for n in range(2, 7):
        for tree in random_trees(n, 6, seed=n):
            assert matching_weights(tree) == brute_weights(tree)


def test_matching_counts_against_subset_bruteforce():
    # the q^(2j) coefficient of c_j counts the size-j matchings
    for n in range(2, 11):
        for tree in random_trees(n, 4, seed=100 + n):
            by_size = {}
            for m in brute_matchings(tree):
                by_size[len(m)] = by_size.get(len(m), 0) + 1
            c = matching_weights(tree)
            for j in range(tree.n // 2 + 1):
                assert (c[j].coeffs + (0,) * (2 * j + 1))[2 * j] == (
                    by_size.get(j, 0))


def test_single_edge_matching_count_is_edge_count():
    for tree in all_labeled_trees(6):
        c1 = matching_weights(tree)[1]
        # q^2 coefficient counts the size-1 matchings
        assert c1.coeffs[2] == tree.n - 1


def test_c0_is_unmatched_degree_product():
    tree = star_tree(5)
    assert matching_weights(tree)[0] == RatPoly((1, 0, 3))


def test_tree_file_parse():
    text = "4\n1 2\n2 3\n3 4\n"
    assert parse_tree_file(text) == path_tree(4)
    with pytest.raises(ValueError):
        parse_tree_file("")


def brute_matching_number(tree):
    """Largest disjoint edge subset, by scanning every edge subset."""
    return max(len(m) for m in brute_matchings(tree))


def test_weights_nonzero_exactly_up_to_matching_number():
    trees = [t for n in range(1, 7)
             for t in (all_labeled_trees(n) if n > 1 else [Tree(1, ())])]
    trees += [t for n in range(7, 15) for t in random_trees(n, 4, seed=n)]
    for tree in trees:
        nu = brute_matching_number(tree)
        rows = matching_weight_arrays(tree)
        assert [j for j, row in enumerate(rows) if any(row)] == list(
            range(nu + 1)), tree


def test_weights_invariant_under_relabeling():
    # the DP roots at vertex 1, so relabeling moves the root and the walk
    rng = random.Random(8)
    for tree in list(random_trees(9, 20, seed=5)) + [path_tree(12)]:
        want = matching_weight_arrays(tree)
        for _ in range(5):
            perm = list(range(1, tree.n + 1))
            rng.shuffle(perm)
            moved = Tree(tree.n, tuple((perm[u - 1], perm[v - 1])
                                       for u, v in tree.edges))
            assert matching_weight_arrays(moved) == want


def test_free_trees_class_counts():
    # OEIS A000055, and Cayley's count from the classes' automorphisms
    counts = [1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    for n, want in zip(range(2, 13), counts):
        classes = free_trees(n)
        assert len(classes) == want, n
        assert sum(factorial(n) // aut for _, aut in classes) == n ** (n - 2)
        assert all(tree.n == n for tree, _ in classes)
    with pytest.raises(ValueError):
        free_trees(1)


def test_free_trees_refused_above_cap_before_growth(monkeypatch):
    # n = 16 alone would take about 12 s; past the cap no class is grown
    def grow(parent, codes):
        raise AssertionError("a class was grown past the cap")

    monkeypatch.setattr(trees, "_center_code", grow)
    with pytest.raises(ValueError, match=f"n <= {trees.FREE_TREES_MAX_N}"):
        free_trees(trees.FREE_TREES_MAX_N + 1)


def test_free_trees_grows_each_size_once(monkeypatch):
    # the classes of n <= 8 are grown once; later calls only read them,
    # each into a fresh list that the caller may change
    free_trees(8).clear()

    def grow(parent, codes):
        raise AssertionError("a class was grown again")

    monkeypatch.setattr(trees, "_center_code", grow)
    assert [len(free_trees(n)) for n in range(2, 9)] == \
        [1, 1, 2, 3, 6, 11, 23]


def test_free_trees_automorphisms_by_brute_force():
    for n in range(2, 8):
        for tree, aut in free_trees(n):
            edges = set(tree.edges)
            assert aut == sum(
                all((min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1]))
                    in edges for u, v in edges)
                for p in permutations(range(1, n + 1))), tree.edges


def test_free_trees_weights_match_labeled_trees():
    # the second route behind the relabeling argument: each class stands
    # for n!/|Aut T| labeled trees with its matching weights
    def key(weights):
        return tuple(map(tuple, weights))
    for n in range(2, 8):
        labeled = Counter(key(matching_weight_arrays(t))
                          for t in all_labeled_trees(n))
        classes = Counter()
        for tree, aut in free_trees(n):
            classes[key(matching_weight_arrays(tree))] += factorial(n) // aut
        assert classes == labeled, n


@pytest.mark.parametrize("merge", [True, False],
                         ids=["too-coarse", "too-fine"])
def test_free_trees_certified_on_every_call(monkeypatch, merge):
    # a code that merges classes, or splits one, breaks Cayley's count;
    # the growth cache starts from n = 2 again, so every class is grown
    # by the broken code, and the cache is put back afterwards
    real = trees._center_code

    def code(parent, codes):
        aut = real(parent, codes)[1]
        return ((), aut) if merge else (tuple(parent), aut)

    monkeypatch.setattr(trees, "_GROWN", trees._GROWN[:1])
    monkeypatch.setattr(trees, "_center_code", code)
    with pytest.raises(ArithmeticError, match=r"not 6\^4"):
        free_trees(6)
