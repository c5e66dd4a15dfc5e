from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from qimm.ratpoly import RatPoly
from qimm.trees import (
    Tree,
    all_labeled_trees,
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
    return rows


def test_matching_weight_arrays_against_edge_subsets():
    trees = [t for n in range(2, 7) for t in all_labeled_trees(n)]
    trees += list(random_trees(10, 100, seed=2024))
    for tree in trees:
        assert matching_weight_arrays(tree) == brute_weight_arrays(tree)


def test_matching_weight_arrays_single_vertex():
    # the one vertex has degree 0, so its factor is 1 - t
    assert matching_weight_arrays(Tree(1, ())) == [[1, -1]]


def test_matching_weight_arrays_large_star():
    # c_0: hub factor 1 + (N-2) t; c_1: N-1 edges, each t times leaf factors 1
    n = 1200
    rows = matching_weight_arrays(star_tree(n))
    assert len(rows) == n // 2 + 1
    assert rows[0] == [1, n - 2] and rows[1] == [0, n - 1]
    assert all(row == [0] for row in rows[2:])


def test_matching_weight_arrays_large_path():
    # the t^j coefficient of c_j counts the j-matchings of the path
    n = 100
    rows = matching_weight_arrays(path_tree(n))
    assert [row[j] for j, row in enumerate(rows)] == [
        comb(n - j, j) for j in range(n // 2 + 1)]


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
    for tree in all_labeled_trees(5):
        c = matching_weights(tree)
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
