import hashlib
import json
from math import comb, factorial
from operator import mul

import pytest

from check_streams import pinned
from qimm import characters, immanants
from qimm.characters import (
    COLUMN_MAX_N,
    _column,
    _mn,
    _shapes,
    alpha,
    alpha_table,
    as_partition,
    involution_characters,
    last_table,
    last_table_recursive,
    last_table_trinomial,
    last_value,
    mn_character,
    partitions,
    poly_power_coeffs,
    syt_count,
    trinomial_coeffs,
    trinomial_power,
    two_row_char,
    two_row_column,
    two_row_shape,
)
from qimm.ratpoly import conv

# the three printed tables alpha_table must reproduce entry for entry
TABLE_N6 = ((1, 5, 9, 5), (1, 4, 6, 3), (1, 3, 4, 2), (1, 2, 3, 1))
TABLE_N7 = ((1, 6, 14, 14), (1, 5, 10, 9), (1, 4, 7, 6), (1, 3, 5, 4))
TABLE_N8 = (
    (1, 7, 20, 28, 14),
    (1, 6, 15, 19, 9),
    (1, 5, 11, 13, 6),
    (1, 4, 8, 9, 4),
    (1, 3, 6, 6, 3),
)

LAST_TRIANGLE = (
    (1,),
    (1, 0),
    (1, 1, 1),
    (1, 2, 3, 1),
    (1, 3, 6, 6, 3),
    (1, 4, 10, 15, 15, 6),
    (1, 5, 15, 29, 40, 36, 15),
    (1, 6, 21, 49, 84, 105, 91, 36),
    (1, 7, 28, 76, 154, 238, 280, 232, 91),
    (1, 8, 36, 111, 258, 468, 672, 750, 603, 232),
)


def test_partition_validation():
    assert as_partition((3, 1)) == (3, 1)
    with pytest.raises(ValueError):
        as_partition((1, 3))
    with pytest.raises(ValueError):
        as_partition((2, 0))


def test_validation_messages_and_order():
    # positivity is checked before order, on the shape and the cycle type
    cases = [
        (((0, 3), (2, 1)), "partition parts must be positive: (0, 3)"),
        (((1, 2), (2, 1)), "partition must be weakly decreasing: (1, 2)"),
        (((2, 1), (1, 0, 2)), "partition parts must be positive: (2, 1, 0)"),
        (((2, 1), (2, 2)), "|shape|=3 != |cycle type|=4"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            mn_character(*args)
        assert str(err.value) == message
    assert mn_character((2, 1), (1, 2)) == mn_character((2, 1), (2, 1)) == 0


def test_partitions_count():
    assert sum(1 for _ in partitions(6)) == 11
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_trivial_character_is_one():
    for rho in partitions(6):
        assert mn_character((6,), rho) == 1


def test_sign_character_on_full_cycle():
    for n in range(2, 8):
        assert mn_character((1,) * n, (n,)) == (-1) ** (n - 1)


def test_character_2_2_at_2_2():
    # two strips of size 2: horizontal (sign +, leaves (2)) and vertical
    # (sign -, leaves (1,1)); chi = 1*1 + (-1)(-1) = 2
    assert mn_character((2, 2), (2, 2)) == 2


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


def test_first_column_counts_tableaux():
    for n in range(1, 8):
        for shape in partitions(n):
            assert mn_character(shape, (1,) * n) == syt_count(shape)


def character_table(n):
    rhos = list(partitions(n))
    return rhos, [[mn_character(lam, rho) for rho in rhos] for lam in rhos]


def centralizer_size(cycle_type):
    """z_rho = prod over distinct part sizes i of i^m_i * m_i!."""
    z = 1
    for i in set(cycle_type):
        m = cycle_type.count(i)
        z *= i**m * factorial(m)
    return z


def hook_shape(n, k):
    """Hook partition (k, 1^(n-k))."""
    return (k,) + (1,) * (n - k)


def test_column_orthogonality():
    # sum over shapes of chi(rho) chi(sigma) is z_rho on the diagonal, 0 off
    for n in range(2, 12):
        rhos, rows = character_table(n)
        for a, rho in enumerate(rhos):
            for b, sigma in enumerate(rhos):
                total = sum(row[a] * row[b] for row in rows)
                expect = centralizer_size(rho) if rho == sigma else 0
                assert total == expect, (rho, sigma)


def test_row_orthogonality():
    # sum over cycle types of chi_lambda(rho) chi_mu(rho) / z_rho is
    # delta_{lambda mu}; times n!, which every z_rho divides
    for n in range(1, 12):
        rhos, rows = character_table(n)
        scale = factorial(n)
        weights = [scale // centralizer_size(rho) for rho in rhos]
        for lam, lam_row in zip(rhos, rows):
            for mu, mu_row in zip(rhos, rows):
                total = sum(map(mul, map(mul, lam_row, mu_row), weights))
                assert total == (scale if lam == mu else 0), (lam, mu)


def bead_mask(lam):
    """The n-bead abacus of a partition lam of n as an int: lam padded with
    zeros to n parts, part i puts a bead at part + n - 1 - i."""
    n = sum(lam)
    padded = list(lam) + [0] * (n - len(lam))
    return sum(1 << (part + n - 1 - i) for i, part in enumerate(padded))


def involution_type(n, j):
    """Cycle type 2^j 1^(n-2j)."""
    return (2,) * j + (1,) * (n - 2 * j)


def test_column_route_matches_removal_route():
    # every column holds one value per partition of n, in partitions(n)
    # order (the descending order of the n-bead masks), and reading it
    # agrees with border-strip removal on every (lambda, rho) with n <= 12
    for n in range(13):
        parts = list(partitions(n))
        assert _shapes(n)[0] == [bead_mask(lam) for lam in parts]
        for rho in parts:
            column = _column(n, rho)
            assert len(column) == len(parts)
            for lam, by_place in zip(parts, column):
                assert mn_character(lam, rho) == by_place == _mn(
                    bead_mask(lam), rho), (lam, rho)


def test_selector_covers_both_routes():
    # n = COLUMN_MAX_N reads columns without touching _mn; one more box
    # reads _mn; on both sides each value is checked against the other
    # route and, at 1^n and (n), against f^lambda and the hook signs; and
    # involution_characters agrees with mn_character at every 2^j 1^(n-2j)
    for n in (COLUMN_MAX_N, COLUMN_MAX_N + 1):
        parts = list(partitions(n))
        hooks = {hook_shape(n, k): (-1) ** (n - k) for k in range(1, n + 1)}
        for rho in ((1,) * n, involution_type(n, n // 2), (n,)):
            before = _mn.cache_info()
            values = [mn_character(lam, rho) for lam in parts]
            asked_mn = _mn.cache_info() != before
            assert asked_mn == (n > COLUMN_MAX_N), (n, rho)
            column = _column(n, rho)
            assert len(column) == len(parts)
            for lam, value, by_place in zip(parts, values, column):
                assert value == by_place == _mn(bead_mask(lam), rho)
                if rho == (1,) * n:
                    assert value == syt_count(lam)
                elif rho == (n,):
                    assert value == hooks.get(lam, 0)
        width = n // 2 + 1
        for lam in parts:
            assert involution_characters(lam, width) == [
                mn_character(lam, involution_type(n, j))
                for j in range(width)], lam


def test_refused_character_builds_no_column():
    # a size mismatch is refused before the cycle type's column or any
    # move table is built
    characters._moves.cache_clear()
    characters._column.cache_clear()
    with pytest.raises(ValueError, match=r"\|shape\|=3 != \|cycle type\|=20"):
        mn_character((2, 1), (1,) * 20)
    assert characters._moves.cache_info().currsize == 0
    assert characters._column.cache_info().currsize == 0
    assert mn_character((2, 1), (2, 1)) == 0


def test_involution_characters_list_no_shapes():
    # border-strip removal reads the shape's mask, made from its parts by
    # the formula the places are looked up with, not from a listing
    characters._shapes.cache_clear()
    assert involution_characters((16, 2), 10) == [
        _mn(bead_mask((16, 2)), involution_type(18, j)) for j in range(10)]
    assert characters._shapes.cache_info().currsize == 0
    assert mn_character((16, 2), (1,) * 18) == syt_count((16, 2))
    assert characters._shapes.cache_info().currsize == 19


def test_involution_characters_walk_each_shape_once(monkeypatch):
    # one walk of 2-strip removal gives every j: each mask of each level
    # is scanned once, and no value passes through _mn's cache
    calls, strips = [], characters._strips

    def counted(beads, t):
        calls.append(t)
        return strips(beads, t)

    monkeypatch.setattr(characters, "_strips", counted)
    before = _mn.cache_info().currsize
    values = involution_characters((10, 10, 10, 10), 21)
    assert len(calls) == 440 and set(calls) == {2}
    assert _mn.cache_info().currsize == before
    assert values[0] == syt_count((10, 10, 10, 10))


def test_involution_characters_above_column_max_n():
    # routes that share no code with the strip walk: the two-row closed
    # form for every (40 - k, k), the hook table for every hook, j <= 20
    n, width = 40, 21
    for k in range(n // 2 + 1):
        assert involution_characters(two_row_shape(n, k), width) == [
            two_row_char(n, k, j) for j in range(width)], k
    hooks = immanants._hook_char_data(n, width)
    for k, row in enumerate(hooks, 1):
        assert involution_characters(hook_shape(n, k), width) == list(row), k


def test_s12_character_table_pinned():
    # json.dumps of the rows chi_lambda(rho), lambda and rho over
    # partitions(12)
    parts = list(partitions(12))
    rows = [[mn_character(lam, rho) for rho in parts] for lam in parts]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == pinned(
        "S12 character table")


def test_s17_character_table_pinned_and_orthogonal():
    # the table the tables-paths benchmark workload reads: its pinned
    # digest, and each column's squares summing to z_rho
    parts = list(partitions(17))
    rows = [[mn_character(lam, rho) for rho in parts] for lam in parts]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == pinned(
        "S17 character table")
    for b, rho in enumerate(parts):
        assert sum(row[b] ** 2 for row in rows) == centralizer_size(rho), rho


def test_murnaghan_nakayama_edge_values():
    # a 10 x 10 square at 3^33 1: a 34-level descent
    assert mn_character((10,) * 10, (3,) * 33 + (1,)) == (
        934936182295920604800)
    # two beads far apart: f^(2999,1) = 2999
    assert mn_character((2999, 1), (1,) * 3000) == 2999
    # 1,000 levels, one per 2-cycle, against the closed-form column
    assert mn_character((1990, 10), (2,) * 1000) == two_row_char(
        2000, 10, 1000)


def fixed_subsets(n, j, m):
    """F(m) = sum_a C(j, a) C(n-2j, m-2a): an m-subset fixed by an
    involution with j 2-cycles is a union of a of its 2-cycles and m-2a
    fixed points (Young's rule, summed term by term)."""
    return sum(comb(j, a) * comb(n - 2 * j, m - 2 * a)
               for a in range(min(j, m // 2) + 1))


def binomial_dimension(n, k):
    """f_k = C(n, k) - C(n, k - 1), the hook-length count of the two-row
    shape (n-k, k): a route independent of the character product."""
    return comb(n, k) - (comb(n, k - 1) if k else 0)


def box_removal_tables(n_max):
    """alpha rows for n = 1..n_max by the box-removal recursion
    alpha_{n,k,i} = alpha_{n-1,k,i} + alpha_{n-1,k-1,i} (valid for
    i <= floor((n-1)/2)), filling the extra row of each even n from the
    last triangle's three-term recursion; yields (n, rows)."""
    last = last_table_recursive(n_max // 2).rows
    rows = [(1,)]  # n = 1: single entry alpha_{1,0,0}
    yield 1, tuple(rows)
    for m in range(2, n_max + 1):
        half = m // 2
        # row i of m - 1 has (m-1)//2 + 1 entries; pad one zero each side
        rows = [tuple(a + b for a, b in zip(prow + (0,), (0,) + prow))
                [: half + 1] for prow in rows]
        if m % 2 == 0:
            rows.append(last[half])
        yield m, tuple(rows)


def test_two_row_column_matches_young_rule_sum():
    # the j = 0 column is the degree; the binomial form checks it
    for n in range(1, 81):
        for j in range(n // 2 + 1):
            assert two_row_column(n, j) == tuple(
                fixed_subsets(n, j, k) - fixed_subsets(n, j, k - 1)
                for k in range(n // 2 + 1)), (n, j)
        for k in range(n // 2 + 1):
            assert two_row_char(n, k, 0) == binomial_dimension(n, k), (n, k)
    for n in (1000, 1001):
        for k, j in ((0, 0), (1, 1), (3, 250), (250, 3), (499, 500),
                     (500, 499), (500, 500)):
            assert two_row_char(n, k, j) == (
                fixed_subsets(n, j, k) - fixed_subsets(n, j, k - 1)), (n, k, j)
        for k in range(n // 2 + 1):
            assert two_row_char(n, k, 0) == binomial_dimension(n, k), (n, k)


def test_two_row_char_trivial_row():
    for n in range(2, 10):
        for j in range(n // 2 + 1):
            assert two_row_char(n, 0, j) == 1


def test_two_row_char_dimension_entry():
    assert two_row_char(6, 2, 0) == 9


def test_two_row_char_matches_murnaghan_nakayama():
    for n in range(2, 17):
        for k in range(n // 2 + 1):
            for j in range(n // 2 + 1):
                assert two_row_char(n, k, j) == mn_character(
                    two_row_shape(n, k), involution_type(n, j)
                )


def test_two_row_char_pascal_identity():
    # removing a fixed point: chi_{n,k}(j) = chi_{n-1,k}(j) + chi_{n-1,k-1}(j)
    def chi(n, k, j):
        return two_row_char(n, k, j) if k <= n // 2 else 0

    for n in range(2, 61):
        for j in range((n - 1) // 2 + 1):
            for k in range(1, n // 2 + 1):
                assert chi(n, k, j) == chi(n - 1, k, j) + chi(n - 1, k - 1, j)


def test_two_row_char_range_checks():
    with pytest.raises(ValueError):
        two_row_char(6, 4, 0)
    with pytest.raises(ValueError):
        two_row_char(6, 1, 4)


def test_two_row_char_by_binomial_inversion_of_table():
    # invert 2^i alpha_{8,4,i} = sum_j C(i,j) chi(j) from the printed table
    g = [(1 << i) * TABLE_N8[i][4] for i in range(5)]
    for j in range(5):
        expect = sum((-1) ** (j - m) * comb(j, m) * g[m] for m in range(j + 1))
        assert two_row_char(8, 4, j) == expect


def test_alpha_highlighted_cells():
    assert alpha(6, (4, 2), 1) == 6
    assert alpha(8, (4, 4), 4) == 3
    assert alpha(7, (5, 2), 2) == 7


def test_alpha_n2_direct():
    assert alpha(2, (2,), 0) == 1
    assert alpha(2, (1, 1), 0) == 1
    assert alpha(2, (2,), 1) == 1
    assert alpha(2, (1, 1), 1) == 0


def test_alpha_table_matches_printed_tables():
    assert alpha_table(6).rows == TABLE_N6
    assert alpha_table(7).rows == TABLE_N7
    assert alpha_table(8).rows == TABLE_N8


def test_alpha_table_matches_direct_definition():
    for n in range(1, 13):
        table = alpha_table(n)
        half = n // 2
        for k in range(half + 1):
            for i in range(half + 1):
                assert table.get(k, i) == alpha(n, two_row_shape(n, k), i)


def test_alpha_table_matches_box_removal_recursion():
    for n, rows in box_removal_tables(150):
        assert alpha_table(n).rows == rows, n


def test_alpha_table_middle_row_of_large_table():
    # row n/2 of alpha_table(2l) is row l of the last triangle
    assert alpha_table(1000).rows[500] == last_table_recursive(500).rows[500]


def test_alpha_row_zero_is_dimension():
    for n in range(1, 17):
        table = alpha_table(n)
        for k in range(n // 2 + 1):
            assert table.get(k, 0) == binomial_dimension(n, k)
            assert table.get(k, 0) == two_row_char(n, k, 0)


def test_alpha_out_of_range_convention():
    table = alpha_table(6)
    assert table.get(4, 1) == 0
    assert table.get(1, 4) == 0


def test_last_table_matches_printed_triangle():
    assert last_table(9).rows == LAST_TRIANGLE


def test_last_table_two_routes_agree():
    a = last_table_trinomial(20)
    b = last_table_recursive(20)
    assert a.rows == b.rows


def test_last_diagonal_is_riordan():
    assert [last_value(l, l) for l in range(5)] == [1, 0, 1, 1, 3]


def test_last_value_boundaries():
    assert last_value(3, -1) == 0
    assert last_value(3, 4) == 0


def test_last_row_equals_alpha_last_row():
    for l in range(1, 8):
        table = alpha_table(2 * l)
        assert table.rows[l] == tuple(last_value(l, k) for k in range(l + 1))


def test_trinomial_row():
    assert trinomial_coeffs(4) == (1, 4, 10, 16, 19, 16, 10, 4, 1)


def test_trinomial_coeffs_match_repeated_convolution():
    row = [1]
    for l in range(61):
        assert trinomial_coeffs(l) == tuple(row), l
        row = conv(row, (1, 1, 1))


def test_trinomial_power_matches_repeated_convolution():
    # c = 0 included: (1 + x^2)^l, every odd coefficient zero
    for c in range(12):
        for l in range(30):
            assert trinomial_power(l, c) == poly_power_coeffs((1, c, 1), l), \
                (l, c)
    assert trinomial_power(0, 5) == [1]
    assert trinomial_power(3, 0) == [1, 0, 3, 0, 3, 0, 1]


def test_trinomial_power_with_binomial_factor_and_cutoff():
    # (1 + cx + x^2)^a (1 + x)^b, cut at x^top or padded with zeros to it
    for c in (0, 1, 2, 5):
        for a in range(21):
            tri = poly_power_coeffs((1, c, 1), a)
            for b in range(21):
                full = conv(tri, poly_power_coeffs((1, 1), b))
                degree = 2 * a + b
                assert trinomial_power(a, c, b) == full, (a, b, c)
                for top in (0, degree // 2, degree - 1, degree, degree + 3):
                    if top < 0:
                        continue
                    expect = (full + [0] * 3)[: top + 1]
                    assert trinomial_power(a, c, b, top=top) == expect, \
                        (a, b, c, top)


def test_trinomial_coeffs_large_row():
    p = trinomial_coeffs(2000)
    assert len(p) == 4001
    assert sum(p) == 3**2000
    assert p == p[::-1]
