from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from qimm.characters import (
    alpha_table,
    last_value,
    trinomial_coeffs,
    two_row_dimension,
)
from qimm.paths import (
    LatticePath,
    TwoRowSYT,
    allowed_count,
    callan_fwd,
    callan_inv,
    count_restricted,
    enumerate_paths,
    enumerate_two_row_syt,
    max_odd_descent_interval,
    max_odd_peak_interval,
    path_to_syt,
    peak_profile,
    probability_monotonicity,
    probability_sequences,
    restricted_count_histogram,
    riordan_double_fwd,
    riordan_double_inv,
    sequence_identities,
    syt_descent_histogram,
    syt_to_path,
)

GRP_4 = {
    4: {"UUUU"},
    3: {"UUUH", "UUHU", "UHUU"},
    2: {"UUHH", "UHHU", "UHUH", "UUUD", "UUDU", "UDUU"},
    1: {"UDUH", "UUDH", "UHDU", "UHUD", "UUHD", "UHHH"},
    0: {"UDUD", "UUDD", "UHHD"},
}


def test_step_validation():
    with pytest.raises(ValueError):
        LatticePath("UDX")


def test_heights_and_flags():
    p = LatticePath("UDDUUUUH")
    assert p.heights() == (0, 1, 0, -1, 0, 1, 2, 3, 3)
    assert not p.is_nonnegative()
    q = LatticePath("UHHD")
    assert q.is_grp()
    assert LatticePath("HU").has_ground_h()


def test_enumerate_nlp_dyck():
    assert {str(p) for p in enumerate_paths("NLP", 4, 0)} == {"UUDD", "UDUD"}


def test_enumerate_grp_example_sets():
    for height, expect in GRP_4.items():
        got = {str(p) for p in enumerate_paths("GRP", 4, height)}
        assert got == expect


def test_enumerate_parity_errors():
    with pytest.raises(ValueError):
        enumerate_paths("NLP", 4, 1)
    with pytest.raises(ValueError):
        enumerate_paths("NLP", 4, 6)
    with pytest.raises(ValueError):
        enumerate_paths("UHD", 3, 5)
    with pytest.raises(ValueError):
        enumerate_paths("DYCK", 4, 0)


def test_enumeration_matches_filtered_product():
    # every word over the alphabet, in product (lexicographic) order,
    # kept when it satisfies the class predicate; members and order agree
    classes = {"NLP": ("UD", LatticePath.is_nonnegative),
               "UHD": ("UHD", lambda p: True),
               "GRP": ("UHD", LatticePath.is_grp)}
    for path_class, (alphabet, keep) in classes.items():
        for length in range(11):
            by_end: dict[int, list[str]] = {}
            for word in product(alphabet, repeat=length):
                p = LatticePath("".join(word))
                if keep(p):
                    by_end.setdefault(p.end_height(), []).append(p.steps)
            for end, words in by_end.items():
                got = enumerate_paths(path_class, length, end)
                assert [p.steps for p in got] == words, (path_class, end)


def test_syt_enumeration_matches_filtered_product():
    # entry i goes to row word[i-1]; the tableau check is the predicate
    for n in range(13):
        by_k: dict[int, list[TwoRowSYT]] = {}
        for word in product((1, 2), repeat=n):
            rows = tuple(tuple(i + 1 for i, r in enumerate(word) if r == row)
                         for row in (1, 2))
            try:
                tab = TwoRowSYT(*rows)
            except ValueError:
                continue
            by_k.setdefault(len(rows[1]), []).append(tab)
        assert sorted(by_k) == list(range(n // 2 + 1))
        for k, tabs in by_k.items():
            assert list(enumerate_two_row_syt(n, k)) == tabs, (n, k)


def test_enumeration_needs_no_recursion():
    # one path of 1,500 steps, far past the interpreter's recursion limit
    (p,) = enumerate_paths("NLP", 1500, 1500)
    assert p.steps == "U" * 1500 and p.end_height() == 1500


def test_nlp_counts_are_ballot_numbers():
    for n in range(1, 11):
        for k in range(n // 2 + 1):
            assert len(enumerate_paths("NLP", n, n - 2 * k)) == (
                two_row_dimension(n, k))


def test_uhd_counts_are_trinomial():
    # |UHD(l, h)| = p_{l, l+h}; in particular 16 at height 1 and 10 at 2
    for l in range(1, 7):
        p = trinomial_coeffs(l)
        for h in range(-l, l + 1):
            assert len(enumerate_paths("UHD", l, h)) == p[l + h]
    assert len(enumerate_paths("UHD", 4, 1)) == 16
    assert len(enumerate_paths("UHD", 4, 2)) == 10


def test_grp_counts_are_last_values():
    for l in range(1, 7):
        for k in range(l + 1):
            assert len(enumerate_paths("GRP", l, l - k)) == last_value(l, k)


def test_callan_published_examples():
    assert str(callan_fwd(LatticePath("UDDUUUUH"))) == "DUUHUUUH"
    assert str(callan_inv(LatticePath("UDDHDUUU"))) == "DUUHUDDH"
    assert str(callan_inv(LatticePath("DUUHUUUH"))) == "UDDUUUUH"


def test_callan_rejects_grp_input():
    with pytest.raises(ValueError):
        callan_fwd(LatticePath("UUUU"))
    with pytest.raises(ValueError):
        callan_inv(LatticePath("UD"))  # ends at height 0


def test_callan_first_step_rule():
    # a U-first path maps to D-first and vice versa (the first step always
    # lands in the flipped prefix); an H-first path keeps its H unless that
    # very H is the ground-level step being replaced, which turns it into U
    for l in range(2, 6):
        for k in range(l + 1):
            for p in enumerate_paths("UHD", l, l - k):
                if p.is_grp():
                    continue
                q = callan_fwd(p)
                if p.steps[0] == "H":
                    assert q.steps[0] in "HU"
                else:
                    assert {p.steps[0], q.steps[0]} == {"U", "D"}


def test_callan_round_trip_exhaustive():
    for l in range(1, 6):
        for k in range(l + 1):
            domain = [
                p for p in enumerate_paths("UHD", l, l - k) if not p.is_grp()
            ]
            images = [callan_fwd(p) for p in domain]
            assert all(q.end_height() == l - k + 1 for q in images)
            assert len({str(q) for q in images}) == len(domain)
            for p, q in zip(domain, images):
                assert str(callan_inv(q)) == str(p)


def test_doubling_rule_application():
    assert str(riordan_double_fwd(LatticePath("UUUD"))) == "UUUUUUDD"
    doubled = riordan_double_fwd(LatticePath("UHHD"))
    assert str(doubled) == "UUDUDUDD"
    assert all(parity == "even" for _, _, parity in peak_profile(doubled))


def test_doubling_domain_and_image_errors():
    with pytest.raises(ValueError):
        riordan_double_fwd(LatticePath("HU"))  # H at ground
    with pytest.raises(ValueError):
        riordan_double_inv(LatticePath("UDUU"))  # UD pair = odd peak
    with pytest.raises(ValueError):
        riordan_double_inv(LatticePath("UUU"))  # odd length
    with pytest.raises(ValueError):
        riordan_double_inv(LatticePath("UHUU"))  # not a U/D path


def test_doubling_round_trip():
    for l in range(1, 6):
        for k in range(l + 1):
            for p in enumerate_paths("GRP", l, l - k):
                q = riordan_double_fwd(p)
                assert str(riordan_double_inv(q)) == str(p)
                assert riordan_double_inv(riordan_double_fwd(p)) == p


def test_doubling_image_is_odd_peak_free_slice():
    for l in range(1, 6):
        for k in range(l + 1):
            images = {
                str(riordan_double_fwd(p))
                for p in enumerate_paths("GRP", l, l - k)
            }
            target = {
                str(p)
                for p in enumerate_paths("NLP", 2 * l, 2 * l - 2 * k)
                if max_odd_peak_interval(p) == 0
            }
            assert images == target


def test_peak_profiles():
    assert peak_profile(LatticePath("UUDD")) == [(2, 2, "even")]
    assert peak_profile(LatticePath("UDUD")) == [
        (1, 1, "odd"),
        (3, 1, "odd"),
    ]
    with pytest.raises(ValueError):
        peak_profile(LatticePath("UHD"))


def test_count_restricted_published_values():
    assert count_restricted(8, 4, 0) == 14
    assert count_restricted(8, 4, 4) == 3
    assert count_restricted(7, 2, 2) == 7


def test_count_restricted_equals_alpha_small():
    for n in range(2, 11):
        table = alpha_table(n)
        for k in range(n // 2 + 1):
            for i in range(n // 2 + 1):
                assert count_restricted(n, k, i) == table.get(k, i)


def listed_histograms(n, k):
    # the brute-force route: list NLP(n, n-2k) and the (n-k, k) tableaux,
    # and read each object's largest odd interval from its own peaks or
    # descents
    peak_hist, descent_hist = [0] * (n // 2 + 1), [0] * (n // 2 + 1)
    for p in enumerate_paths("NLP", n, n - 2 * k):
        peak_hist[max_odd_peak_interval(p)] += 1
    for tab in enumerate_two_row_syt(n, k):
        descent_hist[max_odd_descent_interval(tab)] += 1
    return peak_hist, descent_hist


def test_histograms_match_listings():
    # every (n, k) the --deep counting and probability sweeps read
    for n in range(17):
        for k in range(n // 2 + 1):
            peak_hist, descent_hist = listed_histograms(n, k)
            assert list(restricted_count_histogram(n, k)) == peak_hist, (n, k)
            assert syt_descent_histogram(n, k) == descent_hist, (n, k)


def test_histograms_count_every_object_at_n_60():
    # far past any listing: C(60, 30) ~ 1.2e17 paths at k = 30
    for k in range(31):
        assert (sum(restricted_count_histogram(60, k))
                == sum(syt_descent_histogram(60, k))
                == two_row_dimension(60, k)), k


def test_histograms_refuse_a_shape_out_of_range():
    for n, k in ((6, 4), (6, -1), (-1, 0)):
        with pytest.raises(ValueError):
            restricted_count_histogram(n, k)
        with pytest.raises(ValueError):
            syt_descent_histogram(n, k)


def test_count_restricted_literal_x_reading_fails():
    # reading "odd peaks in D_i" as peak x-coordinates <= i, instead of
    # interval indices, undercounts: it breaks the alpha identity at
    # n=8, k=4, i=0
    allowed = 8 // 2 - 0
    literal = sum(
        1
        for p in enumerate_paths("NLP", 8, 0)
        if all(
            x <= allowed for x, _, par in peak_profile(p) if par == "odd"
        )
    )
    assert literal != alpha_table(8).get(4, 0)


def test_appending_down_step_keeps_odd_peaks():
    # a path with an even number of steps ends at even height, so a new
    # final D step can only create an even peak
    for l in range(1, 6):
        for k in range(l + 1):
            for p in enumerate_paths("NLP", 2 * l, 2 * l - 2 * k):
                if p.end_height() == 0:
                    continue
                extended = LatticePath(p.steps + "D")
                odd_before = [
                    x for x, _, par in peak_profile(p) if par == "odd"
                ]
                odd_after = [
                    x for x, _, par in peak_profile(extended) if par == "odd"
                ]
                assert odd_before == odd_after


def test_syt_validation():
    with pytest.raises(ValueError):
        TwoRowSYT((1, 2), (2, 4))  # 3 missing, 2 repeated
    with pytest.raises(ValueError):
        TwoRowSYT((2, 3), (1, 4))  # column decreases
    with pytest.raises(ValueError):
        TwoRowSYT((1,), (2, 3))  # second row longer


def test_syt_codec_golden():
    assert str(syt_to_path(TwoRowSYT((1, 2), (3, 4)))) == "UUDD"
    assert str(syt_to_path(TwoRowSYT((1, 3), (2, 4)))) == "UDUD"
    t = path_to_syt(LatticePath("UUDD"))
    assert (t.row1, t.row2) == ((1, 2), (3, 4))
    assert syt_to_path(t) == LatticePath("UUDD")
    assert path_to_syt(LatticePath("UDUD")) == TwoRowSYT((1, 3), (2, 4))


def test_syt_codec_rejects_negative_path():
    with pytest.raises(ValueError):
        path_to_syt(LatticePath("DU"))
    with pytest.raises(ValueError):
        path_to_syt(LatticePath("UH"))


def test_syt_counts():
    assert sum(1 for _ in enumerate_two_row_syt(6, 2)) == 9
    for n in range(1, 11):
        for k in range(n // 2 + 1):
            assert sum(1 for _ in enumerate_two_row_syt(n, k)) == (
                two_row_dimension(n, k))


def test_syt_round_trip_and_descent_peak_match():
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            for tab in enumerate_two_row_syt(n, k):
                p = syt_to_path(tab)
                assert path_to_syt(p) == tab
                peaks = {(x, y) for x, y, _ in peak_profile(p)}
                descents = {
                    (i, tab.row_diff(i)) for i in tab.descents()
                }
                assert peaks == descents


def test_probability_published_sequence():
    seq, monotone = probability_monotonicity(7, 3)
    assert monotone
    assert [p for _, p in seq] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(5, 14),
        Fraction(2, 7),
    ]


def test_probability_k0_is_one():
    seq, _ = probability_monotonicity(6, 0)
    assert seq[0] == (0, Fraction(1))


def test_probability_monotone_small():
    for n in range(2, 11):
        for i in range((n - 1) // 2 + 1):
            _, monotone = probability_monotonicity(n, i)
            assert monotone


def test_syt_histogram_prefix_sums_match_descent_predicate():
    # the per-i reading of the tableau side, one tableau at a time
    for n in range(1, 11):
        half = n // 2
        for k in range(half + 1):
            tableaux = list(enumerate_two_row_syt(n, k))
            hist = syt_descent_histogram(n, k)
            assert sum(hist) == len(tableaux)
            for i in range(half + 1):
                allowed = half - i
                good = [
                    all((d + 1) // 2 <= allowed
                        for d in tab.descents() if tab.row_diff(d) % 2 == 1)
                    for tab in tableaux
                ]
                for tab, ok in zip(tableaux, good):
                    assert (max_odd_descent_interval(tab) <= allowed) == ok
                assert allowed_count(hist, n, i) == sum(good), (n, k, i)


def test_probability_sequences_match_per_i_enumeration():
    for n in range(1, 13):
        seqs = probability_sequences(n)
        assert len(seqs) == (n - 1) // 2 + 1
        for i, seq in enumerate(seqs):
            direct = [
                (k, Fraction(
                    sum(1 for p in enumerate_paths("NLP", n, n - 2 * k)
                        if max_odd_peak_interval(p) <= n // 2 - i),
                    two_row_dimension(n, k)))
                for k in range(n // 2 + 1)
            ]
            assert seq == direct, (n, i)
            assert probability_monotonicity(n, i)[0] == seq


def test_probability_range_check():
    with pytest.raises(ValueError):
        probability_monotonicity(6, 3)


def test_sequence_identities_catalan_riordan():
    report = sequence_identities(8)
    rows = {l: (c, rhs, ok) for l, c, rhs, ok in report["catalan_riordan"]}
    assert rows[0] == (1, 1, True)
    # C_4 = 14 = 3 + 4*1 + 6*1 + 4*0 + 1*1
    assert rows[4] == (14, 14, True)
    assert all(ok for _, _, _, ok in report["catalan_riordan"])
    assert all(ok for _, _, _, ok in report["convolution"])


@st.composite
def grp_paths(draw):
    steps = []
    h = 0
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        options = "U" if h == 0 else "UHD"
        s = draw(st.sampled_from(options))
        steps.append(s)
        h += {"U": 1, "H": 0, "D": -1}[s]
    return LatticePath("".join(steps))


@given(grp_paths())
def test_doubling_round_trip_hypothesis(path):
    assert riordan_double_inv(riordan_double_fwd(path)) == path


@given(grp_paths())
def test_doubling_image_has_no_odd_peaks(path):
    assert max_odd_peak_interval(riordan_double_fwd(path)) == 0
