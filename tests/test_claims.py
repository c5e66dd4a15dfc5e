import contextlib
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import fields
from itertools import product
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from qimm import characters, claims, cli, paths, trees
from qimm.claims import SweepConfig
from qimm.immanants import (
    Form,
    InequalityVerdict,
    check_alpha_ratios,
    check_general_sr,
    check_last_row_ratios,
    cor10_row,
    lem6_row,
    lem9_row,
    lem11_row,
    lem13_row,
    rem12_row,
    sr_differences,
)
from qimm.cli import build_parser, main
from qimm.paths import restricted_count_histogram
from qimm.trees import (
    all_labeled_trees,
    free_trees,
    matching_weight_arrays,
    random_trees,
    star_tree,
)
from check_streams import pinned
from verdict_reference import csv_line, json_line, sort_key
from verdict_reference import plan as rows_plan
from verdict_reference import stream as reference_stream

# Each stream's digest is read from tests/streams.json by its name there.

# `verify <which> --deep --format json`
DEEP_STREAMS = ("paths", "probability", "two-row", "hook")

# `verify ...` under two flag sets; the second pins exhaustive_tree_max =
# min(7, n_max) under --deep
FLAG_SETS = [
    ("all", "--n-max", "6", "--hook-n-max", "5", "--oracle-n-max", "5",
     "--random-trees", "3", "--seed", "4", "--alpha-n-max", "12",
     "--l-max", "10", "--sr-max", "2", "--sr-l-max", "5"),
    ("two-row", "--deep", "--n-max", "5", "--random-trees", "2",
     "--seed", "3"),
]


def explicit_deepen(c: SweepConfig) -> SweepConfig:
    """Every cap of `deepen`, written out by hand."""
    return SweepConfig(
        n_max=max(c.n_max, 8),
        exhaustive_tree_max=min(8, c.exhaustive_tree_max + 1),
        hook_n_max=c.hook_n_max + 1,
        oracle_n_max=min(7, c.oracle_n_max + 1),
        random_count=c.random_count * 5,
        seed=c.seed,
        alpha_n_max=c.alpha_n_max,
        last_l_max=c.last_l_max,
        sr_l_max=c.sr_l_max,
        sr_max=c.sr_max,
        callan_l_max=c.callan_l_max + 1,
        double_l_max=c.double_l_max + 1,
        count_n_max=c.count_n_max + 2,
        prob_n_max=c.prob_n_max + 2,
    )


def test_deepen_field_by_field():
    custom = SweepConfig(
        n_max=5, exhaustive_tree_max=7, hook_n_max=5, oracle_n_max=6,
        random_count=7, seed=11, alpha_n_max=9, last_l_max=10, sr_l_max=4,
        sr_max=2, callan_l_max=3, double_l_max=2, count_n_max=6,
        prob_n_max=5,
    )
    for config in (SweepConfig(), custom):
        got, want = config.deepen(), explicit_deepen(config)
        for f in fields(SweepConfig):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert custom.deepen().n_max == 8
    assert SweepConfig().deepen().exhaustive_tree_max == 8


def test_sweep_config_checked_when_built():
    # the exhaustive cap is cut to n_max, deepened configs included
    assert SweepConfig(n_max=6).exhaustive_tree_max == 6
    assert SweepConfig(n_max=6).deepen().exhaustive_tree_max == 7
    for field, caps in (
            ("hook_n_max", {"hook_n_max": 10}),
            ("oracle_n_max", {"oracle_n_max": 10}),
            ("exhaustive_tree_max", {"n_max": 12, "exhaustive_tree_max": 10}),
            ("alpha_n_max", {"alpha_n_max": claims.ALPHA_TABLE_MAX_N + 1}),
            ("last_l_max", {"last_l_max": claims.LAST_TABLE_MAX_L + 1}),
            ("sr_max", {"sr_max": claims.SR_MAX + 1}),
            ("sr_l_max", {"sr_l_max": claims.SR_L_MAX + 1}),
            ("random_count", {"random_count": 0}),
            ("random_count", {"n_max": 40})):
        with pytest.raises(ValueError, match=field):
            SweepConfig(**caps)
    # the sampled thm2 sweep is bounded by the modelled cost of the trees
    # it walks, random_count for each n past both the exhaustive cap and
    # ALL_TREES_MAX_N (classes cover the sample below): at n_max = 40,
    # 418 trees, --deep or not
    assert SweepConfig(n_max=40, random_count=418).random_count == 418
    with pytest.raises(ValueError, match="random_count = 419 is above its "
                                         "cap 418 at n_max = 40"):
        SweepConfig(n_max=40, random_count=419)
    assert SweepConfig(n_max=40, random_count=83).deepen().random_count == 415
    with pytest.raises(ValueError, match="random_count = 420 is above its "
                                         "cap 418 at n_max = 40"):
        SweepConfig(n_max=40, random_count=84).deepen()
    # the random_count cap itself stays accepted at the default n_max, and
    # up to ALL_TREES_MAX_N, where classes cover every sampled n
    for n_max in (SweepConfig.n_max, trees.ALL_TREES_MAX_N):
        assert SweepConfig(n_max=n_max, random_count=claims.RANDOM_TREES_MAX
                           ).random_count == claims.RANDOM_TREES_MAX
    with pytest.raises(ValueError, match="hook_n_max"):
        SweepConfig(hook_n_max=9).deepen()
    # every upper cap is itself accepted, all at once but for the two
    # general-sr caps, which are bounded together: each is accepted with
    # the other at its default, and the pair is refused
    at_caps = SweepConfig(n_max=9, **{**claims.SWEEP_MAX,
                                      "sr_max": SweepConfig.sr_max})
    assert (vars(at_caps).items()
            >= claims.SWEEP_MAX.items() - {("sr_max", claims.SR_MAX)})
    assert SweepConfig(sr_max=claims.SR_MAX).sr_max == claims.SR_MAX
    with pytest.raises(ValueError, match="sr_max = 50 is above its cap 6 at "
                                         "sr_l_max = 100"):
        SweepConfig(sr_max=claims.SR_MAX, sr_l_max=claims.SR_L_MAX)
    # a cap below its sweep's first value checks nothing and is refused;
    # at its first value every sweep yields a verdict
    assert len(claims.SWEEP_START) == 12
    for field, start in claims.SWEEP_START.items():
        with pytest.raises(ValueError, match=f"{field} = {start - 1} checks "
                                             f"nothing"):
            SweepConfig(**{field: start - 1})
    lowest = SweepConfig(**claims.SWEEP_START)
    for which in ("two_row", "hook", "alpha_ratios", "general_sr", "callan",
                  "doubling", "counting", "probability", "identities",
                  "oracle", "a_coeffs"):
        assert getattr(claims, f"verify_{which}")(lowest), which


def test_general_sr_pair_bounded_by_its_verdicts():
    # the pair may write as many verdicts as --sr-max 50 alone, l of them
    # for each (s, r) pair and each l <= sr_l_max
    assert len(claims.verify_general_sr(SweepConfig(sr_max=2, sr_l_max=5))
               ) == 2 ** 2 * 15
    assert SweepConfig(sr_max=6, sr_l_max=100).sr_max == 6
    with pytest.raises(ValueError, match="sr_max = 7 is above its cap 6 at "
                                         "sr_l_max = 100"):
        SweepConfig(sr_max=7, sr_l_max=100)
    # the five pairs a cost model of the convolution route accepted, each
    # past the bound
    for sr_max, sr_l_max in ((47, 13), (48, 13), (44, 14), (41, 15),
                             (38, 16)):
        with pytest.raises(ValueError, match=f"sr_max = {sr_max} is above"):
            SweepConfig(sr_max=sr_max, sr_l_max=sr_l_max)


def test_run_claims_runs_only_a_verify_name(monkeypatch):
    # each name in VERIFY_NAMES runs a sweep, read from the claims
    # namespace when called; any other name checks nothing, so it is
    # refused before a sweep runs rather than summarized as all_ok
    ran = []
    for name in dir(claims):
        if name.startswith("verify_"):
            monkeypatch.setattr(claims, name,
                                lambda config, name=name: ran.append(name)
                                or claims.Verdicts([]))
    for which in claims.VERIFY_NAMES:
        ran.clear()
        assert list(claims.run_claims(which, SweepConfig())) == [], which
        assert ran, which
    ran.clear()
    with pytest.raises(ValueError, match="'two_row'; use one of two-row, "):
        claims.run_claims("two_row", SweepConfig())
    assert ran == []
    for which in claims.VERIFY_NAMES:
        assert build_parser().parse_args(["verify", which]).which == which


def per_instance_ratios(config):
    """The two ratio sweeps' verdicts one checker call at a time, per n,
    per l and per (l, s, r), in sweep order: the route the plans replace."""
    for n in config.span("alpha_n_max"):
        yield from check_alpha_ratios(n)
    for l in config.span("last_l_max"):
        yield from check_last_row_ratios(l)


def per_instance_general_sr(config):
    for s in config.span("sr_max"):
        for r in config.span("sr_max"):
            for l in config.span("sr_l_max"):
                yield from check_general_sr(l, s, r)


def checker_verdicts(monkeypatch, which, config):
    """run_claims' verdicts, as a list, with the ratio claims' made by the
    per-instance checkers: the route the plans replace."""
    for sweep in ("verify_alpha_ratios", "verify_general_sr"):
        monkeypatch.setattr(claims, sweep, lambda config: claims.Verdicts([]))
    made = list(claims.run_claims(which, config))
    if which in ("alpha-ratios", "all"):
        made += per_instance_ratios(config)
    if which in ("general-sr", "all"):
        made += per_instance_general_sr(config)
    return made


@pytest.mark.parametrize("deep", [False, True], ids=["default", "deep"])
@pytest.mark.parametrize("which", claims.VERIFY_NAMES)
def test_run_claims_streams_the_sorted_verdicts(monkeypatch, which, deep):
    # the ratio claims are made as the sequence is iterated, and every
    # claim's verdicts come in the order the tests' reference key gives
    # the verdicts with the ratio claims' made by the checkers; its len()
    # is the count it yields, and a second pass makes the same verdicts
    config = SweepConfig().deepen() if deep else SweepConfig()
    stream = claims.run_claims(which, config)
    made = list(stream)
    assert len(stream) == len(made)
    assert list(stream) == made
    assert made == sorted(checker_verdicts(monkeypatch, which, config),
                          key=sort_key)


SMALL_RATIO_CAPS = [
    ("alpha-ratios", dict(alpha_n_max=3, last_l_max=3)),
    ("alpha-ratios", dict(alpha_n_max=11, last_l_max=11)),
    ("alpha-ratios", dict(alpha_n_max=2, last_l_max=2)),
    ("general-sr", dict(sr_max=1, sr_l_max=1)),
    ("general-sr", dict(sr_max=3, sr_l_max=11)),
    ("all", dict(alpha_n_max=7, last_l_max=5, sr_max=3, sr_l_max=9)),
]


@pytest.mark.parametrize("which, caps", SMALL_RATIO_CAPS,
                         ids=[f"{w}-{'-'.join(map(str, c.values()))}"
                              for w, c in SMALL_RATIO_CAPS])
def test_ratio_plans_at_small_caps(monkeypatch, which, caps):
    config = SweepConfig(**caps)
    stream = claims.run_claims(which, config)
    made = list(stream)
    assert len(stream) == len(made) and list(stream) == made
    assert made == sorted(checker_verdicts(monkeypatch, which, config),
                          key=sort_key)
    # the large-cap test's per-instance rows are the checkers' rows
    forms = {plan.form.claim: plan.form for plan in stream.plans}
    for name, rows, checked in (
            ("alpha-ratios", ratio_rows, per_instance_ratios),
            ("general-sr", general_sr_rows, per_instance_general_sr)):
        if which in (name, "all"):
            assert [forms[claim].verdict(row) for claim, row
                    in rows(config)] == list(checked(config))


def ratio_rows(config):
    """(claim, row) of the alpha-ratios claims, one instance at a time, as
    check_alpha_ratios and check_last_row_ratios make them."""
    for n in config.span("alpha_n_max"):
        half = n // 2
        for i in range(half + 1):
            for k in range(half):
                yield "lem13", lem13_row(n, k, i)
                if i < half:
                    yield "lem6", lem6_row(n, k, i)
    for l in config.span("last_l_max"):
        for k in range(1, l):
            yield "lem9", lem9_row(l, k)
            for r in range(1, k + 1):
                yield "cor10", cor10_row(l, k, r)
            yield "lem11", lem11_row(l, k)


def general_sr_rows(config):
    """(claim, row) of rem12, as check_general_sr makes them."""
    for s in config.span("sr_max"):
        for r in config.span("sr_max"):
            for l in config.span("sr_l_max"):
                da, db = sr_differences(l, s), sr_differences(l, r + s)
                for k in range(l):
                    yield "rem12", rem12_row(l, s, r, k, da, db)


@pytest.mark.parametrize("which, caps, route", [
    ("alpha-ratios", dict(alpha_n_max=100), ratio_rows),
    ("alpha-ratios", dict(last_l_max=100), ratio_rows),
    ("general-sr", dict(sr_max=6, sr_l_max=100), general_sr_rows),
], ids=["alpha-n-max-100", "l-max-100", "sr-max-6-sr-l-max-100"])
def test_ratio_plans_at_large_caps(which, caps, route):
    # too many verdicts to hold twice (up to 188,000), so rows, not
    # verdicts: the claims come in name order and each plan's keys, its
    # rows' params by str, strictly increase, so the stream is sorted with
    # no repeat; per claim it holds the rows the per-instance checkers
    # make, as many, with the same sum of fingerprints.  A key is the str
    # of the params tuple: with ints only, "," and ")" after each value
    # sort below its digits, so these strings order as the tuples of
    # each value's str do
    config = SweepConfig(**caps)
    stream = claims.run_claims(which, config)
    names = [plan.form.claim for plan in stream.plans]
    assert names == sorted(set(names))
    seen = {}
    for plan in stream.plans:
        width, last, count, total = len(plan.form.names), "", 0, 0
        for row in plan.rows():
            key = str(row[2][:width])
            assert key > last, (last, key)
            last, count, total = key, count + 1, total + hash(row)
        seen[plan.form.claim] = [count, total]
    assert sum(count for count, _ in seen.values()) == len(stream)
    made = {claim: [0, 0] for claim in seen}
    for claim, row in route(config):
        made[claim][0] += 1
        made[claim][1] += hash(row)
    assert made == seen


def test_verdicts_iterate_claims_in_name_order(monkeypatch):
    # run_claims merges the sweeps' plans by claim name, a claim name that
    # is a prefix of another included; plans of one claim keep their
    # sweep's order, as lem15-bij's published-examples row before its
    # (k, l) rows; Verdicts makes each plan's rows in turn
    def plan(claim, name, xs):  # rows that hold, asserted, with no witness
        return rows_plan(Form(claim, (name,), ""),
                         [(0b110, 0, (x,)) for x in xs])

    made = {"verify_two_row": [plan("lem15", "x", [2]), plan("c", "x", [1]),
                               plan("lem15", "y", [10])],
            "verify_hook": [plan("z", "x", [1]), plan("lem1", "x", [3, 4])],
            "verify_oracle": [plan("a", "x", [5]), plan("lem15-bij", "x", [])]}
    for name in dir(claims):
        if name.startswith("verify_"):
            monkeypatch.setattr(claims, name, lambda config, name=name:
                                claims.Verdicts(made.get(name, [])))
    stream = claims.run_claims("all", SweepConfig())
    assert [(v.claim, v.params) for v in stream] == [
        ("a", {"x": 5}), ("c", {"x": 1}), ("lem1", {"x": 3}),
        ("lem1", {"x": 4}), ("lem15", {"x": 2}), ("lem15", {"y": 10}),
        ("z", {"x": 1})]
    assert len(stream) == 7
    assert list(claims.Verdicts([])) == [] and len(claims.Verdicts([])) == 0


# (which, caps, deep, the (claim, detail) pairs the rows must reach):
# lem9 degenerate at l = 2 and refuted at each LEMMA9_ERRATA, broken cor10
# chains, the rem12 erratum and its zero s-side differences
ROUTE_CASES = [
    ("all", {}, False, set()),
    ("all", {}, True, set()),
    ("alpha-ratios", dict(alpha_n_max=3), False, set()),
    ("alpha-ratios", dict(alpha_n_max=11), False, set()),
    ("alpha-ratios", dict(last_l_max=2), False, {("lem9", 1), ("cor10", 2)}),
    ("alpha-ratios", dict(last_l_max=3), False,
     {("lem9", 1), ("lem9", 2), ("cor10", 2)}),
    ("alpha-ratios", dict(last_l_max=7), False,
     {("lem9", 1), ("lem9", 2), ("cor10", 2)}),
    ("general-sr", dict(sr_max=3, sr_l_max=4), False,
     {("rem12", 1), ("rem12", 2)}),
]


@pytest.mark.parametrize(
    "which, caps, deep, reached", ROUTE_CASES,
    ids=[f"{w}{'-deep' * d}" + "".join(f"-{k}-{v}" for k, v in c.items())
         for w, c, d, _ in ROUTE_CASES])
def test_plan_lines_are_the_verdicts_lines(which, caps, deep, reached):
    # a planned row's JSON line and CSV row, by its plan's writer for the
    # row's outcome and detail, are the tests' reference json_line and
    # csv_line of the verdict made from the same row; the whole stream
    # rendered from the plans is the reference stream of those verdicts,
    # with the same tally
    config = SweepConfig(**caps)
    stream = claims.run_claims(which, config.deepen() if deep else config)
    seen, made = set(), []
    lines = {"json": [], "csv": [reference_stream([], "csv")]}
    for plan in stream.plans:
        writers = {fmt: claims.writers(plan.form, fmt) for fmt in lines}
        for row in plan.rows():
            outcome, detail, values = row
            v = plan.form.verdict(row)
            assert outcome == v.holds << 2 | v.asserted << 1 | v.degenerate
            for fmt, line in (("json", json_line(v)), ("csv", csv_line(v))):
                assert writers[fmt][outcome][detail](values) == line
                lines[fmt].append(line)
            seen.add((plan.form.claim, detail))
            made.append(v)
    assert reached <= seen
    lines["json"].append(json.dumps({"summary": claims.summarize(made)},
                                    sort_keys=True) + "\n")
    for fmt, want in lines.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            tally = cli.render_verdicts(stream, fmt, None)
        assert out.getvalue() == "".join(want)
        assert claims.summary(tally) == claims.summarize(made)


@pytest.mark.parametrize("deep, want", [(False, pinned("verify all")),
                                        (True, pinned("verify all --deep"))])
def test_full_verification_script_writes_the_verify_all_stream(tmp_path, deep,
                                                               want):
    # verdicts.jsonl is the `qimm verify all` stream, and the per-claim
    # totals of summary.csv add up to its summary's total
    script = (Path(__file__).resolve().parent.parent / "scripts"
              / "run_full_verification.py")
    proc = subprocess.run([sys.executable, str(script), str(tmp_path),
                           *["--deep"] * deep],
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stream = (tmp_path / "verdicts.jsonl").read_bytes()
    assert hashlib.sha256(stream).hexdigest() == want
    total = json.loads(stream.splitlines()[-1])["summary"]["total"]
    with (tmp_path / "summary.csv").open(newline="") as fh:
        assert sum(int(row["total"]) for row in csv.DictReader(fh)) == total


def test_deep_paths_and_probability_streams_unchanged(capsys):
    for which in DEEP_STREAMS:
        assert main(["verify", which, "--deep", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == pinned(
            f"verify {which} --deep"), which


def count_listings(mp):
    """From here on, count the paths enumerate_paths lists, by class, and
    the calls to enumerate_two_row_syt, under "SYT"."""
    listed = Counter()
    list_paths = paths.enumerate_paths
    list_tableaux = paths.enumerate_two_row_syt

    def counted_paths(path_class, length, end_height):
        result = list_paths(path_class, length, end_height)
        listed[path_class] += len(result)
        return result

    def counted_tableaux(n, k):
        listed["SYT"] += 1
        return list_tableaux(n, k)

    for module in (paths, claims):
        mp.setattr(module, "enumerate_paths", counted_paths)
    mp.setattr(paths, "enumerate_two_row_syt", counted_tableaux)
    return listed


@pytest.fixture(scope="module")
def default_sweep():
    # one default sweep serves the digest, the cache and the listing checks
    restricted_count_histogram.cache_clear()
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        listed = count_listings(mp)
        status = main(["verify", "all"])
    return (status, out.getvalue(), restricted_count_histogram.cache_info(),
            listed)


def test_default_verify_all_stream_unchanged(default_sweep):
    status, out = default_sweep[:2]
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned("verify all")


def test_one_cache_entry_per_key_in_a_full_run(default_sweep):
    # the counting and probability sweeps share one histogram per (n, k)
    config = SweepConfig()
    info = default_sweep[2]
    keys = {(n, k)
            for n in range(2, max(config.count_n_max, config.prob_n_max) + 1)
            for k in range(n // 2 + 1)}
    assert info.misses == len(keys) and info.hits > 0
    # two-row characters are cached once, under both names
    assert characters._two_row_rec is characters.two_row_char


def test_histograms_list_no_path_or_tableau(default_sweep, monkeypatch):
    # lem16-bij's target, lem18-lem21 count their histograms by state
    # transfer: neither a default run nor the --deep probability sweep
    # lists an NLP path or calls enumerate_two_row_syt; the bijection
    # sweeps still list their GRP and UHD paths
    assert set(default_sweep[3]) == {"GRP", "UHD"}
    restricted_count_histogram.cache_clear()
    listed = count_listings(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "probability", "--deep"]) == 0
    assert not listed


def test_cap_flags_streams_unchanged(capsys):
    for argv in FLAG_SETS:
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == pinned(
            " ".join(("verify", *argv))), argv


def test_cap_flag_defaults_are_sweep_config_defaults(monkeypatch, capsys):
    # an untyped cap flag leaves no attribute, so SweepConfig holds the
    # only defaults; each typed flag sets exactly its own field
    args = build_parser().parse_args(["verify", "all"])
    assert not any(hasattr(args, f.name) for f in fields(SweepConfig))
    built = []
    monkeypatch.setattr(cli, "run_claims",
                        lambda which, sweep: built.append(sweep)
                        or claims.Verdicts([]))
    assert main(["verify", "all"]) == 0
    assert built.pop() == SweepConfig()
    flags = {"--n-max": "n_max", "--hook-n-max": "hook_n_max",
             "--oracle-n-max": "oracle_n_max",
             "--random-trees": "random_count", "--seed": "seed",
             "--alpha-n-max": "alpha_n_max", "--l-max": "last_l_max",
             "--sr-max": "sr_max", "--sr-l-max": "sr_l_max"}
    for flag, name in flags.items():
        value = getattr(SweepConfig(), name) + 1
        assert main(["verify", "all", flag, str(value)]) == 0
        sweep = built.pop()
        assert getattr(sweep, name) == value, flag
        changed = {f.name for f in fields(SweepConfig)
                   if getattr(sweep, f.name) != getattr(SweepConfig(), f.name)}
        assert changed == {name}, flag


def _spread(weights):
    # a deterministic number per weight table, to pick the trees that fail
    return sum(j * c for j, arr in enumerate(weights) for c in arr)


def failing_tree_sweeps(monkeypatch):
    """The thm2, thm1, oracle and a0-identity sweeps on a small config,
    with each per-tree check patched to fail on some trees: negative
    two-row and hook gaps, oracle mismatches, and a0, a<i> and
    reconstruction failures."""
    two_row_gaps, hook_margins = claims.two_row_gaps, claims.hook_margins
    oracle, a_coeffs = claims.oracle_equivalence_report, claims.a_coeff_arrays
    eq5 = claims.eq5_holds

    def gaps(n, weights):
        out = two_row_gaps(n, weights)
        return [[-1, *g] if (_spread(weights) + k) % 5 == 0 else g
                for k, g in enumerate(out, 1)]

    def margins(tree, grid):
        shift = sum(map(sum, tree.edges)) % 7
        return [(claim, k, gap - (shift * k if claim == "thm1-weak"
                                  else (shift == 3) * k * k), q)
                for claim, k, gap, q in hook_margins(tree, grid)]

    def oracle_report(tree):
        pick = tree.n + tree.edges[0][1]
        return [(shape, ok and (pick + len(shape)) % 4 > 0)
                for shape, ok in oracle(tree)]

    def a_arrays(weights):
        a = a_coeffs(weights)
        pick = _spread(weights) % 6
        if pick == 1:
            a[0], a[-1] = [1, 0], [-1]
        elif pick == 2 and len(a) > 1:
            a[-1] = [-3, *a[-1]]
        return a

    def eq5_ok(n, weights, a):
        return eq5(n, weights, a) and _spread(weights) % 4 != 3

    for name, fake in (("two_row_gaps", gaps), ("hook_margins", margins),
                       ("oracle_equivalence_report", oracle_report),
                       ("a_coeff_arrays", a_arrays), ("eq5_holds", eq5_ok)):
        monkeypatch.setattr(claims, name, fake)
    config = SweepConfig(n_max=7, exhaustive_tree_max=6, random_count=7,
                         seed=3, hook_n_max=6, oracle_n_max=5)
    # each sweep's verdicts in the order the digest was recorded in: per
    # n, thm1-weak before thm1-strong
    return [v for sweep in (claims.verify_two_row, claims.verify_hook,
                            claims.verify_oracle, claims.verify_a_coeffs)
            for v in sorted(sweep(config), key=lambda v: (
                v.params["n"], v.claim == "thm1-strong"))]


def test_failing_tree_sweeps_report_unchanged(monkeypatch):
    verdicts = failing_tree_sweeps(monkeypatch)
    failed = {v.claim for v in verdicts if not v.holds}
    assert failed == {"thm2", "thm1-weak", "thm1-strong",
                      "oracle-equivalence", "a0-identity"}
    details = " ".join(v.detail for v in verdicts)
    assert all(f" {w}" in details for w in ("a0", "a2", "reconstruction"))
    out = "".join(json.dumps(v.to_json(), sort_keys=True) + "\n"
                  for v in verdicts)
    assert hashlib.sha256(out.encode()).hexdigest() == pinned(
        "tests/test_claims.py::test_failing_tree_sweeps_report_unchanged")


def _steps_spread(path):
    # a deterministic number per path, to pick the paths that collide
    return sum(i * "UHD".index(s) for i, s in enumerate(path.steps, 1))


def failing_bijection_sweeps(monkeypatch):
    """The lem15-bij and lem16-bij sweeps with both forward maps patched
    to send some paths to the true image of the first path of their
    slice, so each image stays a valid path and nothing raises, and with
    one path dropped from some UHD and GRP listings."""
    callan_fwd, double_fwd = claims.callan_fwd, claims.riordan_double_fwd
    listing = claims.enumerate_paths

    def colliding(fwd, first):
        def fake(path):
            if (len(path) + path.end_height()) % 2 or _steps_spread(path) % 3:
                return fwd(path)
            return fwd(first(len(path), path.end_height()))
        return fake

    def first_callan(l, h):
        return next(p for p in paths.enumerate_paths("UHD", l, h)
                    if not p.is_grp())

    def first_grp(l, h):
        return paths.enumerate_paths("GRP", l, h)[0]

    def dropping(path_class, length, end_height):
        out = list(listing(path_class, length, end_height))
        if path_class != "NLP" and (length + end_height) % 3 == 0 and out:
            del out[length * end_height % len(out)]
        return out

    monkeypatch.setattr(claims, "callan_fwd",
                        colliding(callan_fwd, first_callan))
    monkeypatch.setattr(claims, "riordan_double_fwd",
                        colliding(double_fwd, first_grp))
    monkeypatch.setattr(claims, "enumerate_paths", dropping)
    config = SweepConfig(callan_l_max=6, double_l_max=7)
    # each sweep's verdicts in the order the digest was recorded in: the
    # published examples, then per l and k
    return [v for sweep in (claims.verify_callan, claims.verify_doubling)
            for v in sorted(sweep(config), key=lambda v: (
                "case" not in v.params, v.params.get("l"), v.params.get("k")))]


def test_failing_bijection_sweeps_report_unchanged(monkeypatch):
    verdicts = failing_bijection_sweeps(monkeypatch)
    failed = {v.claim for v in verdicts if not v.holds}
    assert failed == {"lem15-bij", "lem16-bij"}
    out = "".join(json.dumps(v.to_json(), sort_keys=True) + "\n"
                  for v in verdicts)
    assert hashlib.sha256(out.encode()).hexdigest() == pinned(
        "tests/test_claims.py::test_failing_bijection_sweeps_report_unchanged")


def test_doubling_image_outside_target_fails_the_verdict(monkeypatch,
                                                        capsys):
    # the first aligned DU pair of an image (a doubled H step) turned into
    # UD, an odd-height peak: the inverse refuses that image, which must
    # fail lem16-bij, not end the run with a usage error
    double_fwd = claims.riordan_double_fwd

    def stray(path):
        steps = double_fwd(path).steps
        t = next((t for t in range(0, len(steps), 2)
                  if steps[t:t + 2] == "DU"), None)
        if t is None:
            return double_fwd(path)
        return paths.LatticePath(steps[:t] + "UD" + steps[t + 2:])

    monkeypatch.setattr(claims, "riordan_double_fwd", stray)
    verdicts = claims.verify_doubling(SweepConfig(double_l_max=4))
    failed = [v for v in verdicts if not v.holds]
    assert failed and {v.claim for v in failed} == {"lem16-bij"}
    # a slice with no H step in any path is left as it was
    assert {"l": 2, "k": 2} not in [v.params for v in failed]
    assert main(["verify", "paths"]) == 1
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert any(r.get("claim") == "lem16-bij" and not r["holds"]
               for r in records)


def test_each_bijection_slice_listed_once(monkeypatch):
    # lem16-bij counts its target from the NLP histograms and maps each
    # path forward once; lem15-bij lists each UHD row once
    asked, mapped = Counter(), Counter()
    listing, double_fwd = claims.enumerate_paths, claims.riordan_double_fwd

    def counted(*key):
        asked[key] += 1
        return listing(*key)

    def double_counted(path):
        mapped[path] += 1
        return double_fwd(path)

    monkeypatch.setattr(claims, "enumerate_paths", counted)
    monkeypatch.setattr(claims, "riordan_double_fwd", double_counted)
    config = SweepConfig(callan_l_max=6, double_l_max=7)
    claims.verify_doubling(config)
    assert {key[0] for key in asked} == {"GRP"}
    grp = sum(len(listing(*key)) for key in asked)
    assert len(mapped) == grp and set(mapped.values()) == {1}
    asked.clear()
    claims.verify_callan(config)
    assert asked == Counter(("UHD", l, l - k) for l in config.span(
        "callan_l_max") for k in range(l + 1))


def _first_stars(n, what):
    # the failure details of the labeled walk when only the stars fail:
    # the first five stars in Pruefer order
    stars = [t for t in all_labeled_trees(n) if max(t.degrees()) == n - 1]
    return "; ".join(f"{t.label()} {what}" for t in stars[:5])


def test_class_walk_falls_back_to_labeled_trees(monkeypatch):
    # a failing class re-runs its n labeled: 6!/|Aut(star)| = 6 stars fail,
    # named as the labeled walk names them, the first five of them
    star = matching_weight_arrays(star_tree(6))
    two_row_gaps, a_coeffs = claims.two_row_gaps, claims.a_coeff_arrays
    bad_gap = [-1, *two_row_gaps(6, star)[0]]

    def gaps(n, weights):
        out = two_row_gaps(n, weights)
        return [bad_gap, *out[1:]] if weights == star else out

    def a_arrays(weights):
        a = a_coeffs(weights)
        if weights == star:
            a[0] = [1, 0]
        return a

    monkeypatch.setattr(claims, "two_row_gaps", gaps)
    monkeypatch.setattr(claims, "a_coeff_arrays", a_arrays)
    config = SweepConfig(n_max=6, oracle_n_max=6)
    thm2 = list(claims.verify_two_row(config))
    assert [(v.holds, v.witness) for v in thm2] == [
        (True, "125 trees, 0 violations"), (False, "1296 trees, 6 violations")]
    assert thm2[-1].detail == _first_stars(6, f"k=1: {bad_gap}")
    a0 = list(claims.verify_a_coeffs(config))
    assert [v.holds for v in a0] == [True] * 4 + [False]
    assert a0[-1].witness == "1296 trees"
    assert a0[-1].detail == _first_stars(6, "a0")


def test_thm2_memo_past_its_cap(monkeypatch):
    # each n keeps the failures of its first THM2_MEMO_MAX distinct c_j
    # arrays; arrays past the cap are checked afresh, and every sampled
    # tree reports its own failure either way.  The first class of n is
    # probed, fails and is memoized before the sample is walked
    calls = Counter()

    def gaps(n, weights):
        calls[n] += 1
        return [[-1]]

    monkeypatch.setattr(claims, "two_row_gaps", gaps)
    config = SweepConfig(n_max=8, exhaustive_tree_max=0, random_count=200)
    memoized = list(claims.verify_two_row(config))
    assert [v.witness for v in memoized] == \
        ["200 trees, 200 violations"] * len(config.span("n_max"))
    distinct = {tuple(map(tuple, matching_weight_arrays(t)))
                for t in random_trees(8, 200, config.seed)}
    probe = tuple(map(tuple, matching_weight_arrays(free_trees(8)[0][0])))
    assert calls[8] == len(distinct | {probe})
    calls.clear()
    monkeypatch.setattr(claims, "THM2_MEMO_MAX", 1)
    assert list(claims.verify_two_row(config)) == memoized
    assert calls[8] > len(distinct)


def test_each_exhaustive_tree_sweep_visits_classes(monkeypatch):
    # thm2 and a0-identity read one tree per isomorphism class, and so
    # does the random sample at n = 8 <= ALL_TREES_MAX_N while every
    # class holds: no sampled tree is read
    calls = Counter()
    weights = claims.matching_weight_arrays

    def counted(tree):
        calls[tree.n] += 1
        return weights(tree)

    monkeypatch.setattr(claims, "matching_weight_arrays", counted)
    config = SweepConfig()
    claims.verify_two_row(config)
    claims.verify_a_coeffs(config)
    assert calls == Counter(n for span in ("n_max", "oracle_n_max")
                            for n in config.span(span)
                            for _ in free_trees(n))


def _sampled_thm2_reference(n, count, seed, gaps):
    # (params, holds, witness, detail) of the sampled thm2 verdict at n,
    # from a walk over the seeded labeled trees themselves
    def check(tree):
        for k, gap in enumerate(gaps(n, matching_weight_arrays(tree)), 1):
            if any(c < 0 for c in gap):
                yield "thm2", f"k={k}: {gap}"

    checked, failures = claims._walk(random_trees(n, count, seed), check)
    fails = failures["thm2"]
    return ({"k": f"1..{n // 2}", "n": n,
             "trees": f"random:{count}:seed={seed}"}, not fails,
            f"{checked} trees, {len(fails)} violations", "; ".join(fails[:5]))


def _thm2_rows(config):
    return [(v.params, v.holds, v.witness, v.detail)
            for v in claims.verify_two_row(config)]


@pytest.mark.parametrize("count", [1, 7, 1000])
def test_sampled_thm2_rows_match_the_sample_walk(count):
    # a sampled n <= ALL_TREES_MAX_N is covered by its classes, and its
    # row reads as the walk over the sampled labeled trees does
    for seed in range(5):
        config = SweepConfig(n_max=9, exhaustive_tree_max=7,
                             random_count=count, seed=seed)
        assert _thm2_rows(config)[-2:] == [_sampled_thm2_reference(
            n, count, seed, claims.two_row_gaps) for n in (8, 9)]


def test_sampled_thm2_failing_class_walks_the_sample(monkeypatch):
    # with the stars patched to fail, each sampled n falls back to its
    # sample and names the sampled stars as the labeled walk names them
    two_row_gaps = claims.two_row_gaps
    stars = {n: matching_weight_arrays(star_tree(n)) for n in range(5, 9)}

    def gaps(n, weights):
        out = two_row_gaps(n, weights)
        return [[-1, *out[0]], *out[1:]] if weights == stars[n] else out

    monkeypatch.setattr(claims, "two_row_gaps", gaps)
    config = SweepConfig(n_max=8, exhaustive_tree_max=4, seed=3)
    rows = _thm2_rows(config)
    assert rows == [_sampled_thm2_reference(n, config.random_count, 3, gaps)
                    for n in config.span("n_max")]
    assert not rows[0][1]  # n = 5: stars are 1 in 25 labeled trees


def test_default_two_row_decodes_no_tree(monkeypatch):
    # the default sample at n = 8 is covered by the 23 classes of n = 8,
    # so no Pruefer sequence is decoded
    def decode(seq, n):
        raise AssertionError(f"a tree on {n} vertices was decoded")

    monkeypatch.setattr(trees, "pruefer_decode", decode)
    assert [v.witness for v in claims.verify_two_row(SweepConfig())][-1] \
        == "1000 trees, 0 violations"


def test_oracle_sweep_visits_classes(monkeypatch):
    # oracle-equivalence runs once per isomorphism class: 13 calls for
    # n = 2..6, where a labeled walk makes 1,441; each class still counts
    # its labeled trees
    calls = Counter()
    report = claims.oracle_equivalence_report

    def counted(tree):
        calls[tree.n] += 1
        return report(tree)

    monkeypatch.setattr(claims, "oracle_equivalence_report", counted)
    config = SweepConfig()
    verdicts = claims.verify_oracle(config)
    assert sum(calls.values()) <= 13
    assert calls == {n: len(free_trees(n)) for n in config.span("oracle_n_max")}
    assert [(v.holds, v.witness) for v in verdicts] == [
        (True, f"{n ** (n - 2)} trees") for n in config.span("oracle_n_max")]


def _labeled_hook_reference(n, margins):
    # (claim, holds, witness, detail) of the Theorem 1 verdicts for n, from
    # one walk over every labeled tree in Pruefer order: the witness is a
    # strict-< running minimum, the detail the first five negative gaps
    grid = claims.default_q_grid()
    worst, fails = {}, defaultdict(list)
    for checked, tree in enumerate(all_labeled_trees(n), 1):
        for claim, k, gap, q in margins(tree, grid):
            if claim not in worst or gap < worst[claim][0]:
                worst[claim] = (gap, tree, k)
            if gap < 0:
                fails[claim].append(
                    f"{tree.label()} k={k}: negative gap {gap} at q={q}")
    return [(claim, not fails[claim],
             f"{checked} trees; min gap {gap} ({tree.label()}, k={k})",
             "; ".join(fails[claim][:5]))
            for claim, (gap, tree, k) in worst.items()]


def test_hook_sweep_visits_classes(monkeypatch):
    # thm1 reads one tree per isomorphism class, then labeled trees in
    # Pruefer order only up to the last witness it names
    calls = []
    margins = claims.hook_margins

    def counted(tree, grid):
        calls.append(tree)
        return margins(tree, grid)

    monkeypatch.setattr(claims, "hook_margins", counted)
    config = SweepConfig()
    verdicts = claims.verify_hook(config)
    read = 0
    for n in config.span("hook_n_max"):
        labels = [t.label() for t in all_labeled_trees(n)]
        read += max(labels.index(re.search(r"\((\S+), k=", v.witness)[1]) + 1
                    for v in verdicts if v.params["n"] == n)
    classes = sum(len(free_trees(n)) for n in config.span("hook_n_max"))
    assert len(calls) <= classes + read


@pytest.mark.parametrize("case", ["stars-fail-at-6", "paths-lowest"])
def test_hook_witness_matches_labeled_walk(monkeypatch, case):
    # stars-fail-at-6: only the star class at n = 6 has a negative gap (at
    # k = 2), so n = 6 falls back to its labeled trees; paths-lowest: every
    # gap off the path class, and every gap at k = 2, is raised by 1, so
    # the minimum sits on paths at k = 3
    margins = claims.hook_margins

    def shifted(tree, grid):
        degree = max(tree.degrees())

        def shift(k):
            if case == "stars-fail-at-6":
                return -(tree.n == 6 and degree == 5 and k == 2)
            return (degree > 2) + (k == 2)

        return [(claim, k, gap + shift(k), q)
                for claim, k, gap, q in margins(tree, grid)]

    monkeypatch.setattr(claims, "hook_margins", shifted)
    config = SweepConfig()
    verdicts = claims.verify_hook(config)
    # in key order: per claim, then n
    assert [(v.claim, v.holds, v.witness, v.detail) for v in verdicts] == \
        sorted((row for n in config.span("hook_n_max")
                for row in _labeled_hook_reference(n, shifted)),
               key=itemgetter(0))
    for v in verdicts:
        n = v.params["n"]
        named = [fail.split()[0] for fail in v.detail.split("; ") if fail]
        if case == "stars-fail-at-6":
            assert v.holds == (n != 6)
            assert named == ([t.label() for t in all_labeled_trees(6)
                              if max(t.degrees()) == 5][:5] if n == 6 else [])
        else:
            path = next(t for t in all_labeled_trees(n)
                        if max(t.degrees()) == 2)
            assert f"({path.label()}, k=3)" in v.witness


@given(st.lists(st.builds(
    InequalityVerdict, claim=st.just("lem9"), params=st.just({}),
    holds=st.booleans(), degenerate=st.booleans(), asserted=st.booleans()),
    max_size=20))
@example([InequalityVerdict("lem9", {}, holds, degenerate, asserted)
          for holds, degenerate, asserted in product((False, True),
                                                      repeat=3)])
def test_summarize_counts_as_defined(verdicts):
    passed = sum(1 for v in verdicts if v.holds and v.asserted)
    failed = sum(
        1 for v in verdicts if not v.holds and v.asserted and not v.degenerate
    )
    degenerate = sum(1 for v in verdicts if v.degenerate)
    reported = sum(
        1 for v in verdicts if not v.holds and not v.asserted
    )
    assert claims.summarize(verdicts) == {
        "total": len(verdicts),
        "passed_asserted": passed,
        "failed_asserted": failed,
        "degenerate": degenerate,
        "violations_reported_unasserted": reported,
        "all_ok": failed == 0,
    }
