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
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from qimm import characters, claims, cli, paths
from qimm.claims import SweepConfig
from qimm.immanants import (
    InequalityVerdict,
    check_alpha_ratios,
    check_general_sr,
    check_last_row_ratios,
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

# SHA-256 of stdout of `python -m qimm.cli verify <which> --deep --format
# json`, recorded before the probability sweep read every i from one
# histogram per (n, k), and, for two-row (exhaustive up to n = 8) and hook
# (exhaustive up to n = 7), before those sweeps visited one tree per
# isomorphism class; the verdict stream must not change.
GOLDEN_DEEP = {
    "paths":
        "3c90a5ff0c4cf4b5498c9a37b1eeb0e5cdbfbae8d22446f95728417828d5aded",
    "probability":
        "bfdfe514af8c2af1b9616813e2ab3988cfc13d4d3819ffa995b4251591f4b4c2",
    "two-row":
        "e8c09c24f5f8e0432befd79b25342b0b6d8637c4da05e4a0a10deca77e905094",
    "hook":
        "fc8210cf395f3d47c332cd64560c777b2c4413305bfd386c203bad81631532fe",
}

# SHA-256 of stdout of `python -m qimm.cli verify ...` for two flag sets,
# recorded before the cap flags took their destinations and defaults from
# SweepConfig.  The second pins exhaustive_tree_max = min(7, n_max) under
# --deep.
GOLDEN_FLAGS = {
    ("all", "--n-max", "6", "--hook-n-max", "5", "--oracle-n-max", "5",
     "--random-trees", "3", "--seed", "4", "--alpha-n-max", "12",
     "--l-max", "10", "--sr-max", "2", "--sr-l-max", "5"):
        "9a9c06e6ddd854d02ebac03ba52e3709ee41559a1588fc79aeca052c7dcd2fb0",
    ("two-row", "--deep", "--n-max", "5", "--random-trees", "2",
     "--seed", "3"):
        "32ea16322576a0b19a39af413e53c3fe874b40a43c92e2903b40afff901eeb65",
}


# SHA-256 of stdout of `python -m qimm.cli verify all` at default flags,
# recorded before the paths module computed each path's heights in the
# pass that checks its steps.
GOLDEN_DEFAULT = (
    "3df2a954fd22a1f7b59b799805ceeb2b43864dfadd09839754ea4fb471708380")

# SHA-256 of stdout of `python -m qimm.cli verify all --deep`, the stream
# CI pins as the deep verdict stream.
GOLDEN_DEEP_ALL = (
    "9a9d826171097b3370e5cff910225040aa96b18c0e1b17f0b728489a582cba3b")


# SHA-256 of the JSON lines of the four labeled-tree sweeps with every
# per-tree check forced to fail on some trees (see `failing_tree_sweeps`),
# recorded before the four sweeps shared one walk.
GOLDEN_FORCED_FAILURES = (
    "60a4ea9df21758b894c53f570d8dd074f73899dd8d87deff028bb14a8874e6dc")


# SHA-256 of the JSON lines of the lem15-bij and lem16-bij sweeps with
# colliding forward maps and shortened listings (see
# `failing_bijection_sweeps`), recorded before each sweep read every path
# class from one listing.
GOLDEN_BIJECTION_FAILURES = (
    "166af7d0bb5fe7cc17fb168ad1a359b791b803b501abdab51992c3fe73dde2b6")


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
    # the sampled thm2 sweep, random_count trees for each n past the
    # exhaustive cap, is bounded by its modelled cost: at n_max = 40,
    # 415 trees (416 when --deep makes n = 8 exhaustive)
    assert SweepConfig(n_max=40, random_count=415).random_count == 415
    with pytest.raises(ValueError, match="random_count = 416 is above its "
                                         "cap 415 at n_max = 40"):
        SweepConfig(n_max=40, random_count=416)
    assert SweepConfig(n_max=40, random_count=83).deepen().random_count == 415
    with pytest.raises(ValueError, match="random_count = 420 is above its "
                                         "cap 416 at n_max = 40"):
        SweepConfig(n_max=40, random_count=84).deepen()
    # the random_count cap itself stays accepted at the default n_max
    assert SweepConfig(random_count=claims.RANDOM_TREES_MAX).random_count \
        == claims.RANDOM_TREES_MAX
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
                                or [])
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


def eager_ratio_sweeps(monkeypatch):
    """run_claims with every ratio verdict made up front, as a list."""
    monkeypatch.setattr(claims, "verify_alpha_ratios",
                        lambda config: list(per_instance_ratios(config)))
    monkeypatch.setattr(claims, "verify_general_sr",
                        lambda config: list(per_instance_general_sr(config)))


@pytest.mark.parametrize("deep", [False, True], ids=["default", "deep"])
@pytest.mark.parametrize("which", claims.VERIFY_NAMES)
def test_run_claims_streams_the_sorted_verdicts(monkeypatch, which, deep):
    # the ratio claims are made as the sequence is iterated, in the order
    # a full sort by _sort_key gives the verdicts made up front; its len()
    # is the count it yields, and a second pass makes the same verdicts
    config = SweepConfig().deepen() if deep else SweepConfig()
    stream = claims.run_claims(which, config)
    made = list(stream)
    assert len(stream) == len(made)
    assert list(stream) == made
    eager_ratio_sweeps(monkeypatch)
    assert made == sorted(claims.run_claims(which, config),
                          key=claims._sort_key)


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
    eager_ratio_sweeps(monkeypatch)
    assert made == sorted(claims.run_claims(which, config),
                          key=claims._sort_key)


def _fingerprint(v):
    return hash((v.claim, tuple(sorted(v.params.items())), v.holds,
                 v.degenerate, v.asserted, v.witness, v.detail))


@pytest.mark.parametrize("which, caps, route", [
    ("alpha-ratios", dict(alpha_n_max=100), per_instance_ratios),
    ("alpha-ratios", dict(last_l_max=150), per_instance_ratios),
    ("general-sr", dict(sr_max=6, sr_l_max=100), per_instance_general_sr),
], ids=["alpha-n-max-100", "l-max-150", "sr-max-6-sr-l-max-100"])
def test_ratio_plans_at_large_caps(which, caps, route):
    # too many verdicts to hold twice (up to 570,000): the stream's keys
    # strictly increase, so it is sorted with no repeat, and it holds the
    # per-instance checkers' verdicts, as many, with the same sum of
    # fingerprints
    config = SweepConfig(**caps)
    stream = claims.run_claims(which, config)
    count, total, last = 0, 0, ""
    for v in stream:
        key = claims._sort_key(v)
        assert key > last, (last, key)
        count, total, last = count + 1, total + _fingerprint(v), key
    assert count == len(stream)
    made = [0, 0]
    for v in route(config):
        made[0] += 1
        made[1] += _fingerprint(v)
    assert made == [count, total]


def test_verdicts_iterate_claims_in_name_order():
    # eager verdicts and plans of claims that sort before, between and
    # after them, a claim name that is a prefix of another included
    def verdict(claim, x):
        return InequalityVerdict(claim=claim, params={"x": x}, holds=True)

    def plan(claim, xs):
        return claims._Plan(claim, len(xs),
                            lambda: (verdict(claim, x) for x in xs))

    stream = claims.Verdicts(
        [verdict("lem15", 2), verdict("c", 1), verdict("lem15", 10)],
        [plan("z", [1]), plan("lem1", [3, 4]), plan("a", [5]),
         plan("lem15-bij", [])])
    assert [(v.claim, v.params["x"]) for v in stream] == [
        ("a", 5), ("c", 1), ("lem1", 3), ("lem1", 4), ("lem15", 10),
        ("lem15", 2), ("z", 1)]
    assert len(stream) == 7
    assert list(claims.Verdicts()) == [] and len(claims.Verdicts()) == 0


@pytest.mark.parametrize("deep, want", [(False, GOLDEN_DEFAULT),
                                        (True, GOLDEN_DEEP_ALL)])
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
    for which, want in GOLDEN_DEEP.items():
        assert main(["verify", which, "--deep", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, which


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
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DEFAULT


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
    for argv, want in GOLDEN_FLAGS.items():
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


def test_cap_flag_defaults_are_sweep_config_defaults(monkeypatch, capsys):
    # an untyped cap flag leaves no attribute, so SweepConfig holds the
    # only defaults; each typed flag sets exactly its own field
    args = build_parser().parse_args(["verify", "all"])
    assert not any(hasattr(args, f.name) for f in fields(SweepConfig))
    built = []
    monkeypatch.setattr(cli, "run_claims",
                        lambda which, sweep: built.append(sweep) or [])
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
    return [v for sweep in (claims.verify_two_row, claims.verify_hook,
                            claims.verify_oracle, claims.verify_a_coeffs)
            for v in sweep(config)]


def test_failing_tree_sweeps_report_unchanged(monkeypatch):
    verdicts = failing_tree_sweeps(monkeypatch)
    failed = {v.claim for v in verdicts if not v.holds}
    assert failed == {"thm2", "thm1-weak", "thm1-strong",
                      "oracle-equivalence", "a0-identity"}
    details = " ".join(v.detail for v in verdicts)
    assert all(f" {w}" in details for w in ("a0", "a2", "reconstruction"))
    out = "".join(json.dumps(v.to_json(), sort_keys=True) + "\n"
                  for v in verdicts)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FORCED_FAILURES


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
    return claims.verify_callan(config) + claims.verify_doubling(config)


def test_failing_bijection_sweeps_report_unchanged(monkeypatch):
    verdicts = failing_bijection_sweeps(monkeypatch)
    failed = {v.claim for v in verdicts if not v.holds}
    assert failed == {"lem15-bij", "lem16-bij"}
    out = "".join(json.dumps(v.to_json(), sort_keys=True) + "\n"
                  for v in verdicts)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_BIJECTION_FAILURES


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
    # a failing class re-runs its n labeled: 7!/|Aut(star)| = 7 stars fail,
    # named as the labeled walk names them
    star = matching_weight_arrays(star_tree(7))
    two_row_gaps, a_coeffs = claims.two_row_gaps, claims.a_coeff_arrays
    bad_gap = [-1, *two_row_gaps(7, star)[0]]

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
    config = SweepConfig(n_max=7, oracle_n_max=7)
    thm2 = claims.verify_two_row(config)
    assert [(v.holds, v.witness) for v in thm2] == [
        (True, "125 trees, 0 violations"), (True, "1296 trees, 0 violations"),
        (False, "16807 trees, 7 violations")]
    assert thm2[-1].detail == _first_stars(7, f"k=1: {bad_gap}")
    a0 = claims.verify_a_coeffs(config)
    assert [v.holds for v in a0] == [True] * 5 + [False]
    assert a0[-1].witness == "16807 trees"
    assert a0[-1].detail == _first_stars(7, "a0")


def test_thm2_memo_past_its_cap(monkeypatch):
    # each n keeps the failures of its first THM2_MEMO_MAX distinct c_j
    # arrays; arrays past the cap are checked afresh, and every sampled
    # tree reports its own failure either way
    calls = Counter()

    def gaps(n, weights):
        calls[n] += 1
        return [[-1]]

    monkeypatch.setattr(claims, "two_row_gaps", gaps)
    config = SweepConfig(n_max=8, exhaustive_tree_max=0, random_count=200)
    memoized = claims.verify_two_row(config)
    assert [v.witness for v in memoized] == \
        ["200 trees, 200 violations"] * len(config.span("n_max"))
    distinct = {tuple(map(tuple, matching_weight_arrays(t)))
                for t in random_trees(8, 200, config.seed)}
    assert calls[8] == len(distinct)
    calls.clear()
    monkeypatch.setattr(claims, "THM2_MEMO_MAX", 1)
    assert claims.verify_two_row(config) == memoized
    assert calls[8] > len(distinct)


def test_each_exhaustive_tree_sweep_visits_classes(monkeypatch):
    # thm2 and a0-identity read one tree per isomorphism class; only the
    # random sample above the exhaustive cap is labeled
    calls = Counter()
    weights = claims.matching_weight_arrays

    def counted(tree):
        calls[tree.n] += 1
        return weights(tree)

    monkeypatch.setattr(claims, "matching_weight_arrays", counted)
    config = SweepConfig()
    claims.verify_two_row(config)
    claims.verify_a_coeffs(config)
    exhaustive = range(claims.SWEEP_START["n_max"],
                       config.exhaustive_tree_max + 1)
    classes = sum(len(free_trees(n)) for n in (*exhaustive,
                                               *config.span("oracle_n_max")))
    assert sum(calls.values()) <= classes + config.random_count


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
    assert [(v.claim, v.holds, v.witness, v.detail) for v in verdicts] == [
        row for n in config.span("hook_n_max")
        for row in _labeled_hook_reference(n, shifted)]
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


# text without NUL, often from a few low characters so that prefixes and
# ties are common; ints negative or of many digits
_KEY_TEXT = st.one_of(st.text("ab\x01", max_size=3),
                      st.text(st.characters(blacklist_characters="\0"),
                              max_size=5))
_VALUES = st.one_of(st.integers(-20, 20), st.integers(-10**40, 10**40),
                    _KEY_TEXT)


def _verdicts(*params):
    return [InequalityVerdict(claim=claim, params=p, holds=True)
            for claim in ("lem9", "%s") for p in params]


@given(st.lists(st.builds(
    InequalityVerdict, claim=_KEY_TEXT,
    params=st.dictionaries(_KEY_TEXT, _VALUES, max_size=4),
    holds=st.booleans()), max_size=12))
# the names and param counts a %-template of the key can get wrong
@example(_verdicts({"50%": 1}, {"%s": "%d", "n": 2}, {"%": "%%"}))
@example(_verdicts({}, {"n": 3}, {"n": "3"}, {"k": (1, 2)}))
def test_sort_key_orders_as_the_tuple_key(verdicts):
    def tuple_key(v):
        return (v.claim, sorted((k, str(val)) for k, val in v.params.items()))

    for v in verdicts:
        assert claims._sort_key(v) == "\0".join(
            [v.claim, *(f"{k}\0{v.params[k]!s}" for k in sorted(v.params))])
    by_tuple = sorted(verdicts, key=tuple_key)
    by_string = sorted(verdicts, key=claims._sort_key)
    assert [id(v) for v in by_string] == [id(v) for v in by_tuple]


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
