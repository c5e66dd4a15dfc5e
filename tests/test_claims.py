import hashlib
from dataclasses import fields

from qimm import characters
from qimm.claims import SweepConfig, run_claims
from qimm.cli import build_parser, main
from qimm.paths import restricted_count_histogram

# SHA-256 of stdout of `python -m qimm.cli verify <which> --deep --format
# json`, recorded before the probability sweep read every i from one
# histogram per (n, k); the verdict stream must not change.
GOLDEN_DEEP = {
    "paths":
        "3c90a5ff0c4cf4b5498c9a37b1eeb0e5cdbfbae8d22446f95728417828d5aded",
    "probability":
        "bfdfe514af8c2af1b9616813e2ab3988cfc13d4d3819ffa995b4251591f4b4c2",
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
        conv_l_max=c.conv_l_max,
        riordan_l_max=c.riordan_l_max,
    )


def test_deepen_field_by_field():
    custom = SweepConfig(
        n_max=5, exhaustive_tree_max=7, hook_n_max=3, oracle_n_max=6,
        random_count=7, seed=11, alpha_n_max=9, last_l_max=10, sr_l_max=4,
        sr_max=2, callan_l_max=3, double_l_max=2, count_n_max=6,
        prob_n_max=5, conv_l_max=3, riordan_l_max=4,
    )
    for config in (SweepConfig(), custom):
        got, want = config.deepen(), explicit_deepen(config)
        for f in fields(SweepConfig):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert custom.deepen().n_max == 8
    assert SweepConfig().deepen().exhaustive_tree_max == 8


def test_deep_paths_and_probability_streams_unchanged(capsys):
    for which, want in GOLDEN_DEEP.items():
        assert main(["verify", which, "--deep", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, which


def test_cap_flags_streams_unchanged(capsys):
    for argv, want in GOLDEN_FLAGS.items():
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


def test_cap_flag_defaults_are_sweep_config_defaults():
    args = build_parser().parse_args(["verify", "all"])
    flagged = {f.name for f in fields(SweepConfig) if hasattr(args, f.name)}
    assert flagged == {
        "n_max", "hook_n_max", "oracle_n_max", "random_count", "seed",
        "alpha_n_max", "last_l_max", "sr_max", "sr_l_max",
    }
    for name in flagged:
        assert getattr(args, name) == getattr(SweepConfig(), name), name


def test_one_cache_entry_per_key_in_a_full_run():
    # the counting and probability sweeps share one histogram per (n, k)
    restricted_count_histogram.cache_clear()
    config = SweepConfig()
    run_claims("all", config)
    info = restricted_count_histogram.cache_info()
    keys = {(n, k)
            for n in range(2, max(config.count_n_max, config.prob_n_max) + 1)
            for k in range(n // 2 + 1)}
    assert info.misses == len(keys) and info.hits > 0
    # two-row characters are cached once, under both names
    assert characters._two_row_rec is characters.two_row_char
