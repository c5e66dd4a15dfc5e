import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from qimm import claims, cli, immanants
from qimm.immanants import Form, InequalityVerdict, check_two_row_chain
from qimm.characters import partitions
from qimm.cli import Q_GRID_MAX_POINTS, main, parse_q_grid, parse_tree_spec
from qimm.trees import Tree, all_labeled_trees, path_tree, star_tree
from check_streams import pinned
from verdict_reference import as_plans
from verdict_reference import plan as rows_plan
from verdict_reference import stream as reference_stream

# the families of edge_argvs whose stdout, concatenated in order, each
# have a digest in tests/streams.json
EDGE_FAMILIES = [(command, tree) for command in ("immanant", "a-coeffs")
                 for tree in ("path:6", "star:6", "pruefer:2,2,3,3")]


def edge_argvs(command, tree):
    """a-coeffs in both formats; immanant for every shape of 6, plain and
    normalized, by both algorithms, in both formats."""
    if command == "a-coeffs":
        for fmt in ("text", "json"):
            yield ("a-coeffs", "--tree", tree, "--format", fmt)
        return
    for shape in partitions(6):
        for normalized in ((), ("--normalized",)):
            for algorithm in ("matching", "bruteforce"):
                for fmt in ("text", "json"):
                    yield ("immanant", "--tree", tree,
                           "--shape", ",".join(map(str, shape)), *normalized,
                           "--algorithm", algorithm, "--format", fmt)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tree_spec_parsing(tmp_path):
    assert parse_tree_spec("path:4") == path_tree(4)
    assert parse_tree_spec("star:5") == star_tree(5)
    assert parse_tree_spec("pruefer:1,1") == star_tree(4)
    f = tmp_path / "t.txt"
    f.write_text("3\n1 2\n2 3\n")
    assert parse_tree_spec(f"file:{f}") == path_tree(3)
    with pytest.raises(ValueError):
        parse_tree_spec("ring:4")


def test_tree_labels_read_back():
    # a verdict names its tree by label(); every label parses to that tree
    for n in range(2, 7):
        for tree in all_labeled_trees(n):
            assert parse_tree_spec(tree.label()) == tree
    assert path_tree(2).label() == "pruefer:@n=2"
    one = Tree(1, ())
    assert one.label() == "n1" and parse_tree_spec("n1") == one


def test_tree_label_with_wrong_n_is_a_usage_error(capsys):
    code, out, _ = run_cli(capsys, "verify", "two-row", "--tree",
                           "pruefer:1,1@n=4")
    assert code == 0 and json.loads(out.splitlines()[-1])["summary"]["all_ok"]
    for spec in ("pruefer:1,1@n=5", "pruefer:1,1@n=3", "pruefer:@n=1"):
        assert_usage_error(*run_cli(capsys, "verify", "two-row", "--tree",
                                    spec))


def test_verify_tree_needs_two_vertices(capsys, tmp_path):
    # a one-vertex tree has no chain to check: refused, not an empty pass
    f = tmp_path / "one.txt"
    f.write_text("1\n")
    for spec in (f"file:{f}", "n1"):
        for which in ("two-row", "hook"):
            code, out, err = run_cli(capsys, "verify", which, "--tree", spec)
            assert_usage_error(code, out, err)
            assert "--tree" in err and "2 vertices" in err
    code, out, _ = run_cli(capsys, "a-coeffs", "--tree", f"file:{f}",
                           "--format", "json")
    assert code == 0 and json.loads(out)["tree"] == "n1"


def test_q_grid_parsing():
    grid = parse_q_grid("-1:1:1/2")
    assert [str(q) for q in grid] == ["-1", "-1/2", "0", "1/2", "1"]
    with pytest.raises(ValueError):
        parse_q_grid("1:0:1")
    for spec in ("1/0:1:1", "0:1:1/0", "a:1:1"):
        with pytest.raises(ValueError, match="bad grid"):
            parse_q_grid(spec)


def assert_usage_error(code, out, err):
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


def test_q_grid_point_cap(capsys):
    # counted before building: cap + 1 points fails, the cap itself passes
    assert len(parse_q_grid(f"1:{Q_GRID_MAX_POINTS}:1")) == Q_GRID_MAX_POINTS
    with pytest.raises(ValueError, match="capped"):
        parse_q_grid(f"0:{Q_GRID_MAX_POINTS}:1")
    # 10^9 points: rejected by arithmetic, never built
    code, out, err = run_cli(
        capsys, "verify", "hook", "--tree", "path:5",
        "--q-grid", "0:1000000:1/1000",
    )
    assert_usage_error(code, out, err)
    assert "capped" in err


def test_empty_q_grid_is_a_bad_grid(capsys):
    # parsed like any other grid, not taken as the default one
    code, out, err = run_cli(
        capsys, "verify", "hook", "--tree", "path:3", "--q-grid", "")
    assert_usage_error(code, out, err)
    assert err.startswith("error: bad grid ''")


def test_q_grid_rejected_outside_single_tree_hook(capsys):
    for argv in (
        ("verify", "hook", "--hook-n-max", "5", "--q-grid", "0:1:1"),
        ("verify", "two-row", "--tree", "path:5", "--q-grid", "0:1:1"),
        ("verify", "all", "--q-grid", "0:1:1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert_usage_error(code, out, err)
        assert "--q-grid" in err


def test_alpha_table_csv(capsys):
    code, out, _ = run_cli(capsys, "alpha-table", "6", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["i\\k", "0", "1", "2", "3"]
    assert rows[1][1:] == ["1", "5", "9", "5"]
    assert rows[4][1:] == ["1", "2", "3", "1"]


def test_alpha_table_json(capsys):
    code, out, _ = run_cli(capsys, "alpha-table", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["entries"][4] == ["1", "3", "6", "6", "3"]


def test_last_table_text(capsys):
    code, out, _ = run_cli(capsys, "last-table", "9")
    assert code == 0
    assert "603" in out and "232" in out


def test_char_command(capsys):
    code, out, _ = run_cli(capsys, "char", "2,2", "2,2")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "char", "1,1,1", "3", "--format", "json")
    assert json.loads(out)["value"] == "1"


def test_csv_rejected_where_no_csv_output(capsys):
    # char, immanant and a-coeffs print text or JSON only; csv exits 2
    for argv in (("char", "2,2", "2,2"),
                 ("immanant", "--tree", "path:4", "--shape", "3,1"),
                 ("a-coeffs", "--tree", "path:4")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err
    for argv in (("alpha-table", "4"), ("last-table", "3")):
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and "," in out


# every subcommand but verify, in each format it takes
EMIT_ARGV = [(argv, fmt) for argv, formats in (
    (("alpha-table", "6"), ("text", "csv", "json")),
    (("last-table", "5"), ("text", "csv", "json")),
    (("char", "2,2", "2,2"), ("text", "json")),
    (("immanant", "--tree", "path:4", "--shape", "3,1"), ("text", "json")),
    (("a-coeffs", "--tree", "path:4"), ("text", "json")),
) for fmt in formats]


@pytest.mark.parametrize("argv, fmt", EMIT_ARGV,
                         ids=[f"{argv[0]} {fmt}" for argv, fmt in EMIT_ARGV])
def test_out_file_gets_the_bytes_stdout_gets(capsysbinary, tmp_path, argv,
                                             fmt):
    assert main([*argv, "--format", fmt]) == 0
    out = capsysbinary.readouterr().out
    target = tmp_path / "out"
    assert main([*argv, "--format", fmt, "--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == out and out.endswith(b"\n")


# every subcommand that prints, verify in both of its formats
WRITER_ARGV = [[*argv, "--format", fmt] for argv, fmt in EMIT_ARGV] + [
    ["verify", "identities", "--format", "json"],
    ["verify", "identities", "--format", "csv"],
    ["verify", "two-row", "--tree", "path:8"],
]


@pytest.mark.parametrize("argv", WRITER_ARGV,
                         ids=[" ".join(argv) for argv in WRITER_ARGV])
def test_every_byte_goes_through_one_writer(capsysbinary, monkeypatch, argv):
    # stdout gets only what cli._write was handed, in pieces no longer
    # than _EMIT_CHUNK; the chunk is lowered to 256 characters, above
    # every line of these streams but below each whole table and verdict
    # stream, so a renderer that hands a whole text over as one piece
    # fails here
    pieces = []
    write = cli._write

    def recorder(lines, out):
        lines = list(lines)
        pieces.extend(lines)
        write(lines, out)

    monkeypatch.setattr(cli, "_write", recorder)
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 256)
    assert main(argv) == 0
    assert "".join(pieces).encode() == capsysbinary.readouterr().out
    assert max(map(len, pieces)) <= cli._EMIT_CHUNK


def test_immanant_command_matches_published_form(capsys):
    code, out, _ = run_cli(
        capsys, "immanant", "--tree", "path:4", "--shape", "3,1",
        "--normalized",
    )
    assert code == 0
    assert out.strip() == "1 + 3q^2 + 4/3 q^4"


def test_immanant_bruteforce_agrees(capsys):
    _, matching, _ = run_cli(
        capsys, "immanant", "--tree", "star:5", "--shape", "3,2",
        "--normalized", "--format", "json",
    )
    _, brute, _ = run_cli(
        capsys, "immanant", "--tree", "star:5", "--shape", "3,2",
        "--normalized", "--algorithm", "bruteforce", "--format", "json",
    )
    assert json.loads(matching)["coeffs"] == json.loads(brute)["coeffs"]


def test_immanant_and_a_coeffs_output_unchanged(capsys):
    for command, tree in EDGE_FAMILIES:
        digest = hashlib.sha256()
        for argv in edge_argvs(command, tree):
            assert main(list(argv)) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == pinned(
            "tests/test_cli.py::test_immanant_and_a_coeffs_output_unchanged"
            f"[{command} {tree}]"), (command, tree)


def test_a_coeffs_command(capsys):
    code, out, _ = run_cli(capsys, "a-coeffs", "--tree", "path:2")
    assert code == 0
    assert out.splitlines() == ["a_0 = 1 - q^2", "a_1 = q^2"]


def test_a_coeffs_large_star(capsys):
    # matching weights no longer recurse once per edge
    code, out, err = run_cli(capsys, "a-coeffs", "--tree", "star:1200")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 601
    assert lines[0] == "a_0 = 1 - q^2"


def test_char_past_the_recursion_limit_is_answered(capsys):
    # border-strip removal goes level by level: 1,000 levels, no recursion
    code, out, err = run_cli(
        capsys, "char", "2000", ",".join(["2"] * 1000))
    assert code == 0 and err == ""
    assert out == "1\n"


def test_immanant_large_star(capsys):
    # only one 2-cycle is peeled; chi(1^m) = f^shape ends the descent
    code, out, err = run_cli(
        capsys, "immanant", "--tree", "star:1200", "--shape", "1199,1")
    assert code == 0 and err == ""
    # 1199 (1 + 1198 t) + 1197 * 1199 t with t = q^2
    assert out.strip() == "1199 + 2871605q^2"


def test_memory_error_is_a_capacity_error(capsys, monkeypatch):
    def exhausted(tree):
        raise MemoryError
    monkeypatch.setattr(immanants, "matching_weight_arrays", exhausted)
    code, out, err = run_cli(
        capsys, "immanant", "--tree", "path:5", "--shape", "4,1")
    assert_usage_error(code, out, err)
    assert "beyond capacity" in err


def test_verify_two_row_large_star(capsys):
    # two-row characters come from a closed form with no recursion
    code, out, err = run_cli(capsys, "verify", "two-row", "--tree", "star:1200")
    assert code == 0 and err == ""
    summary = json.loads(out.splitlines()[-1])["summary"]
    assert summary["passed_asserted"] == summary["total"] == 600


def test_verify_single_tree_exit_codes(capsys):
    # P_4 fails outside the asserted range: reported, exit 0
    code, out, _ = run_cli(capsys, "verify", "two-row", "--tree", "path:4")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]["summary"]
    assert summary["violations_reported_unasserted"] == 1
    k2 = [
        v for v in lines[:-1] if v["claim"] == "thm2" and v["params"]["k"] == 2
    ]
    assert k2[0]["holds"] is False

    code, out, _ = run_cli(capsys, "verify", "two-row", "--tree", "star:4")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(v["holds"] for v in lines[:-1])


def test_verify_hook_single_tree(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "hook", "--tree", "path:5", "--q-grid=-2:2:1/2",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    claims = {v["claim"] for v in lines[:-1]}
    assert claims == {"thm1-weak", "thm1-strong"}


CAP_ARGS = (("--n-max", "3"), ("--hook-n-max", "3"), ("--oracle-n-max", "3"),
            ("--random-trees", "3"), ("--seed", "9"), ("--alpha-n-max", "3"),
            ("--l-max", "3"), ("--sr-max", "3"), ("--sr-l-max", "3"),
            ("--deep",), ("--n-max", "3", "--deep", "--seed", "9"))


@pytest.mark.parametrize("which", ["two-row", "hook"])
@pytest.mark.parametrize("args", CAP_ARGS, ids=" ".join)
def test_verify_tree_refuses_sweep_flags(capsys, which, args):
    # each sweep flag is named in the one error line, none is ignored
    code, out, err = run_cli(capsys, "verify", which, "--tree", "star:6",
                             *args)
    assert_usage_error(code, out, err)
    assert all(a in err for a in args if a.startswith("--"))


def test_verify_tree_keeps_output_flags(capsys, tmp_path):
    for which in ("two-row", "hook"):
        for fmt in ("text", "csv", "json"):
            code, out, err = run_cli(capsys, "verify", which, "--tree",
                                     "star:6", "--format", fmt)
            assert code == 0 and out and err == ""
        target = tmp_path / f"{which}.jsonl"
        code, out, _ = run_cli(capsys, "verify", which, "--tree", "star:6",
                               "--out", str(target))
        assert code == 0 and out == "" and target.read_text()


def test_verify_hook_large_star_output_unchanged(capsys):
    code, out, err = run_cli(capsys, "verify", "hook", "--tree", "star:1200")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == pinned(
        "verify hook --tree star:1200")


# each case is named by its argv alone; the refusal names the flag, and
# says when --deep raised the value
REFUSED_CAPS = [
    (("hook", "--hook-n-max", "10"), "--hook-n-max = 10 is above its cap 9"),
    (("all", "--oracle-n-max", "10"), "--oracle-n-max = 10 is above"),
    (("hook", "--hook-n-max", "9", "--deep"),
     "--hook-n-max = 10 is above its cap 9 (--deep raised it from 9)"),
    (("two-row", "--random-trees", "0"),
     "--random-trees = 0 checks nothing: its sweep starts at 1"),
    (("two-row", "--random-trees", "100001"),
     "--random-trees = 100001 is above its cap 100000"),
    (("two-row", "--random-trees", "20001", "--deep"),
     "--random-trees = 100005 is above its cap 100000 "
     "(--deep raised it from 20001)"),
    (("two-row", "--n-max", "4"), "--n-max = 4 checks nothing"),
    (("hook", "--hook-n-max", "4"), "--hook-n-max = 4 checks nothing"),
    (("all", "--oracle-n-max", "1"), "--oracle-n-max = 1 checks nothing"),
    (("alpha-ratios", "--alpha-n-max", "1"), "--alpha-n-max = 1 checks"),
    (("alpha-ratios", "--l-max", "1"), "--l-max = 1 checks nothing"),
    (("general-sr", "--sr-max", "0"), "--sr-max = 0 checks nothing"),
    (("general-sr", "--sr-max", "51"), "--sr-max = 51 is above its cap 50"),
    (("general-sr", "--sr-l-max", "0"), "--sr-l-max = 0 checks nothing"),
    (("general-sr", "--sr-l-max", "101"),
     "--sr-l-max = 101 is above its cap 100"),
    (("general-sr", "--sr-max", "50", "--sr-l-max", "100"),
     "--sr-max = 50 is above its cap 6 at --sr-l-max = 100"),
    (("general-sr", "--sr-max", "47", "--sr-l-max", "13"),
     "--sr-max = 47 is above its cap 46 at --sr-l-max = 13"),
    (("hook", "--hook-n-max", "4", "--deep"), "--hook-n-max = 4 checks"),
    (("two-row", "--n-max", "40"),
     "--random-trees = 1000 is above its cap 418 at --n-max = 40"),
    (("all", "--n-max", "40", "--random-trees", "100", "--deep"),
     "--random-trees = 500 is above its cap 418 at --n-max = 40 "
     "(--deep raised it from 100)"),
    (("two-row", "--n-max", "139", "--random-trees", "1"),
     "--random-trees = 1 is above its cap 0 at --n-max = 139"),
    (("two-row", "--n-max", str(10**30), "--random-trees", "1"),
     "--random-trees = 1 is above its cap 0 at --n-max = 1000"),
]


@pytest.mark.parametrize("argv, message", REFUSED_CAPS,
                         ids=[" ".join(argv) for argv, _ in REFUSED_CAPS])
def test_sweep_caps_refused_before_any_sweep(capsys, argv, message):
    # a cap past its upper cap (the exhaustive tree cap n <= 9, the
    # general-sr caps, alone or together, the random sample size), --deep
    # included, an empty random sample, or a cap below its sweep's first
    # value (which would check nothing) fails at once instead of sweeping
    # first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", *argv)
    assert time.perf_counter() - start < 2
    assert_usage_error(code, out, err)
    assert message in err
    assert "deep" not in err or "--deep" in argv


def test_random_trees_cap_covered_by_classes_runs(capsys):
    # at --n-max 9 classes cover every sampled n, so the --random-trees
    # cap is accepted, and runs as fast as its classes
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "two-row", "--n-max", "9",
                             "--random-trees", "100000")
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    at_9 = [v["witness"] for v in map(json.loads, out.splitlines()[:-1])
            if v["params"]["n"] == 9]
    assert at_9 == ["100000 trees, 0 violations"]


class Computed(Exception):
    """Raised by a patched table computation once it is reached."""


# argv with {} for the size, the table cap, and the name the refusal gives
TABLE_CAPS = [
    (("alpha-table", "{}"), claims.ALPHA_TABLE_MAX_N, "alpha-table N"),
    (("last-table", "{}"), claims.LAST_TABLE_MAX_L, "last-table L"),
    (("verify", "alpha-ratios", "--alpha-n-max", "{}"),
     claims.ALPHA_TABLE_MAX_N, "--alpha-n-max"),
    (("verify", "alpha-ratios", "--l-max", "{}"),
     claims.LAST_TABLE_MAX_L, "--l-max"),
]


@pytest.mark.parametrize("argv, cap, name", TABLE_CAPS,
                         ids=[" ".join(argv[:-1]) for argv, _, _ in TABLE_CAPS])
def test_table_sizes_refused_above_cap_before_work(monkeypatch, capsys, argv,
                                                   cap, name):
    # past its cap a table command or sweep flag exits 2 with one line and
    # computes nothing; the cap itself reaches the computation
    def work(*args):
        raise Computed(args)

    # verify alpha-ratios makes each row as the stream reaches it, so the
    # computation is the claims' row makers, called while rendering
    for module, attr in ((cli, "alpha_table"), (cli, "last_table"),
                         (claims, "lem13_row"), (claims, "lem6_row"),
                         (claims, "lem9_row"), (claims, "cor10_row"),
                         (claims, "lem11_row")):
        monkeypatch.setattr(module, attr, work)
    with pytest.raises(Computed):
        main([a.format(cap) for a in argv])
    code, out, err = run_cli(capsys, *(a.format(cap + 1) for a in argv))
    assert_usage_error(code, out, err)
    assert f"{name} = {cap + 1}" in err


def test_verdict_fields_are_its_serialized_form(capsys):
    names = [f.name for f in fields(InequalityVerdict)]
    verdict = check_two_row_chain(star_tree(6))[0]
    assert list(verdict.to_json()) == names
    assert not hasattr(verdict, "__dict__")  # slotted
    code, out, _ = run_cli(capsys, "verify", "two-row", "--tree", "star:6",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].split(",") == names


# strings JSON must escape, or writes as \uXXXX under ensure_ascii
AWKWARD = ["", "plain", 'say "hi"', "back\\slash", "two\nlines\r",
           "tab\tbell\x07 nul\x00 del\x7f", "\u00fcn\u00efc\u00f8d\u00e9 \u2265",
           "line sep \u2028 astral \U0001d52e"]


def rendered(verdicts, fmt="json"):
    """The stream render_verdicts writes to stdout for `verdicts`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.render_verdicts(verdicts, fmt, None)
    return out.getvalue()


def assert_rendered(planned, verdicts):
    """`planned` renders as the reference stream of `verdicts`, in JSON and
    in CSV, where this Python's csv.writer takes the text."""
    for fmt in ("json", "csv"):
        want = reference_stream(verdicts, fmt)
        assert want is None or rendered(planned, fmt) == want


def test_json_lines_are_json_dumps_of_each_verdict():
    params = ({}, {"n": 5, "k": -3, "big": -10**30},
              {"tree": "pruefer:1,2@n=4", "q": "-19/2", "\u00e9\n": "\\"},
              {"50%": 50}, {"%s": "%d", "n": 2}, {"flag": "True", "n": 1})
    verdicts = [
        InequalityVerdict(claim=claim, params=p, holds=holds,
                          degenerate=degenerate, asserted=asserted,
                          witness=witness, detail=detail)
        for holds, degenerate, asserted in product((False, True), repeat=3)
        for witness, detail in zip(AWKWARD, AWKWARD[::-1])
        for claim, p in zip(("thm2", "lem6", 'c"l\\aim', "50%", "%s",
                             "lem9"), params)
    ]
    assert_rendered(as_plans(verdicts), verdicts)


@given(verdicts=st.lists(st.builds(
    InequalityVerdict, claim=st.text(max_size=8),
    params=st.dictionaries(st.text(max_size=4),
                           st.one_of(st.integers(), st.text(max_size=6)),
                           max_size=3),
    holds=st.booleans(), degenerate=st.booleans(), asserted=st.booleans(),
    witness=st.text(max_size=12), detail=st.text(max_size=12)), max_size=5),
       fixed=st.lists(st.text(max_size=6), min_size=3, max_size=3),
       names=st.lists(st.text(max_size=4), unique=True, max_size=3),
       rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1),
                               st.lists(st.text(max_size=8), min_size=5,
                                        max_size=5), st.integers()),
                     max_size=5))
@example(verdicts=[], fixed=['a "q", ', "100%", "\u00e9\n"],
         names=["%s", "n\u00e9"],
         rows=[(6, 1, ['x"y', "a,b", "two\nlines\r", "50%", "\u2265 \x00"],
                -5),
               (0, 0, ["", "", "", "", ""], 0)])
def test_json_lines_match_json_dumps_on_any_text(verdicts, fixed, names,
                                                 rows):
    # any verdict, written by a one-row form of its own, and the rows of a
    # form with %s slots among any fixed text, filled with any text, write
    # what json.dumps and csv.writer write for their verdicts
    assert_rendered(as_plans(verdicts), verdicts)
    a, b, c = (text.replace("%", "%%") for text in fixed)
    names = tuple(sorted(names))
    form = Form(fixed[0], names, f"{a}%s{b}%d", ("", f"%s{c}"), names)
    rows = [(outcome, detail, (*texts[:len(names)], texts[-2], number,
                               *texts[-1:] * detail))
            for outcome, detail, texts, number in rows]
    made = [form.verdict(row) for row in rows]
    assert_rendered(claims.Verdicts([rows_plan(form, rows)]), made)


@given(claim=st.text(max_size=8),
       names=st.lists(st.text(max_size=4), unique=True, max_size=3),
       details=st.lists(st.text(max_size=12), min_size=1, max_size=3),
       prefix=st.text(max_size=6),
       rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2),
                               st.lists(st.integers(), min_size=4,
                                        max_size=4)), max_size=5))
@example(claim='50% "c"', names=["%s", "n\u00e9"],
         details=["", "two\nlines\r", "back\\slash, 100%"], prefix="%d",
         rows=[(6, 1, [1, -2, 10**30, 7]), (1, 2, [0, 0, 0, -5])])
def test_plan_lines_match_json_dumps_on_any_text(claim, names, details,
                                                 prefix, rows):
    # a plan's lines, built once with its text escaped, write what the
    # standard library writes for the verdicts made from its rows, in both
    # formats
    form = Form(claim, tuple(sorted(names)), prefix.replace("%", "%%")
                + " %d", tuple(d.replace("%", "%%") for d in details))
    rows = [(outcome, detail % len(details), (*values[:len(names)],
                                               values[-1]))
            for outcome, detail, values in rows]
    made = [form.verdict(row) for row in rows]
    assert_rendered(claims.Verdicts([rows_plan(form, rows)]), made)


VERIFY_WHICH = ("two-row", "hook", "alpha-ratios", "general-sr", "paths",
                "probability", "identities", "all")


@pytest.fixture
def swept(monkeypatch):
    """The verdict lists that main's run_claims calls return, in order."""
    lists = []

    def recorded(*args):
        lists.append(claims.run_claims(*args))
        return lists[-1]

    monkeypatch.setattr(cli, "run_claims", recorded)
    return lists


@pytest.mark.parametrize("deep", [False, True], ids=["default", "deep"])
@pytest.mark.parametrize("which", VERIFY_WHICH)
def test_verify_writes_the_rendered_stream(capsysbinary, swept, which, deep):
    # main writes each line as it is made; the bytes are the joined text
    # of the verdicts its one sweep returned
    assert main(["verify", which, *["--deep"] * deep]) == 0
    assert capsysbinary.readouterr().out == rendered(swept[0]).encode()


@pytest.mark.parametrize("which", ["identities", "two-row"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_writes_each_format_to_stdout_and_out(capsysbinary, tmp_path,
                                                     swept, which, fmt):
    assert main(["verify", which, "--format", fmt]) == 0
    assert capsysbinary.readouterr().out == rendered(swept[0], fmt).encode()
    target = tmp_path / f"{which}.{fmt}"
    assert main(["verify", which, "--format", fmt, "--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == rendered(swept[1], fmt).encode()


def test_verify_summarizes_once(capsys, monkeypatch):
    # the summary is tallied in the loop that writes the lines: each
    # plan's rows are walked once, which for the ratio claims, made as
    # they are reached, is also the only time they are made
    passes, plans, sizes = [], [], []

    def counted(plan):
        rows = plan.rows
        return lambda: passes.append(plan) or rows()

    def walked(*args):
        verdicts = claims.run_claims(*args)
        plans[:] = verdicts.plans
        verdicts.plans[:] = [plan._replace(rows=counted(plan))
                             for plan in plans]
        sizes.append(len(verdicts))
        return verdicts

    monkeypatch.setattr(cli, "run_claims", walked)
    for which in ("identities", "alpha-ratios"):
        for fmt in ("json", "csv"):
            passes.clear()
            code, out, _ = run_cli(capsys, "verify", which, "--format", fmt)
            assert code == 0 and out
            assert passes == plans
            if fmt == "json":
                summary = json.loads(out.splitlines()[-1])["summary"]
                assert summary["total"] == sizes[-1]


@pytest.mark.parametrize("which", ["alpha-ratios", "general-sr"])
def test_ratio_lines_make_no_verdict(monkeypatch, tmp_path, which):
    # every ratio form's slots are all %d, so each of its lines is one % of
    # a template and no row becomes an InequalityVerdict: with
    # Form.verdict raising, the stream is still written, byte for byte
    def made(*args):
        raise AssertionError("a verdict object was made")

    verdicts = claims.run_claims(which, claims.SweepConfig())
    for fmt in ("json", "csv"):
        want, got = tmp_path / f"want.{fmt}", tmp_path / f"got.{fmt}"
        cli.render_verdicts(verdicts, fmt, str(want))
        with monkeypatch.context() as patched:
            patched.setattr(immanants.Form, "verdict", made)
            cli.render_verdicts(verdicts, fmt, str(got))
        assert got.read_bytes() == want.read_bytes()


def test_csv_render_keeps_no_buffer(tmp_path):
    # csv.writer keeps a 128 KiB record buffer once it has written a row;
    # the CSV lines come from csv_field and csv_row, which hold none, so a
    # CSV render leaves nothing behind once its caches are warm
    out = str(tmp_path / "table")
    for fmt in ("text", "json"):
        assert main(["alpha-table", "4", "--format", fmt, "--out", out]) == 0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        assert main(["alpha-table", "4", "--format", "csv", "--out", out]) == 0
        gc.collect()
        kept = sum(stat.size_diff for stat in tracemalloc.take_snapshot()
                   .compare_to(before, "filename"))
    finally:
        tracemalloc.stop()
    assert kept < 32 * 1024
    assert Path(out).read_text().startswith("i\\k,0,1,2\n")


@pytest.mark.parametrize("argv", [
    ["verify", "alpha-ratios"],
    ["verify", "alpha-ratios", "--format", "csv"],
    ["verify", "hook", "--tree", "path:200"],
    ["alpha-table", "200"],
    ["alpha-table", "200", "--format", "json"],
    ["alpha-table", "200", "--format", "csv"],
    ["last-table", "150"],
    ["last-table", "150", "--format", "json"],
    ["last-table", "150", "--format", "csv"],
    ["a-coeffs", "--tree", "path:150"],
    ["a-coeffs", "--tree", "path:150", "--format", "json"],
], ids=["verify", "verify-csv", "verify-tree", "table", "table-json",
        "table-csv", "last", "last-json", "last-csv", "a-coeffs",
        "a-coeffs-json"])
def test_reader_gone(argv):
    # a reader that stops after 100 bytes, as `| head -c 100` does: exit 2
    # with one error line, and no traceback or message from the
    # interpreter's flush at exit; every stream is past a pipe's buffer
    # (345 KB for the verdict lines of path:200, 400 to 850 KB for the
    # tables, 200 and 270 KB for the polynomial lists of path:150, 2.7 MB
    # of CSV verdict rows), handed to the writer in pieces of a line or at
    # most _EMIT_CHUNK characters, so a later piece meets the closed pipe
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qimm.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.communicate(timeout=300)[1].decode()
    assert proc.returncode == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_reader_gone_from_stdout_and_stderr():
    # `2>&1 | head -1`: the error line meets the same closed pipe, and is
    # let go; the exit status is still 2, not the 1 of a failed verdict
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qimm.cli", "verify", "alpha-ratios"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    assert proc.wait(timeout=300) == 2


def test_verify_tree_flag_rejected_elsewhere(capsys):
    code, _, err = run_cli(capsys, "verify", "paths", "--tree", "path:4")
    assert code == 2
    assert "tree" in err


def test_verify_identities_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["all_ok"] and summary["failed_asserted"] == 0


def test_verify_alpha_ratios_reports_degenerate(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "alpha-ratios", "--alpha-n-max", "8",
        "--l-max", "8",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    lem9_l2 = [
        v for v in lines[:-1]
        if v["claim"] == "lem9" and v["params"] == {"l": 2, "k": 1}
    ]
    assert lem9_l2[0]["degenerate"] is True


def test_verify_output_deterministic(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QIMM_OUT_DIR", str(tmp_path))
    code1 = main(["verify", "identities", "--out", "a.jsonl"])
    code2 = main(["verify", "identities", "--out", "b.jsonl"])
    assert code1 == code2 == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (
        tmp_path / "b.jsonl"
    ).read_bytes()


def test_verify_all_covers_every_claim(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "all", "--n-max", "5", "--hook-n-max", "5",
        "--oracle-n-max", "4", "--alpha-n-max", "10", "--l-max", "10",
        "--sr-max", "2", "--sr-l-max", "4",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    claims = {v["claim"] for v in lines[:-1]}
    assert claims == {
        "thm1-weak", "thm1-strong", "thm2", "lem6", "lem9", "cor10",
        "lem11", "lem13", "rem12", "lem15-bij", "lem16-bij", "lem17-conv",
        "lem18", "lem19", "lem20", "lem21", "lem22", "rem20",
        "a0-identity", "oracle-equivalence",
    }
    assert lines[-1]["summary"]["all_ok"]


def test_full_verification_script_reader_gone(tmp_path):
    # the reader closes before the summary is printed: exit 2, not the 1
    # of a failed verdict, with one error line and no traceback
    script = (Path(__file__).resolve().parent.parent / "scripts"
              / "run_full_verification.py")
    proc = subprocess.Popen([sys.executable, str(script), str(tmp_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.communicate(timeout=300)[1].decode()
    assert proc.returncode == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "verdicts.jsonl").exists()


def test_full_verification_script_reader_gone_from_stdout_and_stderr(
        tmp_path):
    # `2>&1 | true`: the error line meets the same closed pipe; exit 2
    script = (Path(__file__).resolve().parent.parent / "scripts"
              / "run_full_verification.py")
    proc = subprocess.Popen([sys.executable, str(script), str(tmp_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    proc.stdout.close()
    assert proc.wait(timeout=300) == 2
    assert (tmp_path / "verdicts.jsonl").exists()


def test_full_verification_script_reads_its_arguments_first(tmp_path):
    # --help prints the usage; an unknown flag or a second OUTDIR exits 2
    # with one error line; neither creates a directory
    script = (Path(__file__).resolve().parent.parent / "scripts"
              / "run_full_verification.py")
    for args, code in ((["--help"], 0), (["--bogus"], 2), (["-x"], 2),
                       (["a", "b"], 2), (["a", "--deep", "b"], 2)):
        proc = subprocess.run([sys.executable, str(script), *args],
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == code, (args, proc.stderr)
        if code:
            assert proc.stderr.startswith("error: ") and (
                proc.stderr.count("\n") == 1), args
        else:
            assert proc.stdout.startswith("usage: ") and not proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "alpha-table", "0")
    assert code == 2 and "error" in err
    code, _, err = run_cli(
        capsys, "immanant", "--tree", "path:12", "--shape", "12",
        "--algorithm", "bruteforce",
    )
    assert code == 2 and "capped" in err


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "general-sr", "--sr-max", "2", "--sr-l-max", "4",
        "--format", "csv",
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == [
        "claim", "params", "holds", "degenerate", "asserted", "witness",
        "detail",
    ]
