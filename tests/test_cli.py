import hashlib
import json
import time
from dataclasses import fields

import pytest

from qimm import immanants
from qimm.immanants import InequalityVerdict, check_two_row_chain
from qimm.characters import partitions
from qimm.cli import Q_GRID_MAX_POINTS, main, parse_q_grid, parse_tree_spec
from qimm.trees import Tree, all_labeled_trees, path_tree, star_tree

# SHA-256 of the stdout of every command `edge_argvs` yields for one
# subcommand and tree, concatenated in order; recorded before q_laplacian
# emitted integer coefficient tuples in place of RatPoly entries.
GOLDEN_EDGE = {
    ("immanant", "path:6"):
        "99fc2f9372cc0ee47a0b2f313e87082e9330fd30c879e20c55d12b689f5acaf2",
    ("immanant", "star:6"):
        "d20608976dd7c0c64729785c20d7e813b0d6affb6366999bead245ccedf861da",
    ("immanant", "pruefer:2,2,3,3"):
        "66513a8e8f912fd69cca51f17f47738ee3caea6f3a81949b0ba61caac6397b7e",
    ("a-coeffs", "path:6"):
        "1deaf9920bee556ede3a75c97151adf3e013d28ec92a8566af93fc6b905e0db0",
    ("a-coeffs", "star:6"):
        "6ec5c8cca86f7f36701c9840d5829e9db2eae0c86c1cd09181ab1f70494a66c3",
    ("a-coeffs", "pruefer:2,2,3,3"):
        "b7078205e5ed9d704af9b509aad88ff71c6cc9acdca91661d24539b9a0c08c4d",
}


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
    for (command, tree), want in GOLDEN_EDGE.items():
        digest = hashlib.sha256()
        for argv in edge_argvs(command, tree):
            assert main(list(argv)) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == want, (command, tree)


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


def test_recursion_limit_is_a_capacity_error(capsys):
    # the border-strip engine still goes one level per cycle longer than 1
    code, out, err = run_cli(
        capsys, "char", "2000", ",".join(["2"] * 1000))
    assert_usage_error(code, out, err)
    assert "beyond capacity" in err


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
    # SHA-256 of the stdout of `qimm verify hook --tree star:1200`,
    # recorded before the hook characters came from their closed form
    code, out, err = run_cli(capsys, "verify", "hook", "--tree", "star:1200")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f20cd4c653383b7570e8ff2e8dd6c221941162290d00794703927dbbd72c2e93")


@pytest.mark.parametrize("argv, field", [
    (("hook", "--hook-n-max", "10"), "hook_n_max"),
    (("all", "--oracle-n-max", "10"), "oracle_n_max"),
    (("hook", "--hook-n-max", "9", "--deep"), "hook_n_max"),
    (("two-row", "--random-trees", "0"), "random_count"),
    (("two-row", "--n-max", "4"), "n_max"),
    (("hook", "--hook-n-max", "4"), "hook_n_max"),
    (("all", "--oracle-n-max", "1"), "oracle_n_max"),
    (("alpha-ratios", "--alpha-n-max", "1"), "alpha_n_max"),
    (("alpha-ratios", "--l-max", "1"), "last_l_max"),
    (("general-sr", "--sr-max", "0"), "sr_max"),
    (("general-sr", "--sr-l-max", "0"), "sr_l_max"),
    (("hook", "--hook-n-max", "4", "--deep"), "hook_n_max"),
], ids=" ".join)
def test_sweep_caps_refused_before_any_sweep(capsys, argv, field):
    # a cap past the exhaustive tree cap (n <= 9), --deep included, an
    # empty random sample, or a cap below its sweep's first value (which
    # would check nothing) fails at once instead of sweeping first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", *argv)
    assert time.perf_counter() - start < 2
    assert_usage_error(code, out, err)
    assert field in err


def test_verdict_fields_are_its_serialized_form(capsys):
    names = [f.name for f in fields(InequalityVerdict)]
    assert list(check_two_row_chain(star_tree(6))[0].to_json()) == names
    code, out, _ = run_cli(capsys, "verify", "two-row", "--tree", "star:6",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].split(",") == names


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
