"""tests/streams.json pins every output stream once, and
scripts/check_streams.py checks and re-records it."""

import ast
import contextlib
import dataclasses
import hashlib
import io
import re
import shlex

from check_streams import MANIFEST, ROOT, dumps, load, main, qimm_argv
from qimm import claims, cli

STREAMS = load()["streams"]
DIGEST = re.compile(r"(?<![0-9a-f])[0-9a-f]{64}(?![0-9a-f])")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_digest_is_written_once_in_the_manifest():
    # the benchmark's own references under perfbench/ and the prose of
    # CHANGES.md and ROADMAP.md aside
    files = [ROOT / "README.md", *(
        p for d in ("tests", "scripts", "src", ".github")
        for p in (ROOT / d).rglob("*")
        if p.is_file() and p != MANIFEST and "__pycache__" not in p.parts)]
    assert MANIFEST.parent in {p.parent for p in files}
    found = {p.relative_to(ROOT).as_posix(): DIGEST.findall(
        p.read_text(errors="replace")) for p in files}
    assert {name: hits for name, hits in found.items() if hits} == {}
    digests = [s["sha256"] for s in STREAMS.values()]
    assert all(map(DIGEST.fullmatch, digests))
    assert len(set(digests)) == len(digests) >= 46


def test_every_stream_is_checked():
    # by its commands, each a `qimm` or `python` command line, or by the
    # tier-1 test it names, which exists
    tests = {f"{path.relative_to(ROOT).as_posix()}::{node.name}"
             for path in (ROOT / "tests").glob("test_*.py")
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef)}
    for name, stream in STREAMS.items():
        assert "run" in stream or "tier1" in stream, name
        for command in stream.get("run", []):
            assert shlex.split(command)[0] in ("qimm", "python"), command
        if "run" in stream:
            assert stream["timeout_s"] > 0, name
        assert stream.get("tier1", "") in {"", *tests}, name


def test_a_patched_detail_moves_exactly_the_streams_that_carry_it(
        monkeypatch):
    # each tier-1 stream a `qimm` command makes, run in process before and
    # after one byte of one verdict detail changes
    runs = {name: argv for name, stream in STREAMS.items()
            if "tier1" in stream and (argv := next(filter(None, map(
                qimm_argv, stream.get("run", []))), None))}

    def stdout(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        return out.getvalue()

    before = {name: stdout(argv) for name, argv in runs.items()}
    assert {name: sha256(out) for name, out in before.items()} == {
        name: STREAMS[name]["sha256"] for name in runs}
    form = claims.LEM9
    detail = form.details[2]  # published triangle refutes the stated range
    monkeypatch.setattr(claims, "LEM9", dataclasses.replace(
        form, details=(*form.details[:2], detail.capitalize())))
    moved = {name for name, argv in runs.items()
             if sha256(stdout(argv)) != STREAMS[name]["sha256"]}
    carry = {name for name, out in before.items() if detail in out}
    assert moved == carry
    assert 0 < len(carry) < len(runs)


def python_stream(text, **fields):
    return {"run": [f"python -c {shlex.quote(f'print({text!r})')}"],
            "sha256": sha256(f"{text}\n"), "timeout_s": 20, **fields}


def test_record_rewrites_only_the_digests_that_moved(tmp_path, capsys):
    # the manifest keeps its layout, so a stream change's diff is the
    # digests that moved; a failed stream is reported, never recorded
    assert dumps(load()) == MANIFEST.read_text()
    want = {"streams": {
        "a": python_stream("a"),
        "b": python_stream("b", max_rss_mb=4096),
        "made by a test": {"sha256": sha256("t"), "tier1": "tests/x"}}}
    manifest = tmp_path / "streams.json"
    stale = load(MANIFEST) | want  # any other top-level key is kept
    stale["streams"] = {**want["streams"], "b": {
        **want["streams"]["b"], "sha256": sha256("stale")}}
    manifest.write_text(dumps(stale))
    assert main([], manifest) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["ok", "MOVED", "tier-1"]
    assert manifest.read_text() == dumps(stale)
    assert main(["--record"], manifest) == 0
    table = capsys.readouterr().out.split("\n\n")[1].splitlines()
    before, after = stale["streams"]["b"], want["streams"]["b"]
    assert table[2:] == [f"| `b` | `{before['sha256'][:8]}…` "
                         f"| `{after['sha256'][:8]}…` |"]
    assert manifest.read_text() == dumps(load(MANIFEST) | want)
    recorded = manifest.read_bytes()
    assert main(["--record"], manifest) == 0 and main([], manifest) == 0
    assert "| stream |" not in capsys.readouterr().out
    assert manifest.read_bytes() == recorded


def test_failed_streams_are_not_recorded(tmp_path, capsys):
    streams = {
        "slow": {**python_stream("a"), "run": [
            "python -c 'import time; time.sleep(30)'"], "timeout_s": 0.1},
        "exits 1": {**python_stream("a"), "run": [
            "python -c 'raise SystemExit(1)'"]},
        "over its RSS bound": python_stream("a", max_rss_mb=1),
        "disagrees": {**python_stream("a"), "run": [
            *python_stream("a")["run"], *python_stream("b")["run"]]},
    }
    manifest = tmp_path / "streams.json"
    manifest.write_text(dumps({"streams": streams}))
    assert main(["--record"], manifest) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["FAIL"] * 4
    assert manifest.read_text() == dumps({"streams": streams})
    assert "ran past 0.1 s" in lines[0] and "exited nonzero" in lines[1]
    assert "over 1" in lines[2] and "different streams" in lines[3]
