#!/usr/bin/env python3
"""Check every pinned output stream against its digest in tests/streams.json.

Usage:
    python scripts/check_streams.py [-h] [--record]

A stream lists under "run" every command that makes it.  `qimm ARGS`
runs `python -m qimm.cli ARGS` on this checkout's src/, `python ARGS`
runs this interpreter, and `{out:FILE}` in a command stands for a new
directory whose FILE is the stream, in place of stdout.  Each command
runs from the repository root, as a subprocess under the stream's
timeout_s, and its peak RSS (from os.wait4) must stay under max_rss_mb
where one is given.  One line is printed per stream; the exit status is
1 on any mismatch, failed command, timeout or RSS overrun, else 0.

A stream with no command is made by the tier-1 test named under "tier1",
which reads its digest from the manifest; record it by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "streams.json"
_OUT = re.compile(r"\{out:([^}]+)\}")
_HEADS = {"qimm": [sys.executable, "-m", "qimm.cli"],
          "python": [sys.executable]}


def load(manifest: Path = MANIFEST) -> dict:
    return json.loads(manifest.read_text())


def dumps(data: dict) -> str:
    """The manifest's one layout, which --record writes."""
    return json.dumps(data, indent=2) + "\n"


def pinned(name: str) -> str:
    """The digest the manifest pins for stream `name`."""
    return load()["streams"][name]["sha256"]


def qimm_argv(command: str) -> list[str] | None:
    """The arguments of a `qimm ...` command, for an in-process run."""
    words = shlex.split(command)
    return words[1:] if words[0] == "qimm" else None


def run(command: str, timeout: float) -> tuple[str | None, float, float]:
    """The sha256 of one command's stream (None when it exits nonzero or
    runs past `timeout` seconds, and is then killed), its seconds and its
    peak RSS in MB.  subprocess starts the command by vfork, so the RSS
    os.wait4 reports is at least this process's own peak, about 20 MB."""
    words = shlex.split(command)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        made = _OUT.search(command)
        stream = Path(tmp, made.group(1) if made else "stdout")
        argv = [*_HEADS[words[0]], *(_OUT.sub(tmp, w) for w in words[1:])]
        with open(Path(tmp, "stdout"), "wb") as out:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, cwd=ROOT, env=env)
            while not (reaped := os.wait4(proc.pid, os.WNOHANG))[0]:
                if time.monotonic() - start > timeout:
                    proc.kill()
                    reaped = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
            seconds = time.monotonic() - start
        _, status, usage = reaped
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        digest = _sha256(stream) if proc.returncode == 0 else None
    return digest, seconds, usage.ru_maxrss / 1024


def _sha256(path: Path) -> str:
    # in pieces, to keep this process's peak, and so every command's RSS
    # floor, far below the bounds
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while piece := fh.read(1 << 20):
            digest.update(piece)
    return digest.hexdigest()


def check(name: str, stream: dict) -> tuple[str | None, str]:
    """The digest every command of `stream` made, or None when one
    failed, overran its bound or they disagree; and the line that says
    so."""
    if "run" not in stream:
        return stream["sha256"], f"tier-1  {name}: made by {stream['tier1']}"
    made, faults, seconds, peak = set(), [], 0.0, 0.0
    timeout = stream["timeout_s"]
    bound = stream.get("max_rss_mb", float("inf"))
    for command in stream["run"]:
        digest, took, mb = run(command, timeout)
        made.add(digest)
        seconds, peak = seconds + took, max(peak, mb)
        if digest is None:
            faults.append(f"{command!r} " + (f"ran past {timeout} s"
                                             if took > timeout
                                             else "exited nonzero"))
        if mb >= bound:
            faults.append(f"{command!r} peaked at {mb:.1f} MB, over {bound}")
    if len(made) > 1 and not faults:
        faults.append("its commands made different streams")
    got = None if faults else made.pop()
    status = ("FAIL  " if got is None
              else "ok    " if got == stream["sha256"] else "MOVED ")
    if got not in (None, stream["sha256"]):
        faults.append(f"sha256 {got[:8]}…, pinned {stream['sha256'][:8]}…")
    return got, "; ".join([f"{status}  {name}: {seconds:.2f} s, "
                           f"{peak:.1f} MB", *faults])


def main(argv: list[str], manifest: Path = MANIFEST) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="write the digests that moved to the manifest "
                             "and print a before/after table of them")
    record = parser.parse_args(argv).record
    data = load(manifest)
    moved, failed = {}, False
    for name, stream in data["streams"].items():
        got, line = check(name, stream)
        print(line, flush=True)
        if got is None or (got != stream["sha256"] and not record):
            failed = True
        elif got != stream["sha256"]:
            moved[name] = got
    if moved:
        print("\n| stream | before | after |\n| --- | --- | --- |")
        for name, got in moved.items():
            print(f"| `{name}` | `{data['streams'][name]['sha256'][:8]}…` "
                  f"| `{got[:8]}…` |")
            data["streams"][name]["sha256"] = got
        manifest.write_text(dumps(data))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
