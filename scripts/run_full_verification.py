#!/usr/bin/env python3
"""Run every verification sweep at the default caps and write the verdict
stream plus a CSV summary.

Usage:
    python scripts/run_full_verification.py [OUTDIR] [--deep]

OUTDIR defaults to ./verification-out (or $QIMM_OUT_DIR when set).
Exit status 0 iff every asserted verdict holds, 1 when one fails, and 2
with one `error:` line when the output cannot be written (a closed pipe
on stdout included).
"""

import csv
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qimm.claims import SweepConfig, run_claims, summarize  # noqa: E402
from qimm.cli import render_verdicts  # noqa: E402


def main(argv):
    deep = "--deep" in argv
    argv = [a for a in argv if a != "--deep"]
    outdir = Path(
        argv[0] if argv else os.environ.get("QIMM_OUT_DIR",
                                            "verification-out")
    )
    outdir.mkdir(parents=True, exist_ok=True)

    config = SweepConfig()
    if deep:
        config = config.deepen()

    t0 = time.time()
    verdicts = run_claims("all", config)
    elapsed = time.time() - t0
    summary = summarize(verdicts)

    jsonl = outdir / "verdicts.jsonl"
    with jsonl.open("w") as fh:
        render_verdicts(verdicts, "json", fh, summary)

    per_claim = {}
    for v in verdicts:
        row = per_claim.setdefault(
            v.claim, {"claim": v.claim, "total": 0, "holds": 0,
                      "degenerate": 0, "unasserted_violations": 0}
        )
        row["total"] += 1
        row["holds"] += v.holds
        row["degenerate"] += v.degenerate
        row["unasserted_violations"] += (not v.holds and not v.asserted)
    with (outdir / "summary.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["claim", "total", "holds", "degenerate",
                            "unasserted_violations"]
        )
        writer.writeheader()
        for claim in sorted(per_claim):
            writer.writerow(per_claim[claim])

    print(f"{summary['total']} verdicts in {elapsed:.1f}s "
          f"-> {jsonl} and {outdir / 'summary.csv'}")
    for key, val in summary.items():
        print(f"  {key}: {val}")
    return 0 if summary["all_ok"] else 1


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        # exit 1 is kept for a failed verdict; stdout goes to devnull so
        # the interpreter's own flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    sys.exit(status)
