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

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qimm.claims import SweepConfig, run_claims, summarize  # noqa: E402
from qimm.cli import _csv_row, _write, render_verdicts  # noqa: E402


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

    # absolute paths, so that qimm's writer joins no QIMM_OUT_DIR to them
    jsonl, table = outdir / "verdicts.jsonl", outdir / "summary.csv"
    render_verdicts(verdicts, "json", str(jsonl.resolve()), summary)

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
    _write([_csv_row(["claim", "total", "holds", "degenerate",
                      "unasserted_violations"]),
            *(_csv_row(per_claim[claim].values())
              for claim in sorted(per_claim))], str(table.resolve()))

    _write([f"{summary['total']} verdicts in {elapsed:.1f}s "
            f"-> {jsonl} and {table}\n",
            *(f"  {key}: {val}\n" for key, val in summary.items())], None)
    return 0 if summary["all_ok"] else 1


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
    except OSError as exc:
        # exit 1 is kept for a failed verdict; qimm's writer has already
        # pointed a closed stdout at devnull
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    sys.exit(status)
