#!/usr/bin/env python3
"""Run every verification sweep at the default caps and write the verdict
stream plus a CSV summary.

Usage:
    python scripts/run_full_verification.py [OUTDIR] [--deep]

OUTDIR defaults to ./verification-out (or $QIMM_OUT_DIR when set).
Exit status 0 iff every asserted verdict holds.
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
    jsonl.write_text(render_verdicts(verdicts, "json"))

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
    sys.exit(main(sys.argv[1:]))
