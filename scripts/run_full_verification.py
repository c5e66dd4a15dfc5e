#!/usr/bin/env python3
"""Run every verification sweep at the default caps and write the verdict
stream plus a CSV summary.

Usage:
    python scripts/run_full_verification.py [-h] [OUTDIR] [--deep]

OUTDIR defaults to ./verification-out (or $QIMM_OUT_DIR when set).
Exit status 0 iff every asserted verdict holds, 1 when one fails, and 2
with one `error:` line when the arguments are not understood (an unknown
flag, a second OUTDIR) or the output cannot be written (a closed pipe on
stdout included).  Nothing is created before the arguments are read.
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qimm.claims import SweepConfig, csv_row, run_claims, summary  # noqa: E402
from qimm.cli import _error, _write, render_verdicts  # noqa: E402


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, as every other refusal of this script
        self.exit(2, f"error: {message}\n")


def main(argv):
    parser = _Parser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", nargs="?", metavar="OUTDIR",
                        default=os.environ.get("QIMM_OUT_DIR",
                                               "verification-out"),
                        help="default $QIMM_OUT_DIR or ./verification-out")
    parser.add_argument("--deep", action="store_true",
                        help="raise the sweep caps")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    config = SweepConfig()
    if args.deep:
        config = config.deepen()

    # the ratio verdicts are made as they are written, so the time covers
    # the writing; one pass makes, writes and tallies every verdict
    t0 = time.time()
    verdicts = run_claims("all", config)
    # absolute paths, so that qimm's writer joins no QIMM_OUT_DIR to them
    jsonl, table = outdir / "verdicts.jsonl", outdir / "summary.csv"
    tally = render_verdicts(verdicts, "json", str(jsonl.resolve()))
    elapsed = time.time() - t0

    # per claim: total, holds, degenerate, unasserted violations (the
    # tally counts at index holds << 2 | asserted << 1 | degenerate)
    _write([csv_row(["claim", "total", "holds", "degenerate",
                     "unasserted_violations"]),
            *(csv_row([claim, sum(bins), sum(bins[4:]), sum(bins[1::2]),
                       bins[0] + bins[1]])
              for claim, bins in sorted(tally.items()))],
           str(table.resolve()))

    totals = summary(tally)
    _write([f"{totals['total']} verdicts in {elapsed:.1f}s "
            f"-> {jsonl} and {table}\n",
            *(f"  {key}: {val}\n" for key, val in totals.items())], None)
    return 0 if totals["all_ok"] else 1


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
    except OSError as exc:
        # exit 1 is kept for a failed verdict; qimm's writer has already
        # pointed a closed stdout at devnull, and _error lets a closed
        # stderr go
        _error(str(exc))
        status = 2
    sys.exit(status)
