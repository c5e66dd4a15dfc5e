"""Record the correctness references the benchmark checks every pass against.

    PYTHONPATH=src python3 perfbench/record_refs.py

Run from the repository root, only on a commit whose outputs are known to
be right: it overwrites perfbench/refs/.  It writes the verify-all verdict
stream at seed 0 (xz-compressed, compared line by line), the pools of
Pruefer sequences that big-trees draws from, and a SHA-256 digest of the
canonical JSON of every big-trees query (on every pool tree) and of every
tables-paths result.
"""

from __future__ import annotations

import json
import lzma
import random
import sys
import tempfile
from pathlib import Path

import worker


def main() -> int:
    worker.REFS.mkdir(exist_ok=True)
    pools = {
        str(n): [[rng.randint(1, n) for _ in range(n - 2)]
                 for _ in range(worker.POOL_SIZE)]
        for n, _ in worker.BIG_RANDOM
        for rng in [random.Random(f"perfbench-pool-{n}")]
    }

    specs = [(f"path:{n}", "path", n) for n in worker.BIG_PATHS]
    specs += [(f"star:{n}", "star", n) for n in worker.BIG_STARS]
    for n, _ in worker.BIG_RANDOM:
        specs += [(f"pool:{n}:{idx}", "pruefer", (tuple(seq), n))
                  for idx, seq in enumerate(pools[str(n)])]
    digests = {}
    for key, family, arg in specs:
        tree = worker.build_tree(family, arg)
        ops = worker.tree_ops(key, tree, worker.tree_queries(tree))
        digests[key] = {op.split("/")[1]: worker.digest(_ok(op, text))
                        for op, text in ops.items()}

    with tempfile.TemporaryDirectory() as tmp:
        tables = worker.canonical_ops(
            "tables-paths", worker.run_pass("tables-paths", 0, pools, None))
        rc, out = worker.run_pass("verify-all", 0, pools, Path(tmp))
        if rc != 0:
            raise SystemExit(f"verify all exited with {rc!r}")
        worker.VERIFY_ALL_REF.write_bytes(
            lzma.compress(out.read_bytes(), preset=9))

    digests = {
        "big-trees": digests,
        "tables-paths": {op: worker.digest(_ok(op, text))
                         for op, text in tables.items()},
    }
    for path, data in ((worker.POOLS_JSON, pools),
                       (worker.DIGESTS_JSON, digests)):
        path.write_text(
            json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _ok(op: str, text: str | None) -> str:
    if text is None:
        raise SystemExit(f"{op} failed while recording references")
    return text


if __name__ == "__main__":
    sys.exit(main())
