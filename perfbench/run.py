"""qimm benchmark: one run of one workload.

    python3 perfbench/run.py --workload {verify-all,big-trees,tables-paths}
        --seed N --seconds T --trace 0|1

Run from the repository root.  Set-up is timed as several fresh
interpreters that import qimm.cli.  Then passes of the workload run one
after another, each in a fresh interpreter (perfbench/worker.py), until
the next pass would end after T seconds; there is always at least one.
Every output of every pass is checked against perfbench/refs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
adds one traced pass after the untraced ones and reports the per-layer
metrics; tracing overhead is the traced pass against the untraced median.
The last line of stdout is the result; the line before it is the run's
metadata (versions, commit, caps, per-pass samples, span table).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 15
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    ordered = sorted(samples)
    return {"percentile": pct, "value": ordered[n - 11]}


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("QIMM_OUT_DIR", None)
        self.work_dir = root / ".perfbench_work"

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[1:]} ran past the run's time budget")
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:]} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return proc

    def setup_s(self) -> list[float]:
        """Fresh interpreter through `import qimm.cli`, after one warm-up
        start that leaves the bytecode cache written."""
        argv = [sys.executable, "-c", "import qimm.cli"]
        self._run(argv)
        times = []
        for _ in range(SETUP_SPAWNS):
            t0 = time.perf_counter()
            self._run(argv)
            times.append(time.perf_counter() - t0)
        return times

    def one_pass(self, workload: str, seed: int, trace: int) -> dict:
        proc = self._run([sys.executable, str(HERE / "worker.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--trace", str(trace),
                          "--work-dir", str(self.work_dir)])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def passes(self, workload: str, seed: int, seconds: float) -> list[dict]:
        """Untraced passes until the next one would end after `seconds`,
        or after the run's budget; there is always at least one."""
        results, lengths = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            results.append(self.one_pass(workload, seed, 0))
            lengths.append(time.monotonic() - t0)
            next_end = time.monotonic() - start + statistics.median(lengths)
            if next_end > seconds or 2 * max(lengths) > self.remaining():
                return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-all", "big-trees", "tables-paths"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (root / "src" / "qimm" / "__init__.py").is_file():
        print("perfbench: no qimm sources under src/; run from the "
              "repository root", file=sys.stderr)
        return 2

    runner = Runner(root, time.monotonic() + RUN_BUDGET_S)
    runner.work_dir.mkdir(exist_ok=True)
    try:
        setup = runner.setup_s()
        untraced = runner.passes(args.workload, args.seed, args.seconds)
        traced = (runner.one_pass(args.workload, args.seed, 1)
                  if args.trace else None)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.work_dir, ignore_errors=True)

    every = untraced + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    walls = [p["wall_s"] for p in untraced]
    correct = failed == 0
    if args.workload == "verify-all":
        # tracing must leave the verdict stream unchanged byte for byte
        correct = correct and len({p["stream_sha256"] for p in every}) == 1

    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                         for p in untraced),
        "ops_ok_frac": 1 - failed / attempted if attempted else 0.0,
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "caps": untraced[0]["caps"],
        "samples": {
            "setup_s": setup,
            "wall_s": walls,
            "cpu_s": [p["cpu_s"] for p in untraced],
            "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        },
        "wall_s_tail": tail_percentile(walls),
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "failed_ops": [op for p in every for op in p["failed_ops"]][:10],
    }
    if traced:
        values.update(traced["layers"])
        values["process.cpu_s"] = statistics.median(p["cpu_s"]
                                                    for p in untraced)
        values["trace.overhead_frac"] = traced["wall_s"] / values["wall_s"] - 1
        meta["traced_wall_s"] = traced["wall_s"]
        meta["spans"] = traced["spans"]

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[group]:
        if m["name"] not in values:
            print(f"perfbench: no value for {m['name']}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
