"""Tests of the benchmark itself.

    PYTHONPATH=src python3 perfbench/selftest.py
    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

Run from the repository root.  The file name keeps the repository's own
test run from collecting it: the non-interference test runs two full
verify-all passes (about a minute).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from qimm import claims, immanants, trees  # noqa: E402


def _worker(workload: str, seed: int, trace: int, work_dir: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--work-dir", work_dir],
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracing_leaves_verdict_stream_unchanged():
    """The verify-all stream is byte-identical with and without tracing,
    and the layer spans cover most of the traced pass."""
    with tempfile.TemporaryDirectory() as tmp:
        plain = _worker("verify-all", 4, 0, tmp)
        traced = _worker("verify-all", 4, 1, tmp)
    assert plain["stream_sha256"] is not None
    assert traced["stream_sha256"] == plain["stream_sha256"]
    assert plain["failed"] == traced["failed"] == 0
    assert traced["layers"]["trace.coverage_frac"] > 0.95
    assert traced["layers"]["claims.verdicts"] == 25720


def test_restore_puts_every_binding_back():
    modules = [m for n, m in sys.modules.items() if n.startswith("qimm")]
    before = [dict(vars(m)) for m in modules]
    methods = dict(vars(trees.Tree))
    original = trees.matching_weight_arrays
    tracer = tracing.Tracer()
    tracer.install()
    assert trees.matching_weight_arrays is not original
    assert claims.matching_weight_arrays is trees.matching_weight_arrays
    assert trees.Tree.label is not methods["label"]
    tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert dict(vars(trees.Tree)) == methods


def test_self_times_partition_the_top_level_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tree = trees.path_tree(9)
        immanants.check_two_row_chain(tree)
        immanants.extract_a_coeffs(tree)
    finally:
        tracer.restore()
    spans, top = tracer.summary()
    assert abs(sum(s["self_s"] for s in spans.values()) - top) < 1e-6
    assert spans["trees.weights"]["calls"] == 2
    assert len(tracer.weight_trees) == 1
    assert all(s["self_s"] <= s["total_s"] + 1e-9 for s in spans.values())


def test_check_counts_changed_missing_and_extra_lines():
    expected = worker.expected_ops("verify-all", 9, {})
    ops = dict(expected)
    assert worker.check("verify-all", 9, ops, {})["failed"] == 0
    ops["0"] = ops["0"].replace('"holds": true', '"holds": false')
    del ops["1"]
    ops["extra"] = "{}"
    result = worker.check("verify-all", 9, ops, {})
    assert result["attempted"] == 25721
    assert result["failed"] == 3


def test_seed_changes_only_the_sample_label():
    a = worker.expected_ops("verify-all", 0, {})
    b = worker.expected_ops("verify-all", 7, {})
    changed = [k for k in a if a[k] != b[k]]
    assert len(changed) == 1
    assert '"random:1000:seed=7"' in b[changed[0]]


def test_big_trees_draw_follows_the_seed():
    pools = worker.load_pools()
    first = worker.big_tree_specs(1, pools)
    assert first == worker.big_tree_specs(1, pools)
    assert first != worker.big_tree_specs(2, pools)
    assert len(first) == 8 + 3 + 30 + 20 + 10


def test_tail_percentile():
    assert run.tail_percentile([1.0] * 10) is None
    tail = run.tail_percentile([float(i) for i in range(20)])
    assert tail == {"percentile": 50, "value": 9.0}


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
