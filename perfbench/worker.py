"""One benchmark pass in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed S
        --trace 0|1 --work-dir DIR

Imports qimm, runs one pass of workload W (the timed part), then checks
every output against the references in perfbench/refs and prints one JSON
object with the pass's wall time, CPU time, peak RSS, operation counts and,
with --trace 1, the per-layer figures.  run.py starts one worker per pass,
so the library's lru caches start cold in every pass, as they do in every
CLI call.  record_refs.py uses the same pass and canonical forms to write
the references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import lzma
import random
import resource
import sys
import time
from pathlib import Path

from qimm import characters, claims, cli, immanants, trees

import tracing

REFS = Path(__file__).resolve().parent / "refs"
VERIFY_ALL_REF = REFS / "verify-all.seed0.jsonl.xz"
POOLS_JSON = REFS / "pools.json"
DIGESTS_JSON = REFS / "digests.json"

# big-trees: one tree per family member, plus seeded draws from recorded
# pools of uniform Pruefer sequences (the draw, not the pool, follows the
# seed, so every drawn tree has a reference).
BIG_PATHS = tuple(range(18, 26))
BIG_STARS = (50, 100, 200)
BIG_RANDOM = ((12, 30), (16, 20), (20, 10))  # (n, trees drawn per pass)
POOL_SIZE = 100
QUERIES = ("immanant", "a_coeffs", "two_row")

# tables-paths: character tables, alpha/last tables and the --deep path caps
MN_N = 17
TWO_ROW_N_MAX = 60
ALPHA_N = 300
LAST_L = 200
PATH_CAPS = {"count_n_max": 16, "prob_n_max": 16, "callan_l_max": 7,
             "double_l_max": 8}

# The seeded two-row sample enters the verify-all stream only through the
# label of its verdict line: Theorem 2 holds for every tree, so the verdict
# and witness read as they did for seed 0.
SAMPLE_LABEL = '"random:1000:seed={seed}"'

WORKLOADS = ("verify-all", "big-trees", "tables-paths")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdict_lines(verdicts) -> list[str]:
    return [json.dumps(v.to_json(), sort_keys=True) for v in verdicts]


def _attempt(call):
    try:
        return call()
    except Exception as exc:  # an operation that raises counts as failed
        return exc


# -- workload inputs ---------------------------------------------------------


def big_tree_specs(seed: int, pools: dict) -> list[tuple[str, str, object]]:
    """(key, family, argument) for every tree of one big-trees pass."""
    specs = [(f"path:{n}", "path", n) for n in BIG_PATHS]
    specs += [(f"star:{n}", "star", n) for n in BIG_STARS]
    rng = random.Random(seed)
    for n, count in BIG_RANDOM:
        pool = pools[str(n)]
        for idx in sorted(rng.sample(range(len(pool)), count)):
            specs.append((f"pool:{n}:{idx}", "pruefer", (tuple(pool[idx]), n)))
    return specs


def workload_caps(workload: str, seed: int, pools: dict) -> dict:
    """Caps and inputs of one workload, for the run metadata."""
    if workload == "verify-all":
        return {"argv": ["verify", "all", "--seed", str(seed)],
                "sweep": vars(claims.SweepConfig(seed=seed))}
    if workload == "big-trees":
        return {"trees": [key for key, _, _ in big_tree_specs(seed, pools)],
                "queries": list(QUERIES), "pool_size": POOL_SIZE}
    return {"mn_n": MN_N, "two_row_n_max": TWO_ROW_N_MAX,
            "alpha_n": ALPHA_N, "last_l": LAST_L, "claims": PATH_CAPS}


# -- the timed pass ----------------------------------------------------------


def build_tree(family: str, arg) -> trees.Tree:
    if family == "path":
        return trees.path_tree(arg)
    if family == "star":
        return trees.star_tree(arg)
    return trees.pruefer_decode(*arg)


def tree_queries(tree: trees.Tree) -> tuple:
    """The library calls behind `qimm immanant --shape n-2,2 --normalized`,
    `qimm a-coeffs` and `qimm verify two-row --tree`."""
    n = tree.n
    return (
        _attempt(lambda: immanants.immanant_tree(
            tree, (n - 2, 2), normalized=True)),
        _attempt(lambda: immanants.extract_a_coeffs(tree)),
        _attempt(lambda: immanants.check_two_row_chain(tree)),
    )


def run_pass(workload: str, seed: int, pools: dict, work_dir: Path):
    """Run one pass; return raw results for `canonical_ops`."""
    if workload == "verify-all":
        out = work_dir / f"verify-all-{seed}.jsonl"
        rc = _attempt(lambda: cli.main(
            ["verify", "all", "--seed", str(seed), "--out", str(out)]))
        return rc, out
    if workload == "big-trees":
        results = []
        for key, family, arg in big_tree_specs(seed, pools):
            tree = build_tree(family, arg)
            results.append((key, tree, tree_queries(tree)))
        return results
    if workload == "tables-paths":
        parts = list(characters.partitions(MN_N))
        results = {}
        for idx, shape in enumerate(parts):
            results[f"mn:{idx}"] = _attempt(lambda: [
                characters.mn_character(shape, rho) for rho in parts])
        for n in range(1, TWO_ROW_N_MAX + 1):
            half = n // 2
            results[f"two_row:{n}"] = _attempt(lambda: [
                [characters.two_row_char(n, k, j) for j in range(half + 1)]
                for k in range(half + 1)])
        results["alpha_table"] = _attempt(
            lambda: characters.alpha_table(ALPHA_N).rows)
        results["last_table"] = _attempt(
            lambda: characters.last_table(LAST_L).rows)
        config = claims.SweepConfig(**PATH_CAPS)
        for which in ("paths", "probability"):
            results[which] = _attempt(lambda: claims.run_claims(which, config))
        return results
    raise ValueError(f"unknown workload {workload!r}")


# -- checking ----------------------------------------------------------------


def canonical_ops(workload: str, raw) -> dict[str, str | None]:
    """Operation key -> canonical text; None for an operation that failed."""
    ops: dict[str, str | None] = {}
    if workload == "verify-all":
        rc, out = raw
        lines = out.read_text().splitlines() if out.exists() else []
        for i, line in enumerate(lines):
            ops[str(i)] = line if rc == 0 else None
        return ops
    if workload == "big-trees":
        for key, tree, results in raw:
            ops.update(tree_ops(key, tree, results))
        return ops
    for key, value in raw.items():
        if key in ("paths", "probability"):
            if isinstance(value, Exception):
                continue  # its verdict lines are all missing
            for i, line in enumerate(verdict_lines(value)):
                ops[f"{key}:{i}"] = line
        elif isinstance(value, Exception):
            ops[key] = None
        else:
            ops[key] = json.dumps(value)
    return ops


def tree_ops(key: str, tree: trees.Tree, results: tuple
             ) -> dict[str, str | None]:
    """Canonical JSON of the three queries on one tree, as the CLI's
    --format json prints them."""
    imm, a, chain = results
    n = tree.n
    label = tree.label()
    texts = (
        lambda: json.dumps({"tree": label, "shape": [n - 2, 2],
                            "coeffs": imm.to_json_list()}, sort_keys=True),
        lambda: json.dumps({"tree": label,
                            "a": [p.to_json_list() for p in a]},
                           sort_keys=True),
        lambda: "\n".join(verdict_lines(chain)),
    )
    return {f"{key}/{query}": None if isinstance(res, Exception) else text()
            for query, res, text in zip(QUERIES, results, texts)}


def load_pools() -> dict:
    return json.loads(POOLS_JSON.read_text())


def expected_ops(workload: str, seed: int, pools: dict) -> dict[str, str]:
    """Operation key -> reference (verdict text, or digest of the text)."""
    if workload == "verify-all":
        text = lzma.decompress(VERIFY_ALL_REF.read_bytes()).decode()
        old, new = SAMPLE_LABEL.format(seed=0), SAMPLE_LABEL.format(seed=seed)
        return {str(i): line.replace(old, new)
                for i, line in enumerate(text.splitlines())}
    digests = json.loads(DIGESTS_JSON.read_text())
    if workload == "big-trees":
        return {f"{key}/{query}": digests["big-trees"][key][query]
                for key, _, _ in big_tree_specs(seed, pools)
                for query in QUERIES}
    return digests["tables-paths"]


def check(workload: str, seed: int, ops: dict, pools: dict) -> dict:
    """Compare every operation with its reference."""
    expected = expected_ops(workload, seed, pools)
    by_text = workload == "verify-all"
    failed = []
    for key, want in expected.items():
        got = ops.get(key)
        if got is None or (got if by_text else digest(got)) != want:
            failed.append(key)
    failed += sorted(set(ops) - set(expected))
    return {"attempted": len(expected), "failed": len(failed),
            "failed_ops": failed[:10]}


# -- entry point -------------------------------------------------------------


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def layer_metrics(tracer: tracing.Tracer, wall_s: float
                  ) -> tuple[dict, dict]:
    """Per-layer metrics and the span table of one traced pass."""
    spans, top_s = tracer.summary()
    caches = tracing.cache_counters()

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names)

    def calls(name):
        return spans[name]["calls"]

    def hit_ratio(name):
        c = caches[name]
        lookups = c["hits"] + c["misses"]
        return c["hits"] / lookups if lookups else 0.0

    weight_calls = calls("trees.weights")
    m = {
        "trees.weights_s": self_s("trees.weights"),
        "trees.weights_calls": weight_calls,
        "trees.weights_recompute_ratio":
            weight_calls / len(tracer.weight_trees)
            if tracer.weight_trees else 0.0,
        "trees.generate_s": self_s("trees.generate"),
        "trees.trees": calls("trees.generate"),
        "ratpoly.self_s": self_s(*(n for n in spans
                                   if n.startswith("ratpoly."))),
        "ratpoly.mul_calls": calls("ratpoly.mul"),
        "ratpoly.add_calls": calls("ratpoly.add"),
        "ratpoly.scale_calls": calls("ratpoly.scale"),
        "ratpoly.eval_calls": calls("ratpoly.eval"),
    }
    for stem in ("hook", "oracle", "a_coeffs", "two_row", "immanant",
                 "ratio"):
        m[f"immanants.{stem}_s"] = self_s(f"immanants.{stem}")
    m.update({
        "characters.mn_s": self_s("characters.mn"),
        "characters.mn_calls": calls("characters.mn"),
        "characters.mn_cache_hit_ratio": hit_ratio("_mn"),
        "characters.two_row_s": self_s("characters.two_row"),
        "characters.two_row_cache_hit_ratio": hit_ratio("two_row_char"),
        "characters.alpha_table_s": self_s("characters.alpha_table"),
        "characters.last_table_s": self_s("characters.last_table"),
        "paths.enumerate_s": self_s("paths.enumerate"),
        "paths.paths": tracer.paths_listed,
        "paths.restricted_s": self_s("paths.restricted"),
        "paths.probability_s": self_s("paths.probability"),
        "paths.syt_s": self_s("paths.syt"),
        "paths.bijection_s": self_s("paths.bijection"),
    })
    for name in tracing.SPANS:
        if name.startswith("claims.") and name != "claims.run":
            m[f"{name}_s"] = self_s(name)
    m["claims.verdicts"] = tracer.verdicts
    m["cli.render_s"] = self_s("cli.render")
    m["cli.bytes_out"] = tracer.bytes_out
    for name, c in caches.items():
        m[f"cache.{name}.hit_ratio"] = hit_ratio(name)
        m[f"cache.{name}.size"] = c["size"]
    m["trace.coverage_frac"] = top_s / wall_s
    return m, spans


def scaling_curve() -> dict[str, float]:
    """Seconds of one matching_weight_arrays call per path:N."""
    curve = {}
    for n in BIG_PATHS:
        tree = trees.path_tree(n)
        t0 = time.perf_counter()
        trees.matching_weight_arrays(tree)
        curve[f"trees.weights_s.path-{n}"] = time.perf_counter() - t0
    return curve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    pools = load_pools()

    tracer = tracing.Tracer() if args.trace else None
    cpu0 = _cpu_s()
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        raw = run_pass(args.workload, args.seed, pools, args.work_dir)
    finally:
        wall_s = time.perf_counter() - t0
        if tracer:
            tracer.restore()
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb,
              "caps": workload_caps(args.workload, args.seed, pools)}
    if tracer:
        result["layers"], result["spans"] = layer_metrics(tracer, wall_s)
        result["layers"].update(scaling_curve())
    ops = canonical_ops(args.workload, raw)
    if args.workload == "verify-all":
        rc, out = raw
        result["stream_sha256"] = (hashlib.sha256(out.read_bytes()).hexdigest()
                                   if out.exists() else None)
        result["exit_code"] = rc if isinstance(rc, int) else repr(rc)
        out.unlink(missing_ok=True)
    result.update(check(args.workload, args.seed, ops, pools))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
