"""Span tracing for one traced pass, applied from outside the library.

The library is not instrumented.  `Tracer.install` replaces each traced
function by a wrapper in every `qimm` module namespace that binds it (the
modules use `from ... import`, so the defining module is not enough) and
wraps traced methods on their class; `Tracer.restore` puts every original
back.  Each call records one span: a name, a start, an end and the span
that was open when it began.  Spans live in flat arrays in memory and are
reduced once, after the pass, to per-name call counts, total time and self
time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# span name -> functions traced under it, as "module:attribute" or
# "module:Class.method".  A span name is the stem of its layer metric.
SPANS: dict[str, tuple[str, ...]] = {
    "trees.weights": ("qimm.trees:matching_weight_arrays",),
    "trees.weight_polys": ("qimm.trees:matching_weights",),
    "trees.generate": (
        "qimm.trees:pruefer_decode",
        "qimm.trees:path_tree",
        "qimm.trees:star_tree",
    ),
    "trees.label": ("qimm.trees:Tree.label",),
    "trees.q_laplacian": ("qimm.trees:q_laplacian",),
    "ratpoly.mul": ("qimm.ratpoly:RatPoly.__mul__",),
    "ratpoly.add": ("qimm.ratpoly:RatPoly.__add__",),
    "ratpoly.sub": ("qimm.ratpoly:RatPoly.__sub__",),
    "ratpoly.neg": ("qimm.ratpoly:RatPoly.__neg__",),
    "ratpoly.scale": ("qimm.ratpoly:RatPoly.scale",),
    "ratpoly.eval": ("qimm.ratpoly:RatPoly.__call__",),
    "characters.mn": ("qimm.characters:mn_character",),
    "characters.two_row": ("qimm.characters:two_row_char",),
    "characters.alpha_table": ("qimm.characters:alpha_table",),
    "characters.last_table": ("qimm.characters:last_table",),
    "characters.last_value": ("qimm.characters:last_value",),
    "characters.poly_power": ("qimm.characters:poly_power_coeffs",),
    "characters.syt_count": ("qimm.characters:syt_count",),
    "immanants.hook": ("qimm.immanants:check_hook_chain",),
    "immanants.oracle": (
        "qimm.immanants:oracle_equivalence_report",
        "qimm.immanants:immanant_bruteforce",
    ),
    "immanants.a_coeffs": (
        "qimm.immanants:extract_a_coeffs",
        "qimm.immanants:eq5_reconstruction_ok",
    ),
    "immanants.two_row": (
        "qimm.immanants:check_two_row_chain",
        "qimm.immanants:normalized_two_row_immanants",
    ),
    "immanants.immanant": ("qimm.immanants:immanant_tree",),
    "immanants.ratio": (
        "qimm.immanants:check_alpha_ratios",
        "qimm.immanants:check_last_row_ratios",
        "qimm.immanants:check_general_sr",
    ),
    "paths.enumerate": ("qimm.paths:enumerate_paths",),
    "paths.restricted": (
        "qimm.paths:restricted_count_histogram",
        "qimm.paths:count_restricted",
    ),
    "paths.probability": ("qimm.paths:probability_monotonicity",),
    "paths.syt": ("qimm.paths:enumerate_two_row_syt",),
    "paths.bijection": (
        "qimm.paths:callan_fwd",
        "qimm.paths:callan_inv",
        "qimm.paths:riordan_double_fwd",
        "qimm.paths:riordan_double_inv",
    ),
    "paths.identities": ("qimm.paths:sequence_identities",),
    "claims.two_row": ("qimm.claims:verify_two_row",),
    "claims.hook": ("qimm.claims:verify_hook",),
    "claims.alpha_ratios": ("qimm.claims:verify_alpha_ratios",),
    "claims.general_sr": ("qimm.claims:verify_general_sr",),
    "claims.callan": ("qimm.claims:verify_callan",),
    "claims.doubling": ("qimm.claims:verify_doubling",),
    "claims.counting": ("qimm.claims:verify_counting",),
    "claims.probability": ("qimm.claims:verify_probability",),
    "claims.identities": ("qimm.claims:verify_identities",),
    "claims.oracle": ("qimm.claims:verify_oracle",),
    "claims.a_coeffs": ("qimm.claims:verify_a_coeffs",),
    "claims.run": ("qimm.claims:run_claims", "qimm.claims:summarize"),
    "cli.render": ("qimm.cli:render_verdicts", "qimm.cli:_emit"),
}

# lru caches whose counters the traced pass reports, as "module:attribute"
CACHES = (
    "qimm.characters:_mn",
    "qimm.characters:two_row_char",
    "qimm.characters:_two_row_rec",
    "qimm.characters:alpha_table",
    "qimm.characters:trinomial_coeffs",
    "qimm.immanants:_hook_char_data",
)

ROOT = -1


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    obj = importlib.import_module(module_name)
    owner = obj
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


class Tracer:
    """Records nested spans around the functions listed in SPANS."""

    def __init__(self):
        self.span_names = list(SPANS)
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [ROOT]
        self.weight_trees: set = set()
        self.paths_listed = 0
        self.verdicts = 0
        self.bytes_out = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.span_names.index(name)
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack = self.stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # one span per item: the consumer's code runs between items
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    starts.append(clock())
                    ends.append(0.0)
                    stack.append(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        ends[idx] = clock()
                    yield item

            return functools.update_wrapper(gen_wrapper, fn)

        observe = self._observer(fn)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _observer(self, fn):
        """Counts taken at the layer boundary, outside the span's time."""
        name = fn.__name__
        if name == "matching_weight_arrays":
            return lambda args, result: self.weight_trees.add(args[0])
        if name == "enumerate_paths":
            def count_paths(args, result):
                self.paths_listed += len(result)
            return count_paths
        if name == "run_claims":
            def count_verdicts(args, result):
                self.verdicts += len(result)
            return count_verdicts
        if name == "_emit":
            def count_bytes(args, result):
                self.bytes_out += len(args[0].encode())
            return count_bytes
        return None

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a qimm module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qimm" or n.startswith("qimm.")]
        for name, targets in SPANS.items():
            for target in targets:
                owner, attr, original = _resolve(target)
                wrapped = self._wrap(original, name)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------

    def summary(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name: calls, total seconds and self seconds; and the
        seconds covered by top-level spans."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.parents[i]
            if p == ROOT:
                top += durations[i]
            else:
                covered[p] += durations[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.span_names}
        for i in range(n):
            row = out[self.span_names[self.names[i]]]
            row["calls"] += 1
            row["total_s"] += durations[i]
            row["self_s"] += durations[i] - covered[i]
        return out, top


def cache_counters() -> dict[str, dict[str, int]]:
    out = {}
    for target in CACHES:
        _, attr, fn = _resolve(target)
        info = fn.cache_info()
        out[attr] = {"hits": info.hits, "misses": info.misses,
                     "size": info.currsize}
    return out
