"""Command-line harness.

Subcommands
  alpha-table N        print the alpha_{n,k,i} table (rows i, columns k)
  last-table L         print the last_{l,k} triangle
  char SHAPE RHO       irreducible character value chi_shape(rho)
  immanant             immanant of a tree's q-Laplacian for one shape
  a-coeffs             the tree polynomials a_i(q)
  verify WHICH         run a verification sweep and stream verdicts

Tree sources: path:N, star:N, pruefer:a,b,c, file:PATH.
Exit codes: 0 all asserted verdicts hold, 1 verification failure,
2 usage error or cap violation.  QIMM_OUT_DIR sets the directory for
relative --out paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .characters import (
    AlphaTable,
    alpha_table,
    as_partition,
    last_table,
    mn_character,
)
from .claims import SweepConfig, run_claims, summarize
from .immanants import (
    ImmanantReport,
    InequalityVerdict,
    check_hook_chain,
    check_two_row_chain,
    extract_a_coeffs,
    immanant_bruteforce,
    immanant_tree,
)
from .trees import (
    Tree,
    parse_tree_file,
    path_tree,
    pruefer_decode,
    q_laplacian,
    star_tree,
)

USAGE_ERROR = 2
Q_GRID_MAX_POINTS = 10_000


@dataclass
class RunConfig:
    """Parsed invocation: subcommand, parameters, and output routing."""

    subcommand: str
    params: dict = field(default_factory=dict)
    fmt: str = "text"
    out: str | None = None
    seed: int = 0

    def __getattr__(self, name):
        try:
            return self.params[name]
        except KeyError:
            raise AttributeError(name) from None


def parse_tree_spec(spec: str) -> Tree:
    kind, _, rest = spec.partition(":")
    if kind == "path":
        return path_tree(int(rest))
    if kind == "star":
        return star_tree(int(rest))
    if kind == "pruefer":
        labels = tuple(int(x) for x in rest.split(",")) if rest else ()
        return pruefer_decode(labels, len(labels) + 2)
    if kind == "file":
        return parse_tree_file(Path(rest).read_text())
    raise ValueError(f"unknown tree spec {spec!r}; "
                     "use path:N, star:N, pruefer:a,b,c or file:PATH")


def parse_q_grid(spec: str) -> tuple[Fraction, ...]:
    """Grid literal lo:hi:step with exact rational endpoints, at most
    Q_GRID_MAX_POINTS points (counted before the grid is built)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad grid {spec!r}; use lo:hi:step")
    lo, hi, step = (Fraction(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid {spec!r}")
    count = (hi - lo) // step + 1
    if count > Q_GRID_MAX_POINTS:
        raise ValueError(f"grid {spec!r} has {count} points; "
                         f"capped at {Q_GRID_MAX_POINTS}")
    return tuple(lo + i * step for i in range(count))


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    p = Path(out)
    if not p.is_absolute():
        base = os.environ.get("QIMM_OUT_DIR")
        if base:
            p = Path(base) / p
    return p


def _emit(text: str, out: str | None) -> None:
    target = _resolve_out(out)
    if target is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


# -- table rendering -----------------------------------------------------------


def render_int_table(rows: Sequence[Sequence[int]], row_name: str,
                     col_name: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "rows": row_name,
                "columns": col_name,
                "entries": [[str(v) for v in row] for row in rows],
            },
            indent=2,
            sort_keys=True,
        )
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        width = max(len(r) for r in rows)
        w.writerow([f"{row_name}\\{col_name}"] + list(range(width)))
        for idx, row in enumerate(rows):
            w.writerow([idx] + [str(v) for v in row])
        return buf.getvalue()
    width = max(len(r) for r in rows)
    cell = max(
        len(str(v)) for row in rows for v in row
    )
    cell = max(cell, len(str(width - 1)), len(f"{row_name}{len(rows) - 1}"))
    head = " ".join(f"{col_name}{k}".rjust(cell + 2) for k in range(width))
    lines = [" " * (cell + 2) + head]
    for idx, row in enumerate(rows):
        cells = " ".join(str(v).rjust(cell + 2) for v in row)
        lines.append(f"{row_name}{idx}".rjust(cell + 2) + " " + cells)
    return "\n".join(lines)


def render_verdicts(verdicts: Sequence[InequalityVerdict], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(
            ["claim", "params", "holds", "degenerate", "asserted",
             "witness", "detail"]
        )
        for v in verdicts:
            w.writerow(
                [v.claim, json.dumps(v.params, sort_keys=True), v.holds,
                 v.degenerate, v.asserted, v.witness, v.detail]
            )
        return buf.getvalue()
    lines = [json.dumps(v.to_json(), sort_keys=True) for v in verdicts]
    lines.append(json.dumps({"summary": summarize(verdicts)}, sort_keys=True))
    return "\n".join(lines) + "\n"


# -- subcommand handlers ---------------------------------------------------------


def cmd_alpha_table(config: RunConfig) -> int:
    table = alpha_table(config.n)
    _emit(render_int_table(table.rows, "i", "k", config.fmt), config.out)
    return 0


def cmd_last_table(config: RunConfig) -> int:
    table = last_table(config.l)
    _emit(render_int_table(table.rows, "l", "k", config.fmt), config.out)
    return 0


def cmd_char(config: RunConfig) -> int:
    shape = as_partition(tuple(int(x) for x in config.shape.split(",")))
    rho = as_partition(
        tuple(sorted((int(x) for x in config.cycle_type.split(",")),
                     reverse=True))
    )
    value = mn_character(shape, rho)
    if config.fmt == "json":
        _emit(
            json.dumps(
                {"shape": list(shape), "cycle_type": list(rho),
                 "value": str(value)},
                sort_keys=True,
            ),
            config.out,
        )
    else:
        _emit(str(value), config.out)
    return 0


def cmd_immanant(config: RunConfig) -> int:
    tree = parse_tree_spec(config.tree)
    shape = as_partition(tuple(int(x) for x in config.shape.split(",")))
    if config.algorithm == "bruteforce":
        poly = immanant_bruteforce(
            q_laplacian(tree), shape, normalized=config.normalized
        )
    else:
        poly = immanant_tree(tree, shape, normalized=config.normalized)
    report = ImmanantReport(
        tree_label=tree.label(),
        shape=shape,
        normalized=poly,
        algorithm=config.algorithm,
    )
    if config.fmt == "json":
        _emit(
            json.dumps(
                {
                    "tree": report.tree_label,
                    "shape": list(shape),
                    "normalized": config.normalized,
                    "algorithm": report.algorithm,
                    "coeffs": poly.to_json_list(),
                },
                sort_keys=True,
            ),
            config.out,
        )
    else:
        _emit(str(poly), config.out)
    return 0


def cmd_a_coeffs(config: RunConfig) -> int:
    tree = parse_tree_spec(config.tree)
    coeffs = extract_a_coeffs(tree)
    if config.fmt == "json":
        _emit(
            json.dumps(
                {
                    "tree": tree.label(),
                    "a": [p.to_json_list() for p in coeffs],
                },
                sort_keys=True,
            ),
            config.out,
        )
    else:
        _emit(
            "\n".join(f"a_{i} = {p}" for i, p in enumerate(coeffs)),
            config.out,
        )
    return 0


def cmd_verify(config: RunConfig) -> int:
    sweep = SweepConfig(
        n_max=config.n_max,
        exhaustive_tree_max=min(7, config.n_max),
        hook_n_max=config.hook_n_max,
        oracle_n_max=config.oracle_n_max,
        random_count=config.random_trees,
        seed=config.seed,
        alpha_n_max=config.alpha_n_max,
        last_l_max=config.l_max,
        sr_l_max=config.sr_l_max,
        sr_max=config.sr_max,
    )
    if config.deep:
        sweep = sweep.deepen()
    if config.q_grid is not None and (config.which != "hook"
                                      or config.tree is None):
        raise ValueError("--q-grid applies only to verify hook --tree")
    if config.tree is not None:
        if config.which not in ("two-row", "hook"):
            raise ValueError("--tree applies only to verify two-row|hook")
        tree = parse_tree_spec(config.tree)
        if config.which == "two-row":
            verdicts = check_two_row_chain(tree)
        else:
            grid = parse_q_grid(config.q_grid) if config.q_grid else None
            verdicts = check_hook_chain(tree, grid)
    else:
        verdicts = run_claims(config.which, sweep)
    fmt = config.fmt if config.fmt != "text" else "json"
    _emit(render_verdicts(verdicts, fmt), config.out)
    return 0 if summarize(verdicts)["all_ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimm",
        description="Exact immanant, character, and lattice-path "
                    "verification for tree q-Laplacians.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
        p.add_argument("--out", default=None,
                       help="output path (relative paths resolve under "
                            "QIMM_OUT_DIR)")

    p = sub.add_parser("alpha-table", help="alpha_{n,k,i} table")
    p.add_argument("n", type=int)
    add_common(p)

    p = sub.add_parser("last-table", help="last_{l,k} triangle")
    p.add_argument("l", type=int)
    add_common(p)

    p = sub.add_parser("char", help="character value chi_shape(cycle type)")
    p.add_argument("shape", help="comma separated partition, e.g. 3,1")
    p.add_argument("cycle_type", help="comma separated cycle type")
    add_common(p)

    p = sub.add_parser("immanant", help="immanant of a tree q-Laplacian")
    p.add_argument("--tree", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--algorithm", choices=("matching", "bruteforce"),
                   default="matching")
    add_common(p)

    p = sub.add_parser("a-coeffs", help="tree polynomials a_i(q)")
    p.add_argument("--tree", required=True)
    add_common(p)

    p = sub.add_parser("verify", help="verification sweeps")
    p.add_argument(
        "which",
        choices=("two-row", "hook", "alpha-ratios", "general-sr", "paths",
                 "probability", "identities", "all"),
    )
    p.add_argument("--tree", default=None,
                   help="check a single tree (two-row and hook only)")
    p.add_argument("--n-max", type=int, default=8,
                   help="largest n for the two-row tree sweep")
    p.add_argument("--hook-n-max", type=int, default=6)
    p.add_argument("--oracle-n-max", type=int, default=6)
    p.add_argument("--random-trees", type=int, default=1000,
                   help="sample size per n above the exhaustive cap")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha-n-max", type=int, default=40)
    p.add_argument("--l-max", type=int, default=40)
    p.add_argument("--sr-max", type=int, default=4)
    p.add_argument("--sr-l-max", type=int, default=12)
    p.add_argument("--q-grid", default=None,
                   help="lo:hi:step with exact rationals, e.g. -10:10:1/2")
    p.add_argument("--deep", action="store_true",
                   help="raise the sweep caps")
    add_common(p)

    return parser


def run(config: RunConfig) -> int:
    """Dispatch a validated configuration to its subcommand handler."""
    handlers = {
        "alpha-table": cmd_alpha_table,
        "last-table": cmd_last_table,
        "char": cmd_char,
        "immanant": cmd_immanant,
        "a-coeffs": cmd_a_coeffs,
        "verify": cmd_verify,
    }
    return handlers[config.subcommand](config)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("subcommand", "format", "out", "func")
    }
    config = RunConfig(
        subcommand=args.subcommand,
        params=params,
        fmt=args.format,
        out=args.out,
        seed=params.get("seed", 0),
    )
    try:
        return run(config)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        print("error: input beyond capacity: the computation exceeded "
              "Python's recursion limit", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
