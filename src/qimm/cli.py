"""Command-line harness.

Subcommands
  alpha-table N        print the alpha_{n,k,i} table (rows i, columns k)
  last-table L         print the last_{l,k} triangle
  char SHAPE RHO       irreducible character value chi_shape(rho)
  immanant             immanant of a tree's q-Laplacian for one shape
  a-coeffs             the tree polynomials a_i(q)
  verify WHICH         run a verification sweep and stream verdicts

Tree sources: path:N, star:N, pruefer:a,b,c[@n=N], file:PATH.
Exit codes: 0 all asserted verdicts hold, 1 verification failure,
2 usage error or cap violation (a reader that closed stdout included).
QIMM_OUT_DIR sets the directory for relative --out paths.

Every renderer makes lines or small pieces of text and hands them to
_write, the one code that writes to stdout or an --out file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .characters import alpha_table, as_partition, last_table, mn_character
from .claims import (
    ALPHA_TABLE_MAX_N,
    CSV_ORDER,
    JSON,
    LAST_TABLE_MAX_L,
    OUTCOMES,
    VERIFY_NAMES,
    SweepConfig,
    check_cap,
    csv_row,
    run_claims,
    summary,
    writers,
)
from .immanants import (
    Verdicts,
    extract_a_coeffs,
    hook_chain,
    immanant_bruteforce,
    immanant_tree,
    two_row_chain,
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
_EMIT_CHUNK = 1 << 16  # characters per piece in _emit

# tables are indented; every other JSON line is claims.JSON's
_JSON_TABLE = json.JSONEncoder(indent=2, sort_keys=True)

# The verify sweep-cap flags: flag, the SweepConfig field it sets (its
# default lives there only), help.
CAP_FLAGS = (
    ("--n-max", "n_max", "largest n for the two-row tree sweep"),
    ("--hook-n-max", "hook_n_max", None),
    ("--oracle-n-max", "oracle_n_max", None),
    ("--random-trees", "random_count",
     "sample size per n above the exhaustive cap"),
    ("--seed", "seed", None),
    ("--alpha-n-max", "alpha_n_max", None),
    ("--l-max", "last_l_max", None),
    ("--sr-max", "sr_max", None),
    ("--sr-l-max", "sr_l_max", None),
)


def parse_tree_spec(spec: str) -> Tree:
    if spec == "n1":  # the label of the one-vertex tree
        return Tree(1, ())
    kind, _, rest = spec.partition(":")
    if kind == "path":
        return path_tree(int(rest))
    if kind == "star":
        return star_tree(int(rest))
    if kind == "pruefer":
        body, at, n = rest.partition("@n=")
        labels = tuple(int(x) for x in body.split(",")) if body else ()
        return pruefer_decode(labels, int(n) if at else len(labels) + 2)
    if kind == "file":
        return parse_tree_file(Path(rest).read_text())
    raise ValueError(f"unknown tree spec {spec!r}; "
                     "use path:N, star:N, pruefer:a,b,c or file:PATH")


def parse_q_grid(spec: str) -> tuple[Fraction, ...]:
    """Grid literal lo:hi:step with exact rational endpoints, at most
    Q_GRID_MAX_POINTS points (counted before the grid is built)."""
    parts = spec.split(":")
    try:
        lo, hi, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad grid {spec!r}; use lo:hi:step") from None
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid {spec!r}")
    count = (hi - lo) // step + 1
    if count > Q_GRID_MAX_POINTS:
        raise ValueError(f"grid {spec!r} has {count} points; "
                         f"capped at {Q_GRID_MAX_POINTS}")
    return tuple(lo + i * step for i in range(count))


def _write(lines: Iterable[str], out: str | None) -> None:
    """The one writer of every byte qimm prints: `lines`, in order, to the
    --out file (under QIMM_OUT_DIR when relative) or to stdout, flushed so
    that a reader that closed it fails here.  Stdout is then pointed at
    devnull, so the interpreter's own flush at exit cannot raise again,
    and the BrokenPipeError goes on to the caller."""
    if out is not None:
        target = Path(out)
        if not target.is_absolute() and os.environ.get("QIMM_OUT_DIR"):
            target = Path(os.environ["QIMM_OUT_DIR"]) / target
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as fh:
            fh.writelines(lines)
        return
    try:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _error(message: str) -> None:
    """One `error:` line to stderr.  A reader that closed stderr as well
    (`2>&1 | head -1`) is let go, with stderr pointed at devnull as _write
    does for stdout, so the exit status stays the caller's."""
    try:
        print(f"error: {message}", file=sys.stderr, flush=True)
    except BrokenPipeError:
        if sys.stderr is sys.__stderr__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _emit(text: str, out: str | None) -> None:
    """`text` and a final newline, in pieces of at most _EMIT_CHUNK
    characters: one large write to a pipe whose reader has gone can
    return without error, and the next piece then raises."""
    if not text.endswith("\n"):
        text += "\n"
    _write((text[start:start + _EMIT_CHUNK]
            for start in range(0, len(text), _EMIT_CHUNK)), out)


def _emit_record(args: argparse.Namespace, text: str, record: dict) -> None:
    """Emit `record` as sorted-key JSON under --format json, else `text`."""
    _emit(JSON.encode(record) if args.format == "json"
          else text, args.out)


# -- rendering -------------------------------------------------------------------


def render_int_table(rows: Sequence[Sequence[int]], row_name: str,
                     col_name: str, fmt: str) -> Iterator[str]:
    """The table as newline-ended rows (text, CSV), or as json.dumps'
    indented text in the encoder's small pieces."""
    width = max(len(r) for r in rows)
    if fmt == "json":
        yield from _JSON_TABLE.iterencode({
            "rows": row_name,
            "columns": col_name,
            "entries": [[str(v) for v in row] for row in rows],
        })
        yield "\n"
    elif fmt == "csv":
        yield csv_row([f"{row_name}\\{col_name}", *range(width)])
        for idx, row in enumerate(rows):
            yield csv_row([idx, *row])
    else:
        cell = max(max(len(str(v)) for row in rows for v in row),
                   len(str(width - 1)), len(f"{row_name}{len(rows) - 1}"))
        yield " " * (cell + 2) + " ".join(
            f"{col_name}{k}".rjust(cell + 2) for k in range(width)) + "\n"
        for idx, row in enumerate(rows):
            cells = " ".join(str(v).rjust(cell + 2) for v in row)
            yield f"{row_name}{idx}".rjust(cell + 2) + " " + cells + "\n"


def render_verdicts(verdicts: Verdicts, fmt: str,
                    out: str | None) -> dict[str, list[int]]:
    """The verify stream to `out`, or stdout when None: one CSV row or
    JSON line per row of each plan, by its outcome and detail's writer
    (claims.writers), written as it is made and tallied in the loop that
    makes it; JSON closes on the summary line.  Returns the tally."""
    tally = defaultdict(lambda: [0] * OUTCOMES)

    def lines():
        if fmt == "csv":
            yield csv_row(CSV_ORDER)
        for plan in verdicts.plans:
            counts, line = tally[plan.form.claim], writers(plan.form, fmt)
            for outcome, detail, values in plan.rows():
                counts[outcome] += 1
                yield line[outcome][detail](values)
        if fmt != "csv":
            yield JSON.encode({"summary": summary(tally)}) + "\n"

    _write(lines(), out)
    return tally


# -- subcommand handlers ---------------------------------------------------------


def cmd_alpha_table(args: argparse.Namespace) -> int:
    check_cap("alpha-table N", args.n, ALPHA_TABLE_MAX_N)
    table = alpha_table(args.n)
    _write(render_int_table(table.rows, "i", "k", args.format), args.out)
    return 0


def cmd_last_table(args: argparse.Namespace) -> int:
    check_cap("last-table L", args.l, LAST_TABLE_MAX_L)
    table = last_table(args.l)
    _write(render_int_table(table.rows, "l", "k", args.format), args.out)
    return 0


def cmd_char(args: argparse.Namespace) -> int:
    # mn_character checks both, the shape first
    shape = [int(x) for x in args.shape.split(",")]
    rho = sorted((int(x) for x in args.cycle_type.split(",")), reverse=True)
    value = mn_character(shape, rho)
    _emit_record(args, str(value), {"shape": shape, "cycle_type": rho,
                                    "value": str(value)})
    return 0


def cmd_immanant(args: argparse.Namespace) -> int:
    tree = parse_tree_spec(args.tree)
    shape = as_partition(tuple(int(x) for x in args.shape.split(",")))
    if args.algorithm == "bruteforce":
        poly = immanant_bruteforce(
            q_laplacian(tree), shape, normalized=args.normalized
        )
    else:
        poly = immanant_tree(tree, shape, normalized=args.normalized)
    _emit_record(args, str(poly), {"tree": tree.label(),
                                   "shape": list(shape),
                                   "normalized": args.normalized,
                                   "algorithm": args.algorithm,
                                   "coeffs": poly.to_json_list()})
    return 0


def cmd_a_coeffs(args: argparse.Namespace) -> int:
    tree = parse_tree_spec(args.tree)
    coeffs = extract_a_coeffs(tree)
    text = "\n".join(f"a_{i} = {p}" for i, p in enumerate(coeffs))
    _emit_record(args, text, {"tree": tree.label(),
                              "a": [p.to_json_list() for p in coeffs]})
    return 0


def _sweep_config(caps: dict, deep: bool) -> SweepConfig:
    """The SweepConfig of the typed cap flags, deepened under --deep.  A
    refusal, which SweepConfig words as "<field> ...", names the flag of
    every field it names, and says so when --deep raised the value past
    its cap."""
    typed = None
    try:
        typed = SweepConfig(**caps)
        return typed.deepen() if deep else typed
    except ValueError as err:
        field = str(err).partition(" ")[0]
        raised = (f" (--deep raised it from {getattr(typed, field)})"
                  if typed is not None else "")
        flags = {name: flag for flag, name, _ in CAP_FLAGS}
        message = re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(err))
        raise ValueError(message + raised) from None


def cmd_verify(args: argparse.Namespace) -> int:
    # a cap flag is in the namespace only when typed (default SUPPRESS)
    caps = {name: getattr(args, name) for _, name, _ in CAP_FLAGS
            if hasattr(args, name)}
    if args.q_grid is not None and (args.which != "hook"
                                    or args.tree is None):
        raise ValueError("--q-grid applies only to verify hook --tree")
    if args.tree is not None:
        if args.which not in ("two-row", "hook"):
            raise ValueError("--tree applies only to verify two-row|hook")
        ignored = ([flag for flag, name, _ in CAP_FLAGS if name in caps]
                   + ["--deep"] * args.deep)
        if ignored:
            raise ValueError("--tree checks one tree and takes no sweep "
                             f"flag: {', '.join(ignored)}")
        tree = parse_tree_spec(args.tree)
        if tree.n < 2:
            raise ValueError("--tree needs a tree on at least 2 vertices")
        if args.which == "two-row":
            verdicts = two_row_chain(tree)
        else:
            grid = None if args.q_grid is None else parse_q_grid(args.q_grid)
            verdicts = hook_chain(tree, grid)
    else:
        verdicts = run_claims(args.which, _sweep_config(caps, args.deep))
    fmt = args.format if args.format != "text" else "json"
    tally = render_verdicts(verdicts, fmt, args.out)
    return 0 if summary(tally)["all_ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimm",
        description="Exact immanant, character, and lattice-path "
                    "verification for tree q-Laplacians.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, handler, formats=("text", "csv", "json")):
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None,
                       help="output path (relative paths resolve under "
                            "QIMM_OUT_DIR)")

    p = sub.add_parser("alpha-table", help="alpha_{n,k,i} table")
    p.add_argument("n", type=int)
    add_common(p, cmd_alpha_table)

    p = sub.add_parser("last-table", help="last_{l,k} triangle")
    p.add_argument("l", type=int)
    add_common(p, cmd_last_table)

    p = sub.add_parser("char", help="character value chi_shape(cycle type)")
    p.add_argument("shape", help="comma separated partition, e.g. 3,1")
    p.add_argument("cycle_type", help="comma separated cycle type")
    add_common(p, cmd_char, ("text", "json"))

    p = sub.add_parser("immanant", help="immanant of a tree q-Laplacian")
    p.add_argument("--tree", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--algorithm", choices=("matching", "bruteforce"),
                   default="matching")
    add_common(p, cmd_immanant, ("text", "json"))

    p = sub.add_parser("a-coeffs", help="tree polynomials a_i(q)")
    p.add_argument("--tree", required=True)
    add_common(p, cmd_a_coeffs, ("text", "json"))

    p = sub.add_parser("verify", help="verification sweeps")
    p.add_argument("which", choices=VERIFY_NAMES)
    p.add_argument("--tree", default=None,
                   help="check a single tree (two-row and hook only)")

    for flag, name, help in CAP_FLAGS:
        p.add_argument(flag, type=int, dest=name, default=argparse.SUPPRESS,
                       metavar=flag[2:].replace("-", "_").upper(), help=help)
    p.add_argument("--q-grid", default=None,
                   help="lo:hi:step with exact rationals, e.g. -10:10:1/2")
    p.add_argument("--deep", action="store_true",
                   help="raise the sweep caps")
    add_common(p, cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        _error(str(exc))
        return USAGE_ERROR
    except MemoryError:
        _error("input beyond capacity: the computation ran out of memory")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
