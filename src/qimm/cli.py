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
2 usage error or cap violation.  QIMM_OUT_DIR sets the directory for
relative --out paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Sequence, TextIO

from .characters import alpha_table, as_partition, last_table, mn_character
from .claims import (
    ALPHA_TABLE_MAX_N,
    LAST_TABLE_MAX_L,
    VERIFY_NAMES,
    SweepConfig,
    check_cap,
    run_claims,
    summarize,
)
from .immanants import (
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
_EMIT_CHUNK = 1 << 16  # characters per write in _emit

# one encoder for every sorted-key JSON line: json.dumps builds a new
# JSONEncoder per call when given sort_keys
_JSON = json.JSONEncoder(sort_keys=True)

# A verify JSON line is _JSON.encode(v.to_json()) written from one
# template: the verdict's fields in name order, each value encoded as
# _JSON encodes its type (strings by the escaper it uses under
# ensure_ascii).  A field of a type with no encoder here fails at import.
_FIELD_ENCODERS = {"bool": {True: "true", False: "false"}.__getitem__,
                   "str": encode_basestring_ascii, "dict": _JSON.encode}


def _field_encoder(field):
    if field.type not in _FIELD_ENCODERS:
        raise TypeError(f"InequalityVerdict.{field.name} is of type "
                        f"{field.type}, which render_verdicts cannot encode")
    return _FIELD_ENCODERS[field.type]


_VERDICT_FIELDS = sorted(fields(InequalityVerdict), key=attrgetter("name"))
_VERDICT_LINE = "{%s}\n" % ", ".join(
    f"{encode_basestring_ascii(f.name)}: %s" for f in _VERDICT_FIELDS)
_VERDICT_ENCODERS = tuple(map(_field_encoder, _VERDICT_FIELDS))
_verdict_values = attrgetter(*(f.name for f in _VERDICT_FIELDS))

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


@contextmanager
def _open_out(out: str | None):
    """The --out file, opened for writing under QIMM_OUT_DIR when
    relative, or stdout when there is none.  Stdout is flushed on the way
    out, so a reader that closed it fails inside main."""
    if out is None:
        yield sys.stdout
        sys.stdout.flush()
        return
    target = Path(out)
    if not target.is_absolute() and os.environ.get("QIMM_OUT_DIR"):
        target = Path(os.environ["QIMM_OUT_DIR"]) / target
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as fh:
        yield fh


def _emit(text: str, out: str | None) -> None:
    """`text` and a final newline, in writes of at most _EMIT_CHUNK
    characters: one large write to a pipe whose reader has gone can
    return without error, and the next chunk then raises inside main."""
    if not text.endswith("\n"):
        text += "\n"
    with _open_out(out) as fh:
        for start in range(0, len(text), _EMIT_CHUNK):
            fh.write(text[start:start + _EMIT_CHUNK])


def _emit_record(args: argparse.Namespace, text: str, record: dict) -> None:
    """Emit `record` as sorted-key JSON under --format json, else `text`."""
    _emit(_JSON.encode(record) if args.format == "json"
          else text, args.out)


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


def render_verdicts(verdicts: Sequence[InequalityVerdict], fmt: str,
                    file: TextIO, summary: dict) -> None:
    """The verify stream: one CSV row or JSON line per verdict, JSON
    closing on the `summary` line.  Each line is written to `file` as it
    is made."""
    if fmt == "csv":
        w = csv.writer(file)
        w.writerow(f.name for f in fields(InequalityVerdict))
        for v in verdicts:
            row = v.to_json()
            row["params"] = _JSON.encode(v.params)
            w.writerow(row.values())
    else:
        write = file.write
        for v in verdicts:
            write(_VERDICT_LINE % tuple([encode(value) for encode, value
                                         in zip(_VERDICT_ENCODERS,
                                                _verdict_values(v))]))
        write(_JSON.encode({"summary": summary}) + "\n")


# -- subcommand handlers ---------------------------------------------------------


def cmd_alpha_table(args: argparse.Namespace) -> int:
    check_cap("alpha-table N", args.n, ALPHA_TABLE_MAX_N)
    table = alpha_table(args.n)
    _emit(render_int_table(table.rows, "i", "k", args.format), args.out)
    return 0


def cmd_last_table(args: argparse.Namespace) -> int:
    check_cap("last-table L", args.l, LAST_TABLE_MAX_L)
    table = last_table(args.l)
    _emit(render_int_table(table.rows, "l", "k", args.format), args.out)
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
            verdicts = check_two_row_chain(tree)
        else:
            grid = parse_q_grid(args.q_grid) if args.q_grid else None
            verdicts = check_hook_chain(tree, grid)
    else:
        verdicts = run_claims(args.which, _sweep_config(caps, args.deep))
    fmt = args.format if args.format != "text" else "json"
    summary = summarize(verdicts)
    with _open_out(args.out) as fh:
        render_verdicts(verdicts, fmt, fh, summary)
    return 0 if summary["all_ok"] else 1


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
        if isinstance(exc, BrokenPipeError) and sys.stdout is sys.__stdout__:
            # stdout's reader is gone: point stdout at devnull so the
            # interpreter's own flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        print("error: input beyond capacity: the computation exceeded "
              "Python's recursion limit", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: input beyond capacity: the computation ran out of "
              "memory", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
