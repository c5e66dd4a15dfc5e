#!/usr/bin/env python3
"""Print the worked data the library reproduces: the alpha tables for
n = 6, 7, 8, the last_{l,k} triangle, the generalized Riordan path sets
at l = 4, and the four-vertex immanant pair that breaks the chain.
The tables are qimm's text tables, and qimm's writer prints every line;
a stdout that cannot be written exits 2 with one `error:` line."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qimm.characters import alpha_table, last_table  # noqa: E402
from qimm.cli import _error, _write, render_int_table  # noqa: E402
from qimm.immanants import check_two_row_chain, immanant_tree  # noqa: E402
from qimm.paths import enumerate_paths  # noqa: E402
from qimm.trees import path_tree, star_tree  # noqa: E402


def lines():
    for n in (6, 7, 8):
        yield f"alpha_{{{n},k,i}} (rows i, columns k):\n"
        yield from render_int_table(alpha_table(n).rows, "i", "k", "text")
        yield "\n"

    yield "last_{l,k} triangle (diagonal = Riordan numbers):\n"
    yield from render_int_table(last_table(9).rows, "l", "k", "text")
    yield "\n"

    yield "Generalized Riordan paths of length 4 by end height:\n"
    for h in range(4, -1, -1):
        paths = sorted(str(p) for p in enumerate_paths("GRP", 4, h))
        yield f"  GRP(4,{h}): {len(paths):2d}  {' '.join(paths)}\n"
    yield "\n"

    p4, s4 = path_tree(4), star_tree(4)
    yield "normalized two-row immanants on four vertices:\n"
    for name, tree in (("path", p4), ("star", s4)):
        for shape in ((3, 1), (2, 2)):
            poly = immanant_tree(tree, shape, normalized=True)
            yield f"  {name}: shape {shape}: {poly}\n"
    yield "\n"
    yield "chain verdicts (the path fails at k=2 for large |q|):\n"
    for name, tree in (("path", p4), ("star", s4)):
        for v in check_two_row_chain(tree):
            state = "holds" if v.holds else "FAILS"
            yield (f"  {name} k={v.params['k']}: {state}  "
                   f"difference = {v.witness}\n")


if __name__ == "__main__":
    try:
        _write(lines(), None)
    except OSError as exc:
        _error(str(exc))
        sys.exit(2)
