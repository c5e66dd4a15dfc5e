"""Every name imported in the package, the tests and the scripts is used,
every function in the package is called from it or exported, and every
helper of the tests and the scripts is used by them.

A name counts as used when it is read anywhere in its module, or when
the module lists it in `__all__` (a re-export).
"""

import ast
import sys
from pathlib import Path

import qimm
from qimm.characters import COLUMN_MAX_N
from qimm.immanants import BRUTEFORCE_MAX_N

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for d in ("src/qimm", "tests", "scripts")
    for p in (ROOT / d).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    names = [p.relative_to(ROOT).as_posix() for p in SOURCES]
    assert {"src/qimm/__init__.py", "tests/test_imports.py",
            "scripts/run_full_verification.py"} <= set(names)
    unused = {name: found for name, p in zip(names, SOURCES)
              if (found := unused_imports(p.read_text()))}
    assert unused == {}


def test_detector_flags_unused_and_honours_all():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "__all__ = ['b']\nprint(d)\n")
    assert unused_imports(source) == ["line 1: os", "line 2: osp"]


_TRACED = ("perfbench/tracing.py resolves it by name: retire it in the "
           "benchmark-only change that drops its span")
_LISTING = ("the tests' reference route: the listing side of the odd-peak "
            "and odd-descent histograms")

# every function and method of src/qimm that src/ does not refer to and
# qimm does not export, with the reason it stays
NOT_CALLED_IN_SRC = {
    "claims.summarize": _TRACED,
    "immanants.eq5_reconstruction_ok": _TRACED,
    "immanants.normalized_two_row_immanants": _TRACED,
    "ratpoly.RatPoly.scale": _TRACED,
    "immanants.check_last_row_ratios": (
        "the tests' reference route for the lem9, cor10 and lem11 rows; "
        "perfbench/tracing.py resolves it by name"),
    "paths.enumerate_two_row_syt": _LISTING,
    "paths.max_odd_descent_interval": _LISTING,
    "paths.max_odd_peak_interval": _LISTING,
}


def test_every_function_in_src_is_called_or_exported():
    # a function is referred to by name or as an attribute, a method only
    # as an attribute, anywhere in src/qimm outside docstrings; dunder
    # methods count as called
    defs, names, attributes = [], set(), set()
    for path in sorted((ROOT / "src" / "qimm").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node.name, False))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{sub.name}", sub.name,
                          True) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    assert len(defs) > 100
    uncalled = {where for where, name, method in defs
                if not (name.startswith("__") and name.endswith("__"))
                and name not in attributes
                and (method or name not in names and name not in qimm.__all__)}
    assert uncalled == set(NOT_CALLED_IN_SRC)


def test_every_helper_in_tests_and_scripts_is_used():
    # a top-level function or class of tests/ or scripts/ that is not a
    # test is read somewhere in tests/ or scripts/: by name, as an
    # attribute or as a fixture's argument
    defs, used = set(), set()
    for path in SOURCES:
        if path.parent.name == "qimm":
            continue
        tree = ast.parse(path.read_text())
        defs |= {(path.name, node.name) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("test_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.arg):
                used.add(node.arg)
    assert len(defs) > 60
    assert {(where, name) for where, name in defs if name not in used} == set()


# every function of src/qimm that calls itself, with the bound on its depth
SELF_CALLING = {
    "characters._column": COLUMN_MAX_N,  # one level per cycle
    "characters._shapes": COLUMN_MAX_N,  # one level per box
    # one level per part; the CLI lists partitions only in the oracle
    "characters.partitions.rec": BRUTEFORCE_MAX_N,
    "immanants._bruteforce_buckets.expand": BRUTEFORCE_MAX_N,  # per row
}


def self_calling(node: ast.AST, prefix: str):
    """The dotted name of every function under `node` that calls its own
    name, plainly or as an attribute."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{sub.name}"
            if isinstance(sub, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and sub.name in (
                        getattr(call.func, "id", None),
                        getattr(call.func, "attr", None))
                    for call in ast.walk(sub)):
                yield name
            yield from self_calling(sub, name)


def test_no_input_reaches_the_recursion_limit():
    # only the listed functions call themselves, each at most its bound
    # deep, far below the interpreter's limit
    found = {name for path in (ROOT / "src" / "qimm").glob("*.py")
             for name in self_calling(ast.parse(path.read_text()), path.stem)}
    assert found == set(SELF_CALLING)
    assert max(SELF_CALLING.values()) < sys.getrecursionlimit() // 10
