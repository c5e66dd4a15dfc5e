"""Every name imported in the package, the tests and the scripts is used.

A name counts as used when it is read anywhere in its module, or when
the module lists it in `__all__` (a re-export).
"""

import ast
from pathlib import Path

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
