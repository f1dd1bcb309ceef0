"""Every import in the package, the tests and the demos is used.

An import counts as used when the name it binds is read somewhere in
the same file.  The package's `__init__.py` is exempt: its imports are
the public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources() -> list[Path]:
    files = [p for p in sorted((ROOT / "src" / "orderlab").glob("*.py"))
             if p.name != "__init__.py"]
    for folder in ("tests", "demos"):
        files += sorted((ROOT / folder).glob("*.py"))
    return files


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in `source`."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in read)


def test_the_scan_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nimport a.b\nloads(a.b)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]


def test_no_unused_imports():
    files = _sources()
    assert len(files) > 30
    found = {
        str(path.relative_to(ROOT)): unused
        for path in files
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
