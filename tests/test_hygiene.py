"""Every import in the package, the tests and the demos is used, and
every memo in the package is bounded.

An import counts as used when the name it binds is read somewhere in
the same file.  The package's `__init__.py` is exempt: its imports are
the public re-exports.  A memo counts as bounded when its `lru_cache`
declares a positive integer `maxsize`; a long `orderlab search` run
would otherwise keep every value it ever computed.
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


def unbounded_caches(source: str) -> list[str]:
    """Each `lru_cache` in `source` that declares no positive integer
    `maxsize`, and each use of `functools.cache`, which has none."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "cache") for alias in node.names
                      if alias.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, "cache"))
        elif "lru_cache" in (getattr(node, "id", None), getattr(node, "attr", None)):
            call = calls.get(id(node))
            sizes = [] if call is None else (
                [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
            )
            if not (sizes and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int and sizes[0].value > 0):
                found.append((node.lineno, "lru_cache"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_scan_flags_an_unbounded_cache():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache\ndef a(): pass\n"
        "@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@functools.lru_cache()\ndef c(): pass\n"
        "@lru_cache(maxsize=64)\ndef d(): pass\n"
        "e = lru_cache(128)(d)\n"
        "f = functools.cache(d)\n"
    )
    assert unbounded_caches(source) == [
        "line 2: cache", "line 3: lru_cache", "line 5: lru_cache",
        "line 7: lru_cache", "line 12: cache",
    ]


def test_every_cache_in_the_package_is_bounded():
    files = sorted((ROOT / "src" / "orderlab").glob("*.py"))
    assert len(files) > 10
    found = {
        path.name: unbounded
        for path in files
        if (unbounded := unbounded_caches(path.read_text()))
    }
    assert found == {}
