"""Every import in the package, the tests and the demos is used, every
memo in the package is bounded, and every public export is used by the
package itself or is listed with its reason.

An import counts as used when the name it binds is read somewhere in
the same file.  The package's `__init__.py` is exempt: its imports are
the public re-exports.  A memo counts as bounded when its `lru_cache`
declares a positive integer `maxsize`; a long `orderlab search` run
would otherwise keep every value it ever computed.  An export counts as
used when a module of the package other than `__init__.py` reads its
name.
"""

import ast
from pathlib import Path

import orderlab

ROOT = Path(__file__).resolve().parents[1]


def _sources() -> list[Path]:
    files = [p for p in sorted((ROOT / "src" / "orderlab").glob("*.py"))
             if p.name != "__init__.py"]
    for folder in ("tests", "demos"):
        files += sorted((ROOT / folder).glob("*.py"))
    return files


def names_read(source: str) -> set[str]:
    """Names that `source` reads as plain identifiers."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


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
    read = names_read(source)
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


# exports the package itself never reads, each with why it stays public
UNREAD_EXPORTS = {
    "SIERPINSKI": "fixture space for the tests and demos",
    "discrete": "fixture space builder for the tests and demos",
    "universal_property_smoke": "acceptance criterion 4 checks the reflections with it",
}


def test_the_export_scan_reads_only_loads():
    source = "a = 1\ndef f(b):\n    return b + c\nclass D: pass\n"
    assert names_read(source) == {"b", "c"}


def test_every_export_is_read_by_the_package_or_listed():
    read = set()
    for path in sorted((ROOT / "src" / "orderlab").glob("*.py")):
        if path.name != "__init__.py":
            read |= names_read(path.read_text())
    unread = sorted(set(orderlab.__all__) - read - set(UNREAD_EXPORTS))
    assert unread == []
    stale = sorted(n for n in UNREAD_EXPORTS
                   if n not in orderlab.__all__ or n in read)
    assert stale == []
