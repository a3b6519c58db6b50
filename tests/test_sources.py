"""Source hygiene: every top-level import of the library, the tests and the demos is used,
every module-level function and class of the library is named somewhere, the
library has no ``assert`` statement (``python -O`` strips them), and every cache of
the library is a ``functools.lru_cache`` with a literal bound."""

import ast
from pathlib import Path

import homcat


def _unused_imports(path: Path) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(bound.items()) if name not in used]


def test_unused_import_scan_finds_an_unused_name(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text("from __future__ import annotations\nimport os\nimport sys\nprint(sys.argv)\n")
    assert _unused_imports(src) == ["sample.py:2 os"]


def test_no_unused_top_level_imports():
    # homcat/__init__.py imports in order to re-export, so it is exempt
    tests = Path(__file__).resolve().parent
    paths = [p for p in Path(homcat.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    paths += list(tests.glob("*.py")) + list((tests.parent / "demos").glob("*.py"))
    assert [unused for p in sorted(paths) for unused in _unused_imports(p)] == []


def _names_read(path: Path) -> set[str]:
    """Every name the module reads: bare names, attributes and imported names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return out


def _unnamed_definitions(library: list[Path], readers: list[Path]) -> list[str]:
    """Module-level functions and classes of ``library`` that no file of ``readers`` names."""
    named = set().union(*(_names_read(p) for p in readers))
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path in library
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    ]


def test_definition_scan_finds_an_unnamed_helper(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return 1\n\n\ndef _left_over():\n    return used()\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import used\n")
    assert _unnamed_definitions([lib], [lib, user]) == ["lib.py:5 _left_over"]


def test_every_library_definition_is_named():
    # a helper a refactor leaves behind has no caller, import or test
    repo = Path(__file__).resolve().parent.parent
    library = sorted(Path(homcat.__file__).parent.glob("*.py"))
    readers = library + [p for d in ("tests", "demos", "benchmarks") for p in sorted((repo / d).glob("*.py"))]
    assert _unnamed_definitions(library, readers) == []


def _assert_statements(path: Path) -> list[str]:
    """Every ``assert`` statement of a module, as file:line."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]


def test_assert_scan_finds_a_planted_assert(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text("def check(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n")
    assert _assert_statements(src) == ["sample.py:3"]


def test_library_has_no_assert_statements():
    # a check that vanishes under python -O must raise a named error instead
    library = sorted(Path(homcat.__file__).parent.glob("*.py"))
    assert [hit for p in library for hit in _assert_statements(p)] == []


def _unbounded_caches(path: Path) -> list[str]:
    """Every use of ``functools`` caching other than ``functools.lru_cache(maxsize=<int literal>)``,
    as file:line: ``functools.cache``, ``maxsize=None``, a bare or positional ``lru_cache``, and
    any cache imported by name from ``functools``."""
    tree = ast.parse(path.read_text())
    bounded = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and not node.args
        and [k.arg for k in node.keywords] == ["maxsize"]
        and isinstance(node.keywords[0].value, ast.Constant)
        and type(node.keywords[0].value.value) is int
    }
    caches = {"cache", "lru_cache", "cached_property"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in caches for alias in node.names):
                hits.append(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            if node.attr in caches and not (node.attr == "lru_cache" and id(node) in bounded):
                hits.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(hits)]


def test_cache_scan_finds_planted_unbounded_caches(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def bounded(x):\n"
        "    return x\n"
        "@functools.cache\n"
        "def forever(x):\n"
        "    return x\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def unbounded(x):\n"
        "    return x\n"
        "@functools.lru_cache\n"
        "def default_bound(x):\n"
        "    return x\n"
        "@functools.lru_cache(128)\n"
        "def positional(x):\n"
        "    return x\n"
    )
    assert _unbounded_caches(src) == ["sample.py:2", "sample.py:6", "sample.py:9", "sample.py:12", "sample.py:15"]


def test_every_library_cache_is_a_literally_bounded_lru_cache():
    # one cache mechanism, and no cache that grows for the life of the process
    library = sorted(Path(homcat.__file__).parent.glob("*.py"))
    assert [hit for p in library for hit in _unbounded_caches(p)] == []
