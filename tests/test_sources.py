"""Source hygiene: every top-level import of the library, the tests and the demos is used."""

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
