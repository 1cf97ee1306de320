"""Every imported name is read by the module that imports it.

No linter runs in this repository, so this scan stands in for the
unused-import rule.  Each module of the package and of the tests is
parsed with ``ast``; a name bound by an import counts as read when the
module loads it somewhere or lists it in ``__all__``.  The imports of
the package ``__init__.py`` are its public re-exports and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "boussinesq_lp").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in read]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in MODULES
        if path != ROOT / "src" / "boussinesq_lp" / "__init__.py"
        and (unused := unused_imports(path))
    }
    assert found == {}


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi as PI, tau\n__all__ = ['tau']\nprint(sys)\n"
    tree = ast.parse(source)
    assert sorted(set(_imported(tree)) - _read(tree)) == ["PI", "os"]
