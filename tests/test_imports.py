"""Every imported name is read by the module that imports it, and every
``__all__`` entry of the package names a definition of its own module.

No linter runs in this repository, so these scans stand in for the
unused-import rule.  Each module of the package and of the tests is
parsed with ``ast``; a name bound by an import counts as read when the
module loads it somewhere or lists it in ``__all__``; a ``*`` import
binds no name of its own.  The ``__all__`` lists are kept to each
module's own top-level definitions because the perfbench tracer wraps
every listed name and attributes its time to that module.
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
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> list[str]:
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_exported(tree))


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at the top level of the module by a def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def foreign_exports(tree: ast.Module) -> list[str]:
    defined = _defined(tree)
    return [name for name in _exported(tree) if name not in defined]


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in read]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused for path in MODULES if (unused := unused_imports(path))}
    assert found == {}


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi as PI, tau\nfrom cmath import *\n"
    source += "__all__ = ['tau']\nprint(sys)\n"
    tree = ast.parse(source)
    assert sorted(set(_imported(tree)) - _read(tree)) == ["PI", "os"]


def test_all_lists_only_own_definitions():
    found = {
        path.name: foreign
        for path in sorted((ROOT / "src" / "boussinesq_lp").glob("*.py"))
        if (foreign := foreign_exports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def test_scan_flags_a_foreign_export():
    source = "from math import pi\nTAU: float = 6.28\ndef f(): pass\n"
    source += "__all__ = ['f', 'TAU', 'pi', 'g']\n"
    assert foreign_exports(ast.parse(source)) == ["pi", "g"]
