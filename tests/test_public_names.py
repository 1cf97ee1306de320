"""Every public name of the package is used by the package itself.

A name in a module's ``__all__`` that no code of ``src/`` reads is a
capability that no command, sweep or report reaches, so it is deleted
with its tests rather than kept.  Each module of ``src/boussinesq_lp`` is
parsed with ``ast``; a listed name counts as used when some module loads
it (as a bare name or as an attribute) outside the name's own
definition.  An import only binds a name and an ``__all__`` list only
lists it, so neither counts as a use.  The package ``__init__.py``
re-exports each ``__all__`` by a ``*`` import and lists no name itself.
"""

import ast
import types
from pathlib import Path

import boussinesq_lp
from boussinesq_lp import boussinesq, harness, littlewood_paley, spectral, transport
from test_imports import _exported

SRC = Path(__file__).resolve().parents[1] / "src" / "boussinesq_lp"

# public names that no code of src/ reads, each kept for a stated reason
ALLOWED_UNUSED = {
    "bony_decompose": "the paraproduct split checked by acceptance test 03",
    "gronwall_constant": "the frozen constant of the Gronwall replays, wired in by ROADMAP item 11",
}


def _loaded(node: ast.AST, skip=frozenset()) -> set[str]:
    """Names loaded under node, as bare names or attributes, outside the subtrees in skip."""
    names = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current in skip:
            continue
        if isinstance(current, ast.Name) and isinstance(current.ctx, ast.Load):
            names.add(current.id)
        elif isinstance(current, ast.Attribute) and isinstance(current.ctx, ast.Load):
            names.add(current.attr)
        stack.extend(ast.iter_child_nodes(current))
    return names


def unused_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each ``__all__`` entry of the modules (name -> source)
    that no module loads outside the entry's own top-level definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for name in _exported(tree):
            own = {
                node
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name == name
            }
            used = any(
                name in _loaded(other, own if other is tree else frozenset()) for other in trees.values()
            )
            if not used:
                found.append(f"{module}.{name}")
    return found


def _unused_in_src() -> list[str]:
    """The names (without module) that the scan finds unused in the package."""
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    return [entry.split(".")[1] for entry in unused_public_names(sources)]


def test_every_public_name_is_used_in_src():
    assert [name for name in _unused_in_src() if name not in ALLOWED_UNUSED] == []


def test_allowlist_holds_only_unused_names():
    # a name that gains a use leaves the allowlist
    assert sorted(_unused_in_src()) == sorted(ALLOWED_UNUSED)


def test_package_exports_exactly_the_module_all_lists():
    exported = set().union(*(m.__all__ for m in (spectral, littlewood_paley, transport, boussinesq, harness)))
    public = {
        name
        for name, value in vars(boussinesq_lp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == exported


def test_scan_flags_an_unused_export():
    sources = {
        "__init__": "from .a import *\n",
        "a": "__all__ = ['f', 'g', 'h', 'K', 'N']\n"
        "N = 1\n"
        "class K: pass\n"
        "def f(): return f()\n"
        "def g(): return 1\n"
        "def h(): return g()\n",
        "b": "from . import a\nx = a.h()\n",
    }
    # f is read only inside its own definition, K and N (assigned, never
    # read) nowhere; h reads g, and module b reads h
    assert unused_public_names(sources) == ["a.f", "a.K", "a.N"]
