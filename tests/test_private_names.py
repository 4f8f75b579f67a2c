"""No package module reaches into another module's private names.

A module of ``src/zrc_eval`` uses another module's ``_``-prefixed name,
as ``from .m import _x`` or as ``m._x``, only for the shared helpers
below; everything else goes through a public name.
"""

import ast
from pathlib import Path

import zrc_eval

PACKAGE = Path(zrc_eval.__file__).parent

# (module, name) shared on purpose: how errors name their input, and the
# row reader
SHARED = {("errors", "_at"), ("errors", "_named"), ("io_formats", "_rows")}


def private_uses(path: Path) -> set:
    """The (module, name) of every other package module's private name
    that the module at ``path`` imports or reads as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> the package module it is bound to
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import m [as name]
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    uses.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            uses.add((modules[node.value.id], node.attr))
    return {(module, name) for module, name in uses if module != path.stem}


def test_modules_use_only_shared_private_names():
    uses = {path.name: private_uses(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found - SHARED for name, found in uses.items()
            if found - SHARED} == {}
    # every shared helper is still in use, so the list cannot go stale
    assert set().union(*uses.values()) == SHARED
