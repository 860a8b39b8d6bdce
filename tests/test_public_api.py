"""The package's export list: a name dropped from the package but left
in __all__ (or misspelt there) breaks star imports without failing any
other test.  And its imports: a name a module imports but never uses is
a leftover of a refactor, which no other test notices."""

import ast
from pathlib import Path

import posefuse


def test_every_exported_name_resolves():
    assert [name for name in posefuse.__all__ if not hasattr(posefuse, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from posefuse import *", namespace)
    assert set(posefuse.__all__) <= set(namespace)


def unused_imports(source: str) -> set[str]:
    """Names a module imports and never reads, counting a name listed in
    its __all__ as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_unused_imports_are_caught():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == {"os", "pi"}
    assert unused_imports("from x import a, b\n__all__ = ['a']\nb()\n") == set()


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(Path(posefuse.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    assert {m.name: sorted(unused_imports(m.read_text(encoding="utf-8"))) for m in modules} == {
        m.name: [] for m in modules
    }
