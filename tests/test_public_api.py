"""The package's export list: a name dropped from the package but left
in __all__ (or misspelt there) breaks star imports without failing any
other test.  Its imports: a name a module imports but never uses is a
leftover of a refactor, which no other test notices.  And every module's
public names: one the package neither calls nor exports is a second
spelling of a formula, kept alive only by its tests."""

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


def names_read(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded anywhere under node, leaving out the subtree skip."""
    if node is skip:
        return set()
    read = {node.id} if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else set()
    for child in ast.iter_child_nodes(node):
        read |= names_read(child, skip)
    return read


def unread_public_names(source: str, others: list[str], exported: set[str]) -> set[str]:
    """Public names that the module source defines at its top level (by
    def, class or assignment) and that neither its own code outside the
    definition nor the other modules read, nor the export list holds."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    read_elsewhere = set().union(*(names_read(ast.parse(other)) for other in others))
    return {
        name for name, node in defined.items()
        if not name.startswith("_")
        and name not in exported | read_elsewhere | names_read(tree, skip=node)
    }


def test_unread_public_names_are_caught():
    source = (
        "LIMIT = 1.0\n"
        "def odometry(a, b):\n    return a < LIMIT\n"
        "def distance_twin(a, b):\n    return distance_twin(b, a)\n"
        "class Pose:\n    pass\n"
        "def _private():\n    pass\n"
    )
    assert unread_public_names(source, ["odometry(1, 2)\n"], set()) == {"distance_twin", "Pose"}
    assert unread_public_names(source, [], {"odometry", "Pose"}) == {"distance_twin"}


def test_every_public_name_is_used_or_exported():
    sources = {m.name: m.read_text(encoding="utf-8") for m in sorted(Path(posefuse.__file__).parent.glob("*.py"))}
    assert len(sources) > 5
    unread = {
        name: sorted(unread_public_names(source, [s for n, s in sources.items() if n != name], set(posefuse.__all__)))
        for name, source in sources.items()
    }
    assert unread == {name: [] for name in sources}
