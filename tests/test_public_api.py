"""The package's export list: a name dropped from the package but left
in __all__ (or misspelt there) breaks star imports without failing any
other test."""

import posefuse


def test_every_exported_name_resolves():
    assert [name for name in posefuse.__all__ if not hasattr(posefuse, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from posefuse import *", namespace)
    assert set(posefuse.__all__) <= set(namespace)
