"""The package's public surface: every export resolves and every import is exported."""

import ast
import inspect

import qeclab


def test_all_matches_public_imports():
    """``__all__`` names exactly the public names ``__init__`` imports, and
    each resolves, so a deleted function cannot leave a dangling export."""
    assert [name for name in qeclab.__all__ if not hasattr(qeclab, name)] == []
    tree = ast.parse(inspect.getsource(qeclab))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert sorted(qeclab.__all__) == sorted(imported)
