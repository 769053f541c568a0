"""The package's public names."""

from __future__ import annotations

import prx


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from prx import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(prx.__all__))
    assert len(set(prx.__all__)) == len(prx.__all__)


def test_no_assert_serves_as_a_runtime_guard():
    """``python -O`` strips assert statements, so the library checks its
    input with explicit raises only."""
    import ast
    from pathlib import Path

    found = []
    for path in sorted(Path(prx.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_public_function_is_exported_or_used():
    """A public module-level function that is neither in ``prx.__all__`` nor
    referenced from another module or function of the package is dead code.
    Click commands are command objects at runtime, so they are not checked."""
    import ast
    import importlib
    import inspect
    from pathlib import Path

    def names_in(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(prx.__file__).parent.glob("*.py"))}
    unused = []
    for stem, tree in trees.items():
        mod = importlib.import_module(f"prx.{stem}" if stem != "__init__" else "prx")
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            if node.name in prx.__all__ or not inspect.isfunction(getattr(mod, node.name)):
                continue
            used = any(node.name in names_in(other) for s, other in trees.items() if s != stem)
            used = used or any(node.name in names_in(top) for top in tree.body if top is not node)
            if not used:
                unused.append(f"{stem}.{node.name}")
    assert not unused, unused


def test_every_module_uses_what_it_imports():
    """A name imported at module level that the module never reads as a
    name is left over; ``__init__.py`` imports to re-export and is skipped."""
    import ast
    from pathlib import Path

    unused = []
    for path in sorted(Path(prx.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused
