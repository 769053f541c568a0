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
