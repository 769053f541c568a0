"""The package's public names."""

from __future__ import annotations

import prx


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from prx import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(prx.__all__))
    assert len(set(prx.__all__)) == len(prx.__all__)
