"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest


@pytest.fixture()
def default_recursion_limit():
    """Python's default recursion limit for the test, so that a deep input
    that only passes under a raised limit fails."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)
