"""Every name a ``repro`` module exports exists.

A deleted function left behind in an ``__all__`` breaks ``from package import
*`` and the documented surface without failing any test that imports names
one by one; this walk is what catches it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("module_name", ["repro", *MODULES])
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in getattr(module, "__all__", ()) if not hasattr(module, name)
    ]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"

