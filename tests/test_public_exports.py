"""Every name a ``repro`` module exports exists.

A deleted function left behind in an ``__all__`` breaks ``from package import
*`` and the documented surface without failing any test that imports names
one by one; this walk is what catches it.
"""

from __future__ import annotations

import doctest
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



def test_package_docstring_first_example_runs():
    """The first example of ``repro``'s docstring -- load a scenario, build a
    model on it -- runs as written."""
    block = next(part for part in repro.__doc__.split("\n\n") if ">>>" in part)
    example = doctest.DocTestParser().get_doctest(block, {}, "repro", None, 0)
    report = []
    runner = doctest.DocTestRunner(verbose=False)
    results = runner.run(example, out=report.append)
    assert results.attempted == 3
    assert results.failed == 0, "".join(report)
