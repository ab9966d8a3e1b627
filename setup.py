"""Project metadata (there is no ``pyproject.toml``: this file is all of it).

The offline environment used for this reproduction lacks the ``wheel``
package, so ``pip install -e .`` (which needs to build an editable wheel)
cannot run.  ``python setup.py develop`` performs the equivalent editable
install without building a wheel; ``PYTHONPATH=src`` needs no install at all.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",  # repro.__version__
    description="Reproduction of FIGRET: Fine-Grained Robustness-Enhanced Traffic Engineering",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
    extras_require={
        # Standalone HiGHS bindings for the persistent warm-started LP
        # backend (REPRO_LP_BACKEND=highs).  Optional: without them the
        # backend layer uses the copy scipy >= 1.15 vendors, and falls
        # back to scipy's linprog (with one warning) if neither imports.
        "highs": ["highspy"],
    },
)
