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
    # scipy >= 1.15 vendors the HiGHS core (scipy.optimize._highspy._core)
    # that every LP solve runs on, normalisers and vertices alike; no other
    # HiGHS build is used, so records do not depend on what else is installed.
    # networkx is imported only inside racke_path_set and
    # Topology.to_networkx (and by the tests, as the reference the Yen's-paths
    # and random-regular-graph ports must match); importing repro, or building
    # any bundled scenario, does not load it.
    install_requires=["numpy", "scipy>=1.15", "networkx"],
)
