"""perfbench: the repository's end-to-end + per-layer performance benchmark.

Run it with ``python perfbench/run.py`` from the repository root; see
``perfbench/README.md``.  Nothing in ``src/`` imports this package.
"""
