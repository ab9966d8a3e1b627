"""Pluggable array backends for the DNN forward pass.

The one dense, accelerator-shaped computation of the replay is the
``FigretNet`` forward (Appendix D.4): a chain of matmuls with ReLU / sigmoid
between them.  That chain is what a backend runs; per-pair normalisation,
MLU and failure rerouting are sparse products that stay on the host, so the
LP schemes replay identically on every backend.  This package provides:

* :class:`~repro.backend.base.ArrayBackend` -- the six functional ops of the
  forward (see ``base.py``);
* the default ``numpy`` backend (bit-identical to the pre-backend engine),
  a ``numpy32`` float32 variant and a pure-``python`` reference backend for
  CI determinism checks -- all three run on numpy alone;
* selection via the ``REPRO_BACKEND`` environment variable, the
  :func:`use_backend` override used by :class:`EvaluationEngine`
  (``EvaluationEngine(backend=)``, ``Study.run(backend=)``, ``--backend``),
  or ``split_ratios_batch(backend=)`` on a model directly.

Example:
    >>> from repro.backend import get_backend, use_backend
    >>> get_backend().name
    'numpy'
    >>> with use_backend("python"):
    ...     ...  # forward passes run through the pure-python reference ops
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import Numpy32Backend, NumpyBackend

__all__ = [
    "ArrayBackend",
    "BACKEND_ENV_VAR",
    "available_backends",
    "get_backend",
    "active_backend",
    "resolve_backend",
    "use_backend",
]

#: Environment variable naming the default backend for the process.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def _make_python() -> ArrayBackend:
    from repro.backend.python_backend import PythonBackend

    return PythonBackend()


_FACTORIES = {
    "numpy": NumpyBackend,
    "numpy32": Numpy32Backend,
    "python": _make_python,
}

_INSTANCES: dict[str, ArrayBackend] = {}
_OVERRIDE: ArrayBackend | None = None


def available_backends() -> tuple[str, ...]:
    """Registered backend names; every one runs on numpy alone."""
    return tuple(_FACTORIES)


def get_backend(name: str | None = None) -> ArrayBackend:
    """Resolve a backend by name, environment variable, or default.

    Args:
        name: Backend name, or None to consult ``REPRO_BACKEND`` (falling
            back to ``numpy``).

    Returns:
        The (cached) backend instance; an unknown name raises
        :class:`ValueError`.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or "numpy"
    name = name.strip().lower()
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown array backend {name!r} (from {BACKEND_ENV_VAR} or an "
            f"explicit argument); known backends: "
            f"{', '.join(sorted(_FACTORIES))}"
        )
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _INSTANCES[name] = _FACTORIES[name]()
    return backend


def active_backend() -> ArrayBackend:
    """The backend in effect: a :func:`use_backend` override, else the env."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return get_backend(None)


def resolve_backend(backend: ArrayBackend | str | None) -> ArrayBackend:
    """Normalise a function's ``backend`` argument.

    ``None`` means "whatever is active" (override or environment), a string
    is looked up in the registry, and an instance passes through.
    """
    if backend is None:
        return active_backend()
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(backend)


@contextmanager
def use_backend(backend: ArrayBackend | str | None):
    """Temporarily force the active backend (no-op when ``backend`` is None).

    This is how :class:`~repro.evaluation.engine.EvaluationEngine` threads an
    explicit backend through ``scheme.configure_batch`` without changing the
    :class:`~repro.te.scheme.TEScheme` interface.
    """
    global _OVERRIDE
    if backend is None:
        yield active_backend()
        return
    previous = _OVERRIDE
    _OVERRIDE = resolve_backend(backend)
    try:
        yield _OVERRIDE
    finally:
        _OVERRIDE = previous
