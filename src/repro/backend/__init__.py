"""Pluggable array backends for the DNN forward pass.

The one dense, accelerator-shaped computation of the replay is the
``FigretNet`` forward (Appendix D.4): a chain of matmuls with ReLU / sigmoid
between them.  That chain is what a backend runs; per-pair normalisation,
MLU and failure rerouting are sparse products that stay on the host, so the
LP schemes replay identically on every backend.  This package provides:

* :class:`~repro.backend.base.ArrayBackend` -- the six functional ops of the
  forward (see ``base.py``);
* the default ``numpy`` backend (bit-identical to the pre-backend engine),
  a ``numpy32`` float32 variant, a pure-``python`` reference backend for CI
  determinism checks, and an optional ``torch`` backend that is
  auto-detected and falls back to numpy (with one warning) when missing;
* selection via the ``REPRO_BACKEND`` environment variable, the
  :func:`use_backend` override used by :class:`EvaluationEngine`
  (``EvaluationEngine(backend=)``, ``Study.run(backend=)``, ``--backend``),
  or ``split_ratios_batch(backend=)`` on a model directly.

``REPRO_BACKEND_DTYPE`` (``float32`` / ``float64``) picks the compute dtype
of the ``torch`` backend; the numpy default always computes in float64.

Example:
    >>> from repro.backend import get_backend, use_backend
    >>> get_backend().name
    'numpy'
    >>> with use_backend("python"):
    ...     ...  # forward passes run through the pure-python reference ops
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from contextlib import contextmanager

import numpy as np

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import Numpy32Backend, NumpyBackend

__all__ = [
    "ArrayBackend",
    "BACKEND_ENV_VAR",
    "available_backends",
    "importable_backends",
    "get_backend",
    "active_backend",
    "resolve_backend",
    "use_backend",
]

#: Environment variable naming the default backend for the process.
BACKEND_ENV_VAR = "REPRO_BACKEND"
#: Environment variable selecting the ``torch`` backend's compute dtype.
DTYPE_ENV_VAR = "REPRO_BACKEND_DTYPE"

#: Optional backends in auto-detection preference order.
_OPTIONAL = ("torch",)


def _gpu_dtype():
    """Compute dtype for the optional ``torch`` backend (float32 by default)."""
    name = os.environ.get(DTYPE_ENV_VAR, "float32").strip().lower()
    if name not in ("float32", "float64"):
        raise ValueError(
            f"{DTYPE_ENV_VAR} must be 'float32' or 'float64', got {name!r}"
        )
    return np.float32 if name == "float32" else np.float64


def _make_torch() -> ArrayBackend:
    from repro.backend.torch_backend import TorchBackend

    return TorchBackend(dtype=_gpu_dtype())


def _make_python() -> ArrayBackend:
    from repro.backend.python_backend import PythonBackend

    return PythonBackend()


_FACTORIES = {
    "numpy": NumpyBackend,
    "numpy32": Numpy32Backend,
    "python": _make_python,
    "torch": _make_torch,
}

_INSTANCES: dict[str, ArrayBackend] = {}
_FALLBACK_WARNED: set[str] = set()
_OVERRIDE: ArrayBackend | None = None


def available_backends() -> tuple[str, ...]:
    """Registered backend names (optional ones may not be importable)."""
    return tuple(_FACTORIES)


def importable_backends() -> tuple[str, ...]:
    """Backends that can actually run on this machine (no fallbacks).

    The always-available trio plus whichever optional backends have their
    dependency installed.  The equivalence test suites parameterize
    over exactly this list.
    """
    names = ["numpy", "numpy32", "python"]
    names.extend(
        name for name in _OPTIONAL if importlib.util.find_spec(name) is not None
    )
    return tuple(names)


def _instantiate(name: str) -> ArrayBackend:
    backend = _INSTANCES.get(name)
    if (
        backend is not None
        and name in _OPTIONAL
        and backend.name == name  # not a cached numpy fallback
        and np.dtype(backend.compute_dtype) != np.dtype(_gpu_dtype())
    ):
        # REPRO_BACKEND_DTYPE changed since this instance was built: rebuild
        # so the documented dtype override is never silently ignored.
        backend = None
    if backend is None:
        backend = _FACTORIES[name]()
        _INSTANCES[name] = backend
    return backend


def get_backend(name: str | None = None) -> ArrayBackend:
    """Resolve a backend by name, environment variable, or default.

    Args:
        name: Backend name, or None to consult ``REPRO_BACKEND`` (falling
            back to ``numpy``).  The special name ``auto`` picks the first
            importable of ``torch``, ``numpy``.

    Returns:
        The (cached) backend instance.  A *known but unimportable* optional
        backend falls back to numpy with a single warning per process;
        an *unknown* name raises :class:`ValueError`.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or "numpy"
    name = name.strip().lower()
    if name == "auto":
        if "auto" not in _INSTANCES:
            for candidate in _OPTIONAL:
                try:
                    return _instantiate(candidate)
                except ImportError:
                    continue
            # Nothing optional imports: cached for the reason given at the
            # named fallback below (every forward resolves the backend).
            _INSTANCES["auto"] = _instantiate("numpy")
        return _INSTANCES["auto"]
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown array backend {name!r} (from {BACKEND_ENV_VAR} or an "
            f"explicit argument); known backends: "
            f"{', '.join(sorted(_FACTORIES))}, or 'auto'"
        )
    try:
        return _instantiate(name)
    except ImportError as exc:
        if name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(name)
            warnings.warn(
                f"array backend {name!r} is not importable ({exc}); "
                "falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
        # Cache the fallback under the failing name: with REPRO_BACKEND set
        # to a missing backend, every hot-path call resolves the backend, and
        # re-attempting the failed import each time would pay a module-finder
        # scan per call.
        fallback = _instantiate("numpy")
        _INSTANCES[name] = fallback
        return fallback


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
