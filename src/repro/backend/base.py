"""The :class:`ArrayBackend` abstraction shared by every array backend.

The batched replay hot path (PR 1-2) reduced whole-trace evaluation to a
handful of vectorized passes: the ``FigretNet`` forward (a chain of dense
matmuls), the batched MLU computation (a gather, an elementwise product and
one incidence matmul), and the vectorized failure rerouting.  All three are
expressible over any numpy-like array module, which is what this class
captures: a small set of *functional* operations (no reliance on operator
overloading, so even a pure-python reference implementation fits) plus a
per-:class:`~repro.paths.path_set.PathSet` cache of device-resident
constants.

Contracts every backend honours:

* Public functions stay **numpy at the boundary**: inputs are converted with
  :meth:`asarray` (one host-to-device copy -- per *chunk* in the streaming
  replay, which is the batching unit) and results come back through
  :meth:`to_numpy`.  Only the small ``(T, num_paths)`` / ``(T,)`` outputs
  round-trip the host.
* ``compute_dtype`` is the dtype the hot path computes in (float32 on GPU
  backends); :attr:`tolerance` is the equivalence bound the test suites pin
  that backend to against the default numpy path.
* The LP normalisers never touch a backend -- they stay on CPU/HiGHS behind
  the persistent :class:`~repro.solvers.lp.OptimalMLUCache`.
"""

from __future__ import annotations

import weakref
from typing import Any

import numpy as np

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """Base class for array backends.

    Subclasses set :attr:`name`, :attr:`compute_dtype` and
    :attr:`tolerance`, and implement the small functional op set below.
    Arrays handled by these ops are *backend-native* (numpy arrays, torch
    tensors, or the pure-python reference's ``PyArray``); conversion happens
    only in :meth:`asarray` / :meth:`to_numpy`.

    Attributes:
        name: Registry name (``"numpy"``, ``"torch"``, ...).
        compute_dtype: Numpy dtype the hot path computes in.
        tolerance: Absolute tolerance the equivalence suites use when
            pinning this backend to the default numpy replay (0.0 means
            bit-identical).
        native_numpy: True only for the default numpy backend, which makes
            the MLU, rerouting and per-pair normalisation steps keep their
            scipy-sparse products (the forward's layer chain is shared by
            every backend).
    """

    name: str = "abstract"
    compute_dtype: Any = np.float64
    tolerance: float = 0.0
    native_numpy: bool = False

    def __init__(self) -> None:
        self._path_data: "weakref.WeakKeyDictionary[Any, dict]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def asarray(self, values, dtype=None):
        """Convert to a backend-native array.

        ``dtype=None`` preserves a floating input's dtype (float32 in ->
        float32 out); the hot path passes ``dtype=self.compute_dtype``
        explicitly.  Backend-native inputs pass through without copying.
        """
        raise NotImplementedError

    def to_numpy(self, array) -> np.ndarray:
        """Convert a backend-native array back to numpy (dtype preserved)."""
        raise NotImplementedError

    def index_array(self, indices):
        """Convert an integer index array to the backend's native form."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Elementwise / shape ops (numpy-style broadcasting)
    # ------------------------------------------------------------------ #
    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError

    def matmul(self, a, b):
        raise NotImplementedError

    def relu(self, x):
        raise NotImplementedError

    def sigmoid(self, x):
        raise NotImplementedError

    def where(self, condition, a, b):
        """Elementwise select; ``a`` / ``b`` may be scalars or arrays."""
        raise NotImplementedError

    def greater(self, a, b):
        raise NotImplementedError

    def less_equal(self, a, b):
        raise NotImplementedError

    def atleast_2d(self, x):
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Gather / segment / reduction ops
    # ------------------------------------------------------------------ #
    def take_last(self, x, indices):
        """``x[..., indices]`` with a native integer index array."""
        raise NotImplementedError

    def segment_sum(self, x, indices, num_segments: int):
        """Sum the last axis of ``x`` grouped by segment id."""
        raise NotImplementedError

    def max_last(self, x):
        """Maximum over the last axis."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Path-set constants
    # ------------------------------------------------------------------ #
    def edge_loads(self, data: dict, flow_on_path):
        """Per-edge loads of a ``(T, num_paths)`` flow matrix.

        The default multiplies by the dense path-to-edge incidence prepared
        in :meth:`path_set_data` -- the replay is then literally two matmuls
        per scheme, as ROADMAP's accelerator notes anticipated.  Backends
        with a fast sparse matmul may override.
        """
        return self.matmul(flow_on_path, data["path_to_edge"])

    def path_set_data(self, path_set) -> dict:
        """Device-resident constants of a path set (cached per backend).

        One conversion per (backend, path set) pair: the SD-pair index, the
        dense path-to-edge incidence, capacities, and the per-path uniform
        fallback ratios used by dead-pair handling and failure rerouting.
        """
        data = self._path_data.get(path_set)
        if data is None:
            counts = np.asarray(path_set.sd_to_path.sum(axis=1)).ravel()
            data = {
                "index": self.index_array(path_set.path_sd_index),
                "num_pairs": path_set.num_sd_pairs,
                "path_to_edge": self.asarray(
                    path_set.path_to_edge.toarray(), dtype=self.compute_dtype
                ),
                "capacities": self.asarray(
                    path_set.topology.capacities, dtype=self.compute_dtype
                ),
                "uniform": self.asarray(
                    1.0 / counts[path_set.path_sd_index], dtype=self.compute_dtype
                ),
            }
            self._path_data[path_set] = data
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"dtype={np.dtype(self.compute_dtype).name})"
        )
