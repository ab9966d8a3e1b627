"""The :class:`ArrayBackend` abstraction shared by every array backend.

A backend is what a device accelerates: the ``FigretNet`` forward, a chain
of dense matmuls with ReLU / sigmoid between them (Appendix D.4) -- the
paper's only dense computation.  This class captures exactly that chain as
*functional* operations (no reliance on operator overloading, so even a
pure-python reference implementation fits).  Everything after the forward --
per-pair normalisation, MLU (``PathToEdge^T @ FlowOnPath`` over a sparse
incidence, Appendix D.1) and failure rerouting -- runs on the host's
scipy-sparse path under every backend.

Contracts every backend honours:

* Public functions stay **numpy at the boundary**: the window batch is
  converted with :meth:`asarray` (one host-to-device copy -- per *chunk* in
  the streaming replay, which is the batching unit) and the ``(T,
  num_paths)`` raw scores come back through :meth:`to_numpy`, once.
* ``compute_dtype`` is the dtype the forward computes in (float32 on GPU
  backends); :attr:`tolerance` is the equivalence bound the test suites pin
  that backend to against the default numpy path.
* The LP normalisers and the LP schemes never touch a backend: their replays
  are identical on every one.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """Base class for array backends.

    Subclasses set :attr:`name`, :attr:`compute_dtype` and
    :attr:`tolerance`, and implement the six operations below.  Arrays
    handled by these ops are *backend-native* (numpy arrays or the
    pure-python reference's ``PyArray``); conversion happens only in
    :meth:`asarray` / :meth:`to_numpy`.

    Attributes:
        name: Registry name (``"numpy"``, ``"python"``, ...).
        compute_dtype: Numpy dtype the forward computes in.
        tolerance: Absolute tolerance the equivalence suites use when
            pinning this backend to the default numpy replay (0.0 means
            bit-identical).
    """

    name: str = "abstract"
    compute_dtype: Any = np.float64
    tolerance: float = 0.0

    def asarray(self, values, dtype=None):
        """Convert to a backend-native array.

        ``dtype=None`` preserves a floating input's dtype (float32 in ->
        float32 out); the forward passes ``dtype=self.compute_dtype``
        explicitly.  Backend-native inputs pass through without copying.
        """
        raise NotImplementedError

    def to_numpy(self, array) -> np.ndarray:
        """Convert a backend-native array back to numpy (dtype preserved)."""
        raise NotImplementedError

    def add(self, a, b):
        """Elementwise sum; a 1-D ``b`` broadcasts over the rows of ``a``."""
        raise NotImplementedError

    def matmul(self, a, b):
        raise NotImplementedError

    def relu(self, x):
        raise NotImplementedError

    def sigmoid(self, x):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"dtype={np.dtype(self.compute_dtype).name})"
        )
