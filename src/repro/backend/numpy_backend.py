"""NumPy backends: the default float64 backend and a float32 variant.

``numpy`` is the default everywhere.  Its ops are the expressions the
autodiff ``Tensor`` evaluates (``x @ W + b``, ``x * (x > 0)``, the
two-branch sigmoid), so numpy replay is bit-identical to the taped forward
it replaced.

``numpy32`` runs the same forward in float32.  It exists so the float32
tolerance plumbing (the ~1e-6 bound GPU backends need) is exercised on every
machine, GPU or not.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend

__all__ = ["NumpyBackend", "Numpy32Backend"]


class NumpyBackend(ArrayBackend):
    """The default backend: float64 NumPy, bit-identical to the taped forward."""

    name = "numpy"
    compute_dtype = np.float64
    tolerance = 0.0

    def asarray(self, values, dtype=None):
        if dtype is None and isinstance(values, np.ndarray) and values.dtype.kind == "f":
            return values
        return np.asarray(values, dtype=dtype if dtype is not None else self.compute_dtype)

    def to_numpy(self, array) -> np.ndarray:
        return np.asarray(array)

    def add(self, a, b):
        return a + b

    def matmul(self, a, b):
        return a @ b

    def relu(self, x):
        return x * (x > 0)

    def sigmoid(self, x):
        positive = 1.0 / (1.0 + np.exp(-np.clip(x, 0.0, 60.0)))
        negative_exp = np.exp(np.clip(x, -60.0, 0.0))
        return np.where(x >= 0, positive, negative_exp / (1.0 + negative_exp))


class Numpy32Backend(NumpyBackend):
    """The same forward in float32 (float32 CI coverage without a GPU)."""

    name = "numpy32"
    compute_dtype = np.float32
    tolerance = 1e-6
