"""NumPy backends: the default float64 backend and a float32 variant.

``numpy`` is the default everywhere and is special: MLU, rerouting and the
forward's per-pair sums detect it (``native_numpy``) and keep their
scipy-sparse products.  The forward's layer chain is the generic loop; its
ops here are the expressions the autodiff ``Tensor`` evaluates, so numpy
replay is bit-identical to the taped forward it replaced.

``numpy32`` computes through the *generic* backend code path in float32.  It
exists so the float32 tolerance plumbing (the ~1e-6 bound GPU backends need)
is exercised on every machine, GPU or not -- the same role the pure-python
backend plays for the generic path's correctness.
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
    native_numpy = True

    def asarray(self, values, dtype=None):
        if dtype is None and isinstance(values, np.ndarray) and values.dtype.kind == "f":
            return values
        return np.asarray(values, dtype=dtype if dtype is not None else self.compute_dtype)

    def to_numpy(self, array) -> np.ndarray:
        return np.asarray(array)

    def index_array(self, indices):
        return np.asarray(indices, dtype=np.int64)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def matmul(self, a, b):
        return a @ b

    def relu(self, x):
        return x * (x > 0)

    def sigmoid(self, x):
        positive = 1.0 / (1.0 + np.exp(-np.clip(x, 0.0, 60.0)))
        negative_exp = np.exp(np.clip(x, -60.0, 0.0))
        return np.where(x >= 0, positive, negative_exp / (1.0 + negative_exp))

    def where(self, condition, a, b):
        return np.where(condition, a, b)

    def greater(self, a, b):
        return a > b

    def less_equal(self, a, b):
        return a <= b

    def atleast_2d(self, x):
        return np.atleast_2d(x)

    def take_last(self, x, indices):
        return x[..., indices]

    def segment_sum(self, x, indices, num_segments: int):
        out = np.zeros(x.shape[:-1] + (num_segments,), dtype=x.dtype)
        np.add.at(out, (..., indices), x)
        return out

    def max_last(self, x):
        return x.max(axis=-1)


class Numpy32Backend(NumpyBackend):
    """Float32 NumPy through the generic code path (float32 CI coverage)."""

    name = "numpy32"
    compute_dtype = np.float32
    tolerance = 1e-6
    native_numpy = False
