"""Pure-python reference backend.

This backend implements the forward's six operations with plain Python lists
and ``math`` -- no numpy inside the ops.  It is deliberately slow and exists
for one reason: CI determinism checks.  Every backend runs the same layer
loop (``FigretNet.forward``), so pinning the pure-python backend to the
numpy replay (float64, ~1e-9 -- only summation-order rounding differs) proves
that loop correct with no array library inside the ops at all.

Arrays are :class:`PyArray`: a flat row-major ``list[float]`` plus a shape
tuple, supporting 1-D and 2-D shapes with a 1-D operand broadcast across the
rows of a 2-D one (the bias add -- everything the forward uses).
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.base import ArrayBackend

__all__ = ["PyArray", "PythonBackend"]


class PyArray:
    """A 1-D or 2-D array of python floats (row-major flat storage)."""

    __slots__ = ("shape", "data")

    def __init__(self, shape: tuple[int, ...], data: list[float]) -> None:
        if len(shape) not in (1, 2):
            raise ValueError(f"PyArray supports 1-D and 2-D shapes, got {shape}")
        size = shape[0] if len(shape) == 1 else shape[0] * shape[1]
        if size != len(data):
            raise ValueError(f"shape {shape} does not match {len(data)} elements")
        self.shape = shape
        self.data = data

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def rows_cols(self) -> tuple[int, int]:
        """Logical (rows, cols) with 1-D treated as a single row."""
        if len(self.shape) == 1:
            return 1, self.shape[0]
        return self.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PyArray(shape={self.shape})"


def _stable_sigmoid(value: float) -> float:
    if value >= 0:
        return 1.0 / (1.0 + math.exp(-min(value, 60.0)))
    bounded = math.exp(max(value, -60.0))
    return bounded / (1.0 + bounded)


class PythonBackend(ArrayBackend):
    """The pure-python reference backend (forward determinism checks)."""

    name = "python"
    compute_dtype = np.float64
    tolerance = 1e-9

    def asarray(self, values, dtype=None):
        if isinstance(values, PyArray):
            return values
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim > 2:
            raise ValueError(f"python backend supports 1-D/2-D arrays, got {arr.shape}")
        return PyArray(arr.shape, [float(v) for v in arr.ravel()])

    def to_numpy(self, array) -> np.ndarray:
        if not isinstance(array, PyArray):
            return np.asarray(array, dtype=float)
        return np.array(array.data, dtype=float).reshape(array.shape)

    def add(self, a: PyArray, b: PyArray) -> PyArray:
        ra, cols = a.rows_cols()
        rb, cb = b.rows_cols()
        rows = max(ra, rb)
        if cols != cb or ra not in (1, rows) or rb not in (1, rows):
            raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
        step_a = cols if ra > 1 else 0
        step_b = cols if rb > 1 else 0
        out = [
            a.data[r * step_a + c] + b.data[r * step_b + c]
            for r in range(rows)
            for c in range(cols)
        ]
        shape = (rows, cols) if max(a.ndim, b.ndim) == 2 else (cols,)
        return PyArray(shape, out)

    def matmul(self, a: PyArray, b: PyArray) -> PyArray:
        rows, inner = a.rows_cols()
        rb, cols = b.rows_cols()
        if b.ndim != 2 or inner != rb:
            raise ValueError(f"cannot matmul {a.shape} with {b.shape}")
        out = [0.0] * (rows * cols)
        for r in range(rows):
            row_base = r * inner
            out_base = r * cols
            for k in range(inner):
                left = a.data[row_base + k]
                if left == 0.0:
                    continue
                b_base = k * cols
                for c in range(cols):
                    out[out_base + c] += left * b.data[b_base + c]
        shape = (rows, cols) if a.ndim == 2 else (cols,)
        return PyArray(shape, out)

    def relu(self, x: PyArray) -> PyArray:
        return PyArray(x.shape, [v if v > 0.0 else 0.0 for v in x.data])

    def sigmoid(self, x: PyArray) -> PyArray:
        return PyArray(x.shape, [_stable_sigmoid(v) for v in x.data])
