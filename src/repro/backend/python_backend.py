"""Pure-python reference backend.

This backend implements the generic hot-path op set with plain Python lists
and ``math`` -- no numpy inside the ops.  It is deliberately slow and exists
for one reason: CI determinism checks.  The torch backend runs the same
*generic* code path in the hot functions, so pinning the pure-python backend
to the numpy replay (float64, ~1e-9 -- only summation-order rounding differs)
proves that code path is correct on machines with no GPU and no optional
dependencies at all.

Arrays are :class:`PyArray`: a flat row-major ``list[float]`` plus a shape
tuple, supporting 1-D and 2-D shapes with numpy-style broadcasting across
the leading axis (everything the replay hot path uses).
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


def _broadcast_binary(a: PyArray, b, fn) -> PyArray:
    """Apply ``fn`` elementwise with scalar / row / full broadcasting."""
    if not isinstance(b, PyArray):
        scalar = float(b)
        return PyArray(a.shape, [fn(v, scalar) for v in a.data])
    ra, ca = a.rows_cols()
    rb, cb = b.rows_cols()
    if ca != cb:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    rows = max(ra, rb)
    if ra not in (1, rows) or rb not in (1, rows):
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    out = [0.0] * (rows * ca)
    for r in range(rows):
        base = r * ca
        base_a = (r if ra > 1 else 0) * ca
        base_b = (r if rb > 1 else 0) * cb
        da, db = a.data, b.data
        for c in range(ca):
            out[base + c] = fn(da[base_a + c], db[base_b + c])
    shape = (rows, ca) if max(a.ndim, b.ndim) == 2 else (ca,)
    return PyArray(shape, out)


def _stable_sigmoid(value: float) -> float:
    if value >= 0:
        return 1.0 / (1.0 + math.exp(-min(value, 60.0)))
    bounded = math.exp(max(value, -60.0))
    return bounded / (1.0 + bounded)


class PythonBackend(ArrayBackend):
    """The pure-python reference backend (generic-path determinism checks)."""

    name = "python"
    compute_dtype = np.float64
    tolerance = 1e-9
    native_numpy = False

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

    def index_array(self, indices):
        return [int(i) for i in np.asarray(indices).ravel()]

    def add(self, a, b):
        return _broadcast_binary(a, b, lambda x, y: x + y)

    def mul(self, a, b):
        return _broadcast_binary(a, b, lambda x, y: x * y)

    def div(self, a, b):
        return _broadcast_binary(a, b, lambda x, y: x / y)

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

    def where(self, condition: PyArray, a, b) -> PyArray:
        operands = [condition] + [v for v in (a, b) if isinstance(v, PyArray)]
        cols = operands[0].rows_cols()[1]
        rows = max(op.rows_cols()[0] for op in operands)
        ndim = max(op.ndim for op in operands)
        for op in operands:
            r, c = op.rows_cols()
            if c != cols or r not in (1, rows):
                raise ValueError(f"incompatible where shapes {[o.shape for o in operands]}")

        def element(operand, r: int, c: int) -> float:
            if not isinstance(operand, PyArray):
                return float(operand)
            orows, _ = operand.rows_cols()
            return operand.data[(r if orows > 1 else 0) * cols + c]

        out = [
            element(a, r, c) if element(condition, r, c) != 0.0 else element(b, r, c)
            for r in range(rows)
            for c in range(cols)
        ]
        shape = (rows, cols) if ndim == 2 else (cols,)
        return PyArray(shape, out)

    def greater(self, a, b):
        return _broadcast_binary(a, b, lambda x, y: 1.0 if x > y else 0.0)

    def less_equal(self, a, b):
        return _broadcast_binary(a, b, lambda x, y: 1.0 if x <= y else 0.0)

    def atleast_2d(self, x: PyArray) -> PyArray:
        if x.ndim == 2:
            return x
        return PyArray((1, x.shape[0]), list(x.data))

    def take_last(self, x: PyArray, indices) -> PyArray:
        rows, cols = x.rows_cols()
        out = [0.0] * (rows * len(indices))
        for r in range(rows):
            base_in = r * cols
            base_out = r * len(indices)
            for j, idx in enumerate(indices):
                out[base_out + j] = x.data[base_in + idx]
        shape = (rows, len(indices)) if x.ndim == 2 else (len(indices),)
        return PyArray(shape, out)

    def segment_sum(self, x: PyArray, indices, num_segments: int) -> PyArray:
        rows, cols = x.rows_cols()
        if cols != len(indices):
            raise ValueError("segment ids must match the last axis")
        out = [0.0] * (rows * num_segments)
        for r in range(rows):
            base_in = r * cols
            base_out = r * num_segments
            for j, idx in enumerate(indices):
                out[base_out + idx] += x.data[base_in + j]
        shape = (rows, num_segments) if x.ndim == 2 else (num_segments,)
        return PyArray(shape, out)

    def max_last(self, x: PyArray) -> PyArray:
        rows, cols = x.rows_cols()
        out = [max(x.data[r * cols : (r + 1) * cols]) for r in range(rows)]
        shape = (rows,) if x.ndim == 2 else (1,)
        return PyArray(shape, out)
