"""Reverse-mode automatic differentiation over NumPy arrays.

The :class:`Tensor` class implements exactly the operations the TE models
need: dense linear algebra (matmul, broadcast add/mul/div), the activations
used by the FIGRET architecture (ReLU, Sigmoid), reductions (sum, mean, max),
and the per-SD-pair "segment" operations required by the TE loss functions
(gather, segment-sum, segment-max).

The implementation follows the classic tape-free design: every operation
builds a small closure that, given the upstream gradient, accumulates
gradients into its parents' ``grad`` buffers; ``backward()`` walks the graph
in reverse topological order.  Only float64 arrays are supported, which keeps
gradient checking simple and accurate.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = ["Tensor"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _segment_layout(segment_ids: np.ndarray, num_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Group item positions by segment, CSR style, for any ids.

    Returns ``(order, indptr)``: ``order[indptr[s]:indptr[s + 1]]`` are the
    items of segment ``s`` in increasing item order (the sort is stable);
    an empty segment has ``indptr[s] == indptr[s + 1]``.
    """
    order = np.argsort(segment_ids, kind="stable")
    indptr = np.zeros(num_segments + 1, dtype=np.int64)
    np.cumsum(np.bincount(segment_ids, minlength=num_segments), out=indptr[1:])
    return order, indptr


def _segment_sum(values: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Row-wise segment sums of a ``(batch, num_items)`` array.

    One product with the ``(num_segments, num_items)`` 0/1 membership matrix.
    The contract is the summation order, not just the value: every sum
    starts from ``+0.0`` and adds its items in increasing item order (CSR
    rows are walked left to right), which is what a scatter-add over the
    items does, so training histories do not depend on which of the two
    computed them.  ``np.add.reduceat`` does *not* keep that order.
    """
    order, indptr = _segment_layout(segment_ids, num_segments)
    membership = sparse.csr_matrix(
        (np.ones(order.shape[0]), order, indptr), shape=(num_segments, order.shape[0])
    )
    return np.ascontiguousarray((membership @ values.T).T)


class Tensor:
    """A NumPy array with reverse-mode autodiff support.

    Args:
        data: Array-like data (converted to float64).
        requires_grad: Whether gradients should flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # ndarray <op> Tensor defers to Tensor.__r<op>__.

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Pickle values only: the autodiff tape is process-local closures.

        A pickled tensor transports ``data`` and ``requires_grad``; gradients
        and graph edges are dropped, so non-leaf tensors unpickle as detached
        constants (exactly what shipping trained weights to a worker needs).
        """
        return {"data": self.data, "requires_grad": self.requires_grad}

    def __setstate__(self, state: dict) -> None:
        self.data = state["data"]
        self.requires_grad = state["requires_grad"]
        self.grad = None
        self._backward = None
        self._parents = ()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def as_tensor(value) -> "Tensor":
        """Wrap a value in a (constant) Tensor if it is not one already."""
        return value if isinstance(value, Tensor) else Tensor(value)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    def item(self) -> float:
        """The Python float value of a single-element tensor."""
        if self.data.size != 1:
            raise ValueError("item() requires a tensor with exactly one element")
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """A copy of the underlying data."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """A constant tensor sharing this tensor's values."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        Ownership rule: the first gradient a tensor receives *becomes* its
        buffer instead of being added into a zero-filled one.  A backward
        closure passes ``owned=True`` only for an array it has just
        allocated itself (``left.T @ upstream``, ``grad * mask``, ...), which
        nobody else can hold; such an array is adopted as is when it has the
        buffer's shape and memory layout.  Anything else -- the upstream
        ``grad`` handed through unchanged (``__add__`` gives it to both
        parents), a view of it (``reshape``), the caller's array in
        ``backward(grad)``, a broadcastable or differently laid out array --
        is copied, because every later gradient is added into the buffer in
        place and an array with a second holder would be corrupted silently.
        Gradients therefore equal the zero-fill-then-add values, except that
        an adopted ``-0.0`` keeps its sign (``0.0 + -0.0`` is ``+0.0``).
        """
        if not self.requires_grad:
            return
        if self.grad is not None:
            self.grad += grad
        elif (
            owned
            and isinstance(grad, np.ndarray)
            and grad.shape == self.data.shape
            and grad.strides == self.data.strides
        ):
            self.grad = grad
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = grad

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))
            other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape), owned=True)
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape), owned=True)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.data.shape), owned=True)
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape),
                owned=True,
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.as_tensor(other) / self

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim != 2:
            raise ValueError("matmul supports (..., m) x (m, n) with 2-D right operand")
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T, owned=True)
            if other.requires_grad:
                left = self.data.reshape(-1, self.data.shape[-1])
                upstream = grad.reshape(-1, grad.shape[-1])
                other._accumulate(left.T @ upstream, owned=True)

        return self._make(out_data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Non-linearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, owned=True)

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Logistic sigmoid (numerically stable)."""
        positive = 1.0 / (1.0 + np.exp(-np.clip(self.data, 0.0, 60.0)))
        negative_exp = np.exp(np.clip(self.data, -60.0, 0.0))
        out_data = np.where(self.data >= 0, positive, negative_exp / (1.0 + negative_exp))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data), owned=True)

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data, owned=True)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, owned=True)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over an axis (or everything)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            local = np.asarray(grad)
            if axis is not None and not keepdims:
                local = np.expand_dims(local, axis)
            self._accumulate(np.broadcast_to(local, self.data.shape).copy(), owned=True)

        return self._make(out_data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Mean over an axis (or everything)."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Maximum over an axis (or everything).

        The gradient flows only to the (first) position achieving the max in
        each reduced slice, matching PyTorch's semantics up to tie-breaking.
        """
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            local_grad = np.asarray(grad)
            if axis is None:
                mask = np.zeros_like(self.data)
                mask[np.unravel_index(np.argmax(self.data), self.data.shape)] = 1.0
                self._accumulate(mask * local_grad, owned=True)
                return
            expanded = local_grad if keepdims else np.expand_dims(local_grad, axis)
            argmax = np.argmax(self.data, axis=axis)
            mask = np.zeros_like(self.data)
            np.put_along_axis(mask, np.expand_dims(argmax, axis), 1.0, axis=axis)
            self._accumulate(mask * expanded, owned=True)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape / indexing / segment ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        """Reshape (returns a new tensor)."""
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make(out_data, (self,), backward)

    def gather_last(self, index: np.ndarray) -> "Tensor":
        """Index the last axis with an integer array (``x[..., index]``).

        Used to broadcast per-SD-pair quantities onto paths: if ``x`` has
        shape ``(..., num_sd)`` and ``index`` maps each path to its SD pair,
        the result has shape ``(..., num_paths)``.  The backward pass is the
        segment sum of the upstream gradient under ``index`` (any ids:
        repeated, unsorted, some never named), accumulated in item order --
        see :func:`_segment_sum`.
        """
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data[..., index]

        def backward(grad: np.ndarray) -> None:
            flat_grad = grad.reshape(-1, index.shape[0])
            local = _segment_sum(flat_grad, index, self.data.shape[-1])
            self._accumulate(local.reshape(self.data.shape), owned=True)

        return self._make(out_data, (self,), backward)

    def segment_sum(self, segment_ids: np.ndarray, num_segments: int) -> "Tensor":
        """Sum entries of the last axis grouped by segment id.

        If ``x`` has shape ``(..., num_paths)`` and ``segment_ids`` maps each
        path to its SD pair, the result has shape ``(..., num_segments)`` with
        the per-pair sums.  This is how the per-pair constraint
        ``sum_p r_p = 1`` is enforced by normalisation.  Ids may be unsorted
        and segments empty (they sum to zero); each sum adds its items in
        increasing item order starting from zero, and that order is part of
        the contract (see :func:`_segment_sum`).
        """
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        flat_in = self.data.reshape(-1, self.data.shape[-1])
        flat_out = _segment_sum(flat_in, segment_ids, num_segments)
        out_data = flat_out.reshape(self.data.shape[:-1] + (num_segments,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[..., segment_ids], owned=True)

        return self._make(out_data, (self,), backward)

    def segment_max(self, segment_ids: np.ndarray, num_segments: int) -> "Tensor":
        """Maximum of entries of the last axis grouped by segment id.

        Used for ``S^max_sd`` -- the largest path sensitivity of each SD pair
        (Equation 8).  The gradient flows to the first entry of each segment
        that achieves the maximum.  Ids may be unsorted; an empty segment is
        ``-inf`` and receives no gradient.  Items are sorted by segment once
        and reduced with ``reduceat``: maxima and minima do not depend on the
        order they are taken in, so unlike the sums there is no order to keep.
        """
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        flat_in = self.data.reshape(-1, self.data.shape[-1])
        batch, num_items = flat_in.shape
        order, indptr = _segment_layout(segment_ids, num_segments)
        # reduceat reads a repeated start as a one-item slice, so only the
        # non-empty segments are reduced; their starts partition the items.
        occupied = np.flatnonzero(np.diff(indptr))
        starts = indptr[occupied]
        flat_out = np.full((batch, num_segments), -np.inf)
        flat_out[:, occupied] = np.maximum.reduceat(flat_in[:, order], starts, axis=1)
        out_data = flat_out.reshape(self.data.shape[:-1] + (num_segments,))

        # Pre-compute the index of the first argmax item of every segment so
        # the backward pass is one scatter; ``num_items`` (an extra column
        # dropped afterwards) stands for "no item".
        is_max = flat_in >= flat_out[:, segment_ids]
        candidate = np.where(is_max, np.arange(num_items), num_items)
        first_argmax = np.full((batch, num_segments), num_items, dtype=np.int64)
        first_argmax[:, occupied] = np.minimum.reduceat(candidate[:, order], starts, axis=1)

        def backward(grad: np.ndarray) -> None:
            local = np.zeros((batch, num_items + 1))
            # Distinct segments have distinct argmax items, so assignment is
            # the scatter-add; only the dropped column is hit more than once.
            np.put_along_axis(local, first_argmax, grad.reshape(batch, num_segments), axis=1)
            self._accumulate(local[:, :num_items].reshape(self.data.shape), owned=True)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate gradients from this tensor into every ancestor.

        Args:
            grad: Upstream gradient.  Defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise ValueError("cannot call backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"
