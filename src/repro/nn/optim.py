"""Gradient-descent optimizers.

FIGRET trains with Adam (Appendix D.4).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Adam", "clip_gradient_norm"]


#: Elements per block of :meth:`Adam.step`.  One block each of the weights,
#: the gradient, both moments and two scratch arrays is 6 x 16384 x 8 B =
#: 768 KB, which sits in a 1-2 MB L2 with room to spare; the update is then
#: bound by its divisions and square root, not by memory traffic.  Measured
#: on the 2-core dev box (2 MB L2) over a 6624 x 128 parameter: 4096 -> 8.5
#: ms, 8192 -> 7.8, 16384 -> 7.2, 32768 -> 7.1, 131072 -> 8.0, whole array
#: (the old expression) -> 15.5; smaller blocks pay per-call overhead, larger
#: ones fall out of cache.
_BLOCK = 16384

#: Idle ``_BLOCK``-sized scratch arrays of :func:`clip_gradient_norm`.  A
#: stack, not a single slot: ``pop`` / ``append`` are atomic, so two threads
#: clipping at once never square into one array.
_square_scratch: list[np.ndarray] = []


def _sum_of_squares(flat: np.ndarray, block: np.ndarray) -> float:
    """``np.sum(flat**2)`` for a 1-D contiguous ``flat``, squared a block at a time.

    NumPy sums a contiguous array pairwise: a run of more than 128 elements
    is split at ``n // 2`` rounded down to a multiple of 8, and the two
    halves' sums are added.  Splitting the same way down to pieces of at
    most ``block.size`` elements, and letting ``np.sum`` do the rest of the
    tree on each piece, adds the same numbers in the same order -- the bits
    of ``np.sum(flat**2)`` -- with no temporary larger than ``block``.
    """
    size = flat.size
    if size <= block.size:
        squares = block[:size]
        np.square(flat, out=squares)
        return np.add.reduce(squares)
    half = size // 2
    half -= half % 8
    return _sum_of_squares(flat[:half], block) + _sum_of_squares(flat[half:], block)


def clip_gradient_norm(parameters: list[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping global norm (useful for monitoring).  Each
    gradient's sum of squares has the bits of ``np.sum(grad**2)``: a
    C-contiguous gradient is squared ``_BLOCK`` elements at a time into one
    scratch array (:func:`_sum_of_squares`), so clipping allocates nothing
    the size of a gradient; any other gradient is squared into a fresh array.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    block = _square_scratch.pop() if _square_scratch else np.empty(_BLOCK)
    total = 0.0
    for param in parameters:
        grad = param.grad
        if grad is None:
            continue
        if grad.flags.c_contiguous:
            total += float(_sum_of_squares(grad.reshape(-1), block))
        else:
            total += float(np.sum(np.square(grad)))
    _square_scratch.append(block)
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad *= scale
    return norm


class Adam:
    """The Adam optimizer (Kingma & Ba, 2014), as used by FIGRET.

    ``step`` evaluates the textbook expression ::

        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)

    one ufunc at a time, exactly as the whole-array NumPy expression would,
    but over blocks of :data:`_BLOCK` elements with every intermediate
    written into two block-sized scratch arrays.  Elementwise operations do
    not care how an array is cut, so weights and moments have the bits of the
    whole-array form; what changes is that no parameter-sized temporary is
    allocated or streamed through memory (the whole-array form makes 14
    passes and 8 temporaries per parameter per step).  ``lr`` is read on
    every step (the trainer decays it after each epoch) and no view of
    ``param.data`` is kept between steps (a caller may rebind it).

    The moments are twice the size of the weights and only an optimisation
    in progress reads them: :meth:`release` frees them and the scratch when
    it ends, and the first ``step`` after that allocates them again, the
    moments at zero.

    Args:
        parameters: Tensors to update.
        lr: Learning rate.
        betas: Exponential decay rates for the first and second moments.
        eps: Numerical stabiliser.
    """

    def __init__(
        self,
        parameters: list[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step = 0
        self._start()

    def _start(self) -> None:
        self._m: list[np.ndarray] | None = [np.zeros_like(p.data) for p in self.parameters]
        self._v: list[np.ndarray] | None = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: tuple[np.ndarray, np.ndarray] | None = (
            np.empty(_BLOCK),
            np.empty(_BLOCK),
        )

    def release(self) -> None:
        """End the optimisation: free both moments, the scratch and every gradient.

        The step count returns to zero with them, so the next ``step`` is the
        first step of a new optimisation from the current weights -- what a
        new ``Adam`` over the same parameters would do, without holding
        zero-filled moments until then.  The moments are dropped, not
        re-zeroed: ``np.zeros_like`` of a block the allocator has just taken
        back is served from the heap and written, hence resident.
        """
        self._step = 0
        self._m = self._v = self._scratch = None
        self.zero_grad()

    def step(self) -> None:
        """Apply one Adam update using the accumulated gradients."""
        if self._m is None:
            self._start()
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        grad_weight1 = 1.0 - self.beta1
        grad_weight2 = 1.0 - self.beta2
        scratch1, scratch2 = self._scratch
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            # nditer hands out matching 1-D chunks of at most _BLOCK elements
            # for any shape or layout (0-d, non-contiguous views: those are
            # buffered and written back), so there is no flat view to get
            # wrong -- ``reshape(-1)`` of a non-contiguous array is a copy.
            blocks = np.nditer(
                [param.data, m, v, param.grad],
                flags=["external_loop", "buffered", "zerosize_ok"],
                op_flags=[["readwrite"], ["readwrite"], ["readwrite"], ["readonly"]],
                buffersize=_BLOCK,
            )
            with blocks:
                for data, m_block, v_block, grad in blocks:
                    first, second = scratch1[: data.size], scratch2[: data.size]
                    np.multiply(m_block, self.beta1, out=m_block)
                    np.multiply(grad, grad_weight1, out=first)
                    np.add(m_block, first, out=m_block)
                    np.multiply(v_block, self.beta2, out=v_block)
                    np.square(grad, out=first)
                    np.multiply(first, grad_weight2, out=first)
                    np.add(v_block, first, out=v_block)
                    np.divide(m_block, bias1, out=first)  # m_hat
                    np.divide(v_block, bias2, out=second)  # v_hat
                    np.multiply(first, self.lr, out=first)
                    np.sqrt(second, out=second)
                    np.add(second, self.eps, out=second)
                    np.divide(first, second, out=first)
                    np.subtract(data, first, out=data)

    def zero_grad(self) -> None:
        """Reset the gradients of all managed parameters."""
        for param in self.parameters:
            param.zero_grad()
