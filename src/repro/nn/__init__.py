"""Minimal deep-learning substrate: reverse-mode autodiff over NumPy.

FIGRET and DOTE train fully connected networks by gradient descent on a
differentiable MLU (+ sensitivity) loss.  The original implementation uses
PyTorch; this package provides the small subset of functionality those models
need -- a reverse-mode autodiff :class:`Tensor`, dense layers, activations,
and the Adam optimizer -- implemented on top of NumPy.
"""

from repro.nn.tensor import Tensor
from repro.nn.layers import Linear, ReLU, Sigmoid, Sequential, Module
from repro.nn.optim import Adam, clip_gradient_norm

__all__ = [
    "Tensor",
    "Module",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Sequential",
    "Adam",
    "clip_gradient_norm",
]
