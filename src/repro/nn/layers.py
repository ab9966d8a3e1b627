"""Neural network layers built on the autodiff :class:`Tensor`.

FIGRET's architecture (Appendix D.4) is a plain fully connected network: five
hidden layers of 128 ReLU units and a Sigmoid output layer.  This module
provides the :class:`Linear`, :class:`ReLU`, :class:`Sigmoid` and
:class:`Sequential` building blocks needed to express it, plus the
:class:`Module` base class with parameter management.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Module", "Linear", "ReLU", "Sigmoid", "Sequential"]


class Module:
    """Base class for layers and models.

    Subclasses register parameters by assigning :class:`Tensor` attributes
    with ``requires_grad=True`` or by assigning sub-modules; ``parameters()``
    collects them recursively.
    """

    def parameters(self) -> list[Tensor]:
        """All trainable parameters of this module and its sub-modules."""
        params: list[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Tensor) and item.requires_grad:
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        """Reset gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.data.size for p in self.parameters())

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Dense layer ``y = x W + b``.

    Weights use Kaiming-uniform initialisation (the PyTorch default for
    ``nn.Linear``), which is what the original FIGRET implementation relies
    on implicitly.

    Args:
        in_features: Input dimensionality.
        out_features: Output dimensionality.
        rng: Optional NumPy generator for reproducible initialisation.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng()
        bound = 1.0 / np.sqrt(in_features)
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = Tensor(rng.uniform(-bound, bound, size=out_features), requires_grad=True)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        if not modules:
            raise ValueError("Sequential needs at least one module")
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for module in self.modules:
            out = module(out)
        return out
