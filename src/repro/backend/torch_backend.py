"""PyTorch backend (optional; auto-detected).

Runs the forward's layer chain on torch tensors -- on CUDA when available,
otherwise on CPU (where ``asarray``/``to_numpy`` are zero-copy for matching
dtypes, so the backend costs almost nothing).  The compute dtype defaults to
float32, matching what a GPU deployment would use; set
``REPRO_BACKEND_DTYPE=float64`` to run torch in double precision.

Importing this module raises :class:`ImportError` when torch is missing;
the registry in :mod:`repro.backend` turns that into a one-time warning and
a numpy fallback.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend

import torch  # noqa: E402  (the gating import -- keep it after the cheap ones)

__all__ = ["TorchBackend"]


class TorchBackend(ArrayBackend):
    """Torch tensors on CUDA when available, CPU otherwise."""

    name = "torch"
    tolerance = 1e-6

    def __init__(self, dtype=np.float32) -> None:
        self.compute_dtype = np.dtype(dtype).type
        self.device = torch.device("cuda" if torch.cuda.is_available() else "cpu")

    @staticmethod
    def _torch_dtype(dtype):
        if dtype is None:
            return None
        kind = np.dtype(dtype)
        if kind == np.float32:
            return torch.float32
        if kind == np.float64:
            return torch.float64
        raise ValueError(f"unsupported dtype for the torch backend: {dtype!r}")

    def asarray(self, values, dtype=None):
        if isinstance(values, torch.Tensor):
            wanted = self._torch_dtype(dtype)
            return values if wanted is None else values.to(wanted)
        # ascontiguousarray: broadcast views (zero strides) from the static
        # schemes are not valid torch storage.
        arr = np.ascontiguousarray(np.asarray(values))
        wanted = self._torch_dtype(dtype)
        if wanted is None and arr.dtype.kind != "f":
            wanted = self._torch_dtype(self.compute_dtype)
        return torch.as_tensor(arr, dtype=wanted, device=self.device)

    def to_numpy(self, array) -> np.ndarray:
        if isinstance(array, torch.Tensor):
            return array.detach().cpu().numpy()
        return np.asarray(array)

    def add(self, a, b):
        return a + b

    def matmul(self, a, b):
        return a @ b

    def relu(self, x):
        return torch.relu(x)

    def sigmoid(self, x):
        return torch.sigmoid(x)
