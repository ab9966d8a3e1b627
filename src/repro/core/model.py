"""The FIGRET / DOTE network architecture (Appendix D.4).

A plain fully connected network maps the flattened history window of demand
vectors to one raw score per candidate path.  Hidden layers use ReLU; the
output layer uses Sigmoid.  Raw scores are turned into valid split ratios by
per-SD-pair normalisation (see :class:`repro.core.loss.TELoss`), which is how
the paper guarantees feasibility of the DNN output (Section 6).
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, active_backend, use_backend
from repro.nn import Linear, Module, ReLU, Sequential, Sigmoid, Tensor
from repro.paths.path_set import PathSet

__all__ = ["FigretNet"]


class FigretNet(Module):
    """Fully connected network mapping demand history to raw path scores.

    Args:
        path_set: Candidate paths (defines the output dimensionality).
        history_len: Number of demand matrices in the input window (H).
        hidden_sizes: Hidden layer widths (five layers of 128 by default).
        seed: Weight initialisation seed.
    """

    def __init__(
        self,
        path_set: PathSet,
        history_len: int = 12,
        hidden_sizes: tuple[int, ...] = (128, 128, 128, 128, 128),
        seed: int = 0,
    ) -> None:
        self.path_set = path_set
        self.history_len = history_len
        self.input_dim = history_len * path_set.num_sd_pairs
        self.output_dim = path_set.num_paths
        rng = np.random.default_rng(seed)
        layers: list[Module] = []
        previous = self.input_dim
        for width in hidden_sizes:
            layers.append(Linear(previous, width, rng=rng))
            layers.append(ReLU())
            previous = width
        layers.append(Linear(previous, self.output_dim, rng=rng))
        layers.append(Sigmoid())
        self.network = Sequential(*layers)

    def forward(self, x):
        """Raw (0, 1) path scores for a batch of flattened history windows.

        A :class:`Tensor` in gives a taped :class:`Tensor` out (training:
        ``backward`` must reach the weights).  Anything else is inference: a
        batch native to the active backend comes back as one -- ndarray in,
        ndarray out on numpy -- through the same layer chain on plain
        arrays, with no autodiff node recorded.  On numpy the ops are the
        expressions :class:`Tensor` evaluates (``x @ W + b``,
        ``x * (x > 0)``, the two-branch sigmoid): same bits either way.
        """
        if isinstance(x, Tensor):
            return self.network(x)
        xb = active_backend()
        for module in self.network.modules:
            if isinstance(module, Linear):
                # Converted per call: the weights are tiny next to the batch.
                weight = xb.asarray(module.weight.data, dtype=xb.compute_dtype)
                bias = xb.asarray(module.bias.data, dtype=xb.compute_dtype)
                x = xb.add(xb.matmul(x, weight), bias)
            elif isinstance(module, ReLU):
                x = xb.relu(x)
            elif isinstance(module, Sigmoid):
                x = xb.sigmoid(x)
            else:  # pragma: no cover - the architecture is fixed above
                raise TypeError(f"unsupported layer for inference: {module!r}")
        return x

    def split_ratios(self, history_window: np.ndarray, input_scale: float = 1.0) -> np.ndarray:
        """Convenience inference helper returning normalised split ratios.

        Args:
            history_window: Array of shape ``(H, num_sd_pairs)`` (a single
                window) or ``(H * num_sd_pairs,)``.
            input_scale: Divisor applied to the inputs (the trainer scales
                inputs by the mean training demand).

        Returns:
            Split ratios of shape ``(num_paths,)`` with each SD pair's ratios
            summing to one.
        """
        window = np.asarray(history_window, dtype=float).reshape(1, -1)
        if window.shape[1] != self.input_dim:
            raise ValueError(
                f"expected a window with {self.input_dim} entries, got {window.shape[1]}"
            )
        with use_backend("numpy"):  # the single-window path is float64 numpy
            raw = self.forward(window / input_scale)[0]
        sums = np.zeros(self.path_set.num_sd_pairs)
        np.add.at(sums, self.path_set.path_sd_index, raw)
        sums = np.maximum(sums, 1e-12)
        return raw / sums[self.path_set.path_sd_index]

    def split_ratios_batch(
        self,
        windows: np.ndarray,
        input_scale: float = 1.0,
        backend: ArrayBackend | str | None = None,
    ) -> np.ndarray:
        """Normalised split ratios for a batch of windows in one forward pass.

        Args:
            windows: Array of shape ``(T, H, num_sd_pairs)`` or already
                flattened ``(T, H * num_sd_pairs)``.
            input_scale: Divisor applied to the inputs (the trainer scales
                inputs by the mean training demand).
            backend: Array backend running the forward pass (the active
                backend -- ``REPRO_BACKEND`` or a :func:`use_backend`
                override -- when omitted).  Every backend runs the same
                tape-free layer chain (:meth:`forward`) on one
                host-to-device copy of the batch; the raw scores come back
                to the host once, as float64, and are normalised per pair
                there through the sparse SD-to-path matrix.  The default
                numpy backend gives the bits the taped float64 forward gave;
                alternates match it within their declared tolerance, only
                the forward differing.

        Returns:
            Split ratios of shape ``(T, num_paths)``; every SD pair's ratios
            sum to one within each row.
        """
        arr = np.asarray(windows, dtype=float)
        if arr.ndim == 3:
            arr = arr.reshape(arr.shape[0], -1)
        if arr.ndim != 2 or arr.shape[1] != self.input_dim:
            raise ValueError(
                f"expected windows with {self.input_dim} entries each, got shape {arr.shape}"
            )
        with use_backend(backend) as xb:
            # One host-to-device copy of the (already flattened) window batch.
            raw = self.forward(xb.asarray(arr / input_scale, dtype=xb.compute_dtype))
        raw = np.asarray(xb.to_numpy(raw), dtype=float)
        # Per-SD-pair sums for every row via the sparse incidence matrix.
        sums = (self.path_set.sd_to_path @ raw.T).T
        # Pairs whose scores underflowed to (effectively) zero fall back to a
        # uniform split, mirroring TEConfiguration's zero-sum handling on the
        # per-window path; live pairs divide by their true sum so every row
        # is a valid per-pair distribution.
        dead = sums <= 1e-18
        denominator = np.where(dead, 1.0, sums)
        ratios = raw / denominator[:, self.path_set.path_sd_index]
        if dead.any():
            counts = np.asarray(self.path_set.sd_to_path.sum(axis=1)).ravel()
            uniform = 1.0 / counts[self.path_set.path_sd_index]
            ratios = np.where(dead[:, self.path_set.path_sd_index], uniform, ratios)
        return ratios
