"""Demand matrices and demand matrix sequences.

A demand matrix (DM) is a ``|V| x |V|`` non-negative matrix whose ``(i, j)``
entry is the traffic demand from node ``i`` to node ``j`` (Section 3).  TE
operates on a time series of DMs; :class:`TrafficMatrixSequence` stores such
a series as one array and provides the train/test splitting, windowing, and
per-pair statistics used throughout the evaluation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

import numpy as np

__all__ = ["TrafficMatrix", "TrafficMatrixSequence"]


@lru_cache(maxsize=16)
def _off_diagonal(num_nodes: int) -> np.ndarray:
    """Positions of the SD pairs in a flattened ``n x n`` matrix (row-major)."""
    positions = np.flatnonzero(~np.eye(num_nodes, dtype=bool))
    positions.setflags(write=False)
    return positions


def _check_demands(values: np.ndarray, per_interval: bool = True) -> None:
    """Reject non-finite or negative demands (leading axis: the interval)."""
    finite = np.isfinite(values)
    if not finite.all():
        where = ""
        if per_interval:
            first = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
            where = f" (first non-finite entry in interval {first})"
        raise ValueError(f"demand matrix entries must be finite{where}")
    if (values < 0).any():
        raise ValueError("demand matrix entries must be non-negative")


def _square(flat: np.ndarray, num_nodes: int) -> np.ndarray:
    """Scatter ``(..., n*(n-1))`` demands into fresh ``(..., n, n)`` matrices."""
    lead = flat.shape[:-1]
    square = np.zeros(lead + (num_nodes * num_nodes,))
    square[..., _off_diagonal(num_nodes)] = flat
    return square.reshape(lead + (num_nodes, num_nodes))


class TrafficMatrix:
    """A single demand matrix.

    Args:
        matrix: Square, finite, non-negative array.  The diagonal is forced
            to zero (a node never sends demand to itself).
    """

    def __init__(self, matrix) -> None:
        data = np.asarray(matrix, dtype=float).copy()
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"demand matrix must be square, got shape {data.shape}")
        _check_demands(data, per_interval=False)
        np.fill_diagonal(data, 0.0)
        self._data = data

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._data.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The underlying matrix (copy)."""
        return self._data.copy()

    def demand(self, src: int, dst: int) -> float:
        """Demand from ``src`` to ``dst``."""
        return float(self._data[src, dst])

    def total(self) -> float:
        """Total demand across all pairs."""
        return float(self._data.sum())

    def flat(self) -> np.ndarray:
        """Flatten to a vector in row-major SD-pair order (diagonal removed)."""
        return self._data.take(_off_diagonal(self.num_nodes))

    def scaled(self, factor: float) -> "TrafficMatrix":
        """Return a copy scaled by ``factor``."""
        return TrafficMatrix(self._data * factor)

    def __array__(self, dtype=None) -> np.ndarray:
        return self._data.astype(dtype) if dtype is not None else self._data.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TrafficMatrix(nodes={self.num_nodes}, total={self.total():.3f})"


class TrafficMatrixSequence:
    """A time-ordered sequence of demand matrices, stored as one array.

    The trace is a single validated, read-only, C-contiguous
    ``(T, n*(n-1))`` array of demands in SD-pair order -- what
    :meth:`flat_demands` returns -- with no per-interval object behind it.
    Slices, :meth:`split` and :meth:`segment` are row-range views of that
    array.  Square matrices are scattered from it on request
    (:meth:`as_array`), and :class:`TrafficMatrix` objects exist only when a
    caller indexes or iterates.

    Args:
        matrices: Iterable of :class:`TrafficMatrix` or square arrays, or a
            single 3-D array of shape ``(T, n, n)``.  The input is copied;
            diagonals are dropped (a node never sends demand to itself).
            Empty input, a non-square matrix, differing node counts and
            negative or non-finite entries raise :class:`ValueError` (which
            names the first interval with a non-finite entry).
        interval_seconds: Length of each aggregation interval (metadata only).
        name: Human readable name of the trace.
    """

    def __init__(self, matrices, interval_seconds: float = 60.0, name: str = "trace") -> None:
        if isinstance(matrices, np.ndarray) and matrices.ndim == 3:
            shapes = {matrices.shape[1:]}
        else:
            matrices = [
                m._data if isinstance(m, TrafficMatrix) else np.asarray(m, dtype=float)
                for m in matrices
            ]
            shapes = {m.shape for m in matrices}
        if len(matrices) == 0:
            raise ValueError("a traffic matrix sequence cannot be empty")
        for shape in shapes:
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"demand matrix must be square, got shape {shape}")
        if len(shapes) > 1:
            raise ValueError("all demand matrices must have the same number of nodes")
        stacked = np.asarray(matrices, dtype=float)
        _check_demands(stacked)
        num_nodes = stacked.shape[1]
        # ``take`` gathers into a fresh C-contiguous array; a boolean mask
        # comes back transposed in memory and ``std(axis=0)`` rounds differently.
        flat = stacked.reshape(len(stacked), -1).take(_off_diagonal(num_nodes), axis=1)
        self._adopt(flat, num_nodes, interval_seconds, name)

    @classmethod
    def from_flat(
        cls,
        flat_demands,
        num_nodes: int,
        interval_seconds: float = 60.0,
        name: str = "trace",
    ) -> "TrafficMatrixSequence":
        """Build a sequence from a ``(T, n*(n-1))`` array in SD-pair order.

        The inverse of :meth:`flat_demands`, for callers that already work
        in SD-pair order (the perturbations, the bursty generator): no matrix
        is built.  The array is copied and checked like the constructor's.
        """
        flat = np.array(flat_demands, dtype=float, order="C")
        if flat.ndim != 2 or flat.shape[1] != num_nodes * (num_nodes - 1):
            raise ValueError(
                f"flat demands must have shape (T, {num_nodes * (num_nodes - 1)}) "
                f"for {num_nodes} nodes, got {flat.shape}"
            )
        _check_demands(flat)
        self = object.__new__(cls)
        self._adopt(flat, num_nodes, interval_seconds, name)
        return self

    def _adopt(self, flat: np.ndarray, num_nodes: int, interval_seconds: float, name: str) -> None:
        """Become a sequence over an already validated C-contiguous array."""
        if len(flat) == 0:
            raise ValueError("a traffic matrix sequence cannot be empty")
        flat.setflags(write=False)
        self._flat = flat
        self.num_nodes = int(num_nodes)
        self.interval_seconds = float(interval_seconds)
        self.name = name

    def _like(self, flat: np.ndarray) -> "TrafficMatrixSequence":
        """A sequence over rows derived from this one's, with its metadata."""
        other = object.__new__(TrafficMatrixSequence)
        other._adopt(flat, self.num_nodes, self.interval_seconds, self.name)
        return other

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._flat.setflags(write=False)  # numpy does not pickle the flag

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._flat)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return TrafficMatrix(_square(self._flat[index], self.num_nodes))
        # A view; only a stepped slice is gathered, to stay C-contiguous.
        return self._like(np.ascontiguousarray(self._flat[index]))

    def __iter__(self) -> Iterator[TrafficMatrix]:
        return (TrafficMatrix(matrix) for matrix in self.as_array())

    # ------------------------------------------------------------------ #
    # Array views
    # ------------------------------------------------------------------ #
    def as_array(self) -> np.ndarray:
        """The trace as a fresh ``(T, n, n)`` array (zero diagonals)."""
        return _square(self._flat, self.num_nodes)

    def flat_demands(self) -> np.ndarray:
        """The trace as a ``(T, n*(n-1))`` array in SD-pair order.

        This *is* the stored trace, not a stack built per call: read-only
        and C-contiguous on every construction path, and a row-range view of
        the parent's array on a slice, so the evaluation engine's repeated
        replays of one test sequence (or of its slices) never re-flatten it.
        Writing to it raises.
        """
        return self._flat

    # ------------------------------------------------------------------ #
    # Statistics used by FIGRET's loss and the evaluation
    # ------------------------------------------------------------------ #
    def pair_variance(self) -> np.ndarray:
        """Per-SD-pair variance of demand over time (sigma^2 of Equation 8)."""
        return self._flat.var(axis=0)

    def pair_std(self) -> np.ndarray:
        """Per-SD-pair standard deviation of demand over time."""
        return self._flat.std(axis=0)

    def pair_mean(self) -> np.ndarray:
        """Per-SD-pair mean demand over time."""
        return self._flat.mean(axis=0)

    # ------------------------------------------------------------------ #
    # Splitting and windowing
    # ------------------------------------------------------------------ #
    def split(self, train_fraction: float = 0.75) -> tuple["TrafficMatrixSequence", "TrafficMatrixSequence"]:
        """Chronological train/test split (the paper trains on the first 75%)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        cut = int(round(len(self) * train_fraction))
        cut = max(1, min(len(self) - 1, cut))
        return self[:cut], self[cut:]

    def segment(self, start_fraction: float, end_fraction: float) -> "TrafficMatrixSequence":
        """Return the sub-sequence between two fractional positions.

        Used by the natural-drift experiment (Table 4), e.g.
        ``segment(0.25, 0.5)`` trains on the second quarter of the trace.
        """
        if not 0.0 <= start_fraction < end_fraction <= 1.0:
            raise ValueError("need 0 <= start < end <= 1")
        start = int(round(len(self) * start_fraction))
        end = int(round(len(self) * end_fraction))
        end = max(end, start + 1)
        return self[start:end]

    def windows(self, history: int) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(history_window, target)`` pairs of flattened demands.

        For every ``t >= history``, yields the stacked window
        ``(history, n*(n-1))`` of demands ``D_{t-H} .. D_{t-1}`` and the
        target demand vector ``D_t``.
        """
        if history < 1:
            raise ValueError("history must be at least 1")
        flat = self._flat
        for t in range(history, len(self)):
            yield flat[t - history : t], flat[t]

    def concatenate(self, other: "TrafficMatrixSequence") -> "TrafficMatrixSequence":
        """Append another sequence (same node count) after this one."""
        if other.num_nodes != self.num_nodes:
            raise ValueError("cannot concatenate sequences with different node counts")
        return self._like(np.concatenate([self._flat, other._flat]))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrafficMatrixSequence(name={self.name!r}, length={len(self)}, "
            f"nodes={self.num_nodes})"
        )
