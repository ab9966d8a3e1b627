"""TE configurations: per-path split ratios.

A TE configuration specifies, for every SD pair, how its demand is split over
the pair's candidate paths (Section 3 of the paper).  The split ratios of a
pair must be non-negative and sum to one.
"""

from __future__ import annotations

import numpy as np

from repro.paths.path_set import PathSet

__all__ = ["TEConfiguration"]


class TEConfiguration:
    """Split ratios over the candidate paths of a :class:`PathSet`.

    Args:
        path_set: The candidate paths the ratios refer to.
        split_ratios: Array of length ``path_set.num_paths`` with the fraction
            of each SD pair's demand carried by each path.
        normalize: If True (default), ratios are re-normalised per SD pair so
            they sum to one; if a pair's ratios are all zero they are replaced
            by a uniform split.  If False the ratios must already be valid.

    Raises:
        ValueError: If ratios are negative, have the wrong length, or (with
            ``normalize=False``) do not sum to one for some pair.
    """

    #: Tolerance used when checking that per-pair ratios sum to one.
    SUM_TOLERANCE = 1e-6

    def __init__(self, path_set: PathSet, split_ratios, normalize: bool = True) -> None:
        ratios = np.asarray(split_ratios, dtype=float).copy()
        if ratios.shape != (path_set.num_paths,):
            raise ValueError(
                f"expected {path_set.num_paths} split ratios, got shape {ratios.shape}"
            )
        if np.any(ratios < -self.SUM_TOLERANCE):
            raise ValueError("split ratios must be non-negative")
        ratios = np.clip(ratios, 0.0, None)
        sums = path_set.sd_to_path @ ratios
        if normalize:
            ratios = self._normalized(path_set, ratios, sums)
        else:
            if np.any(np.abs(sums - 1.0) > 1e-4):
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise ValueError(
                    f"split ratios for SD pair {path_set.sd_pairs[bad]} sum to {sums[bad]:.6f}"
                )
        self.path_set = path_set
        self.split_ratios = ratios

    @staticmethod
    def _normalized(path_set: PathSet, ratios: np.ndarray, sums: np.ndarray) -> np.ndarray:
        # A pair whose ratios are all (numerically) zero gets the uniform
        # split: ones over its path count is the same division.
        empty = sums <= TEConfiguration.SUM_TOLERANCE
        paths_per_pair = np.bincount(path_set.path_sd_index, minlength=sums.size)
        numerator = np.where(empty[path_set.path_sd_index], 1.0, ratios)
        return numerator / np.where(empty, paths_per_pair, sums)[path_set.path_sd_index]

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def uniform(cls, path_set: PathSet) -> "TEConfiguration":
        """Equal split over every pair's candidate paths (TE scheme 2 style)."""
        return cls(path_set, np.ones(path_set.num_paths), normalize=True)

    @classmethod
    def shortest_path(cls, path_set: PathSet) -> "TEConfiguration":
        """All traffic on each pair's first (shortest) candidate path."""
        ratios = np.zeros(path_set.num_paths)
        for src, dst in path_set.topology.sd_pairs():
            indices = path_set.path_indices_for(src, dst)
            ratios[indices[0]] = 1.0
        return cls(path_set, ratios, normalize=False)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def ratios_for(self, src: int, dst: int) -> np.ndarray:
        """Split ratios of the candidate paths serving ``src -> dst``."""
        indices = list(self.path_set.path_indices_for(src, dst))
        return self.split_ratios[indices]

    def copy(self) -> "TEConfiguration":
        """Deep copy of this configuration."""
        return TEConfiguration(self.path_set, self.split_ratios.copy(), normalize=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TEConfiguration(paths={self.path_set.num_paths}, "
            f"pairs={self.path_set.num_sd_pairs})"
        )
