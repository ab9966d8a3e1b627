"""Link-failure handling (Section 4.5).

When links fail, paths traversing them become unusable.  The widely adopted
recovery strategy reproduced here redistributes each SD pair's traffic from
failed paths onto its surviving paths:

* proportionally to the surviving paths' existing split ratios when at least
  one surviving path had a positive ratio, or
* uniformly across the surviving paths when all surviving ratios are zero.

Handling failures this way requires no retraining of FIGRET/DOTE and no
re-solving of the LP baselines.
"""

from __future__ import annotations

import numpy as np

from repro.te.config import TEConfiguration

__all__ = [
    "reroute_around_failures",
    "reroute_ratios_around_failures",
    "sample_failed_links",
]


def reroute_ratios_around_failures(
    path_set,
    ratios: np.ndarray,
    working_mask: np.ndarray,
) -> np.ndarray:
    """Vectorized failure rerouting on raw split-ratio arrays.

    Implements the same redistribution policy as
    :func:`reroute_around_failures` but operates directly on one ratio vector
    ``(num_paths,)`` or a batch ``(T, num_paths)`` with no Python loop over
    SD pairs -- the per-(trial, interval) hot path of the failure experiment.

    Args:
        path_set: The paths the ratios refer to.
        ratios: Valid per-pair-normalised split ratios (one row per interval).
        working_mask: Boolean mask of surviving paths (as produced by
            :meth:`PathSet.restrict_to_working_paths`).

    Returns:
        Rerouted ratios of the same shape.
    """
    arr = np.asarray(ratios, dtype=float)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    mask = np.asarray(working_mask, dtype=bool)
    if mask.shape != (path_set.num_paths,):
        raise ValueError("working_mask must have one entry per path")
    if mask.all():
        return arr.copy()

    idx = path_set.path_sd_index
    pair_counts = np.asarray(path_set.sd_to_path.sum(axis=1)).ravel()
    surviving_counts = path_set.sd_to_path @ mask.astype(float)
    # Per-row, per-pair mass on surviving paths.
    surviving_total = (path_set.sd_to_path @ (rows * mask).T).T

    per_path_total = surviving_total[:, idx]
    per_path_surv_count = surviving_counts[idx]
    per_path_pair_count = pair_counts[idx]

    # Proportional redistribution where surviving mass remains...
    has_mass = per_path_total > TEConfiguration.SUM_TOLERANCE
    safe_total = np.where(has_mass, per_path_total, 1.0)
    proportional = np.where(mask, rows / safe_total, 0.0)
    # ...uniform over surviving paths where it does not...
    uniform_surviving = np.where(
        mask, 1.0 / np.maximum(per_path_surv_count, 1.0), 0.0
    )
    out = np.where(has_mass, proportional, uniform_surviving)
    # ...and uniform over *all* candidate paths for fully partitioned pairs.
    out = np.where(per_path_surv_count == 0, 1.0 / per_path_pair_count, out)
    # Pairs untouched by the failures keep their exact original ratios.
    untouched = (surviving_counts == pair_counts)[idx]
    out = np.where(untouched, rows, out)
    return out[0] if single else out


def reroute_around_failures(
    config: TEConfiguration,
    failed_edges: set[tuple[int, int]] | list[tuple[int, int]],
) -> TEConfiguration:
    """Redistribute traffic away from paths that traverse failed edges.

    Args:
        config: The TE configuration computed before the failures.
        failed_edges: Directed edges that have failed.  For an undirected
            physical link failure, include both directions.

    Returns:
        A new configuration in which no failed path carries traffic.  SD
        pairs whose candidate paths have *all* failed keep a uniform split
        over their (failed) paths -- their traffic is effectively lost, which
        mirrors reality when a pair is partitioned.
    """
    path_set = config.path_set
    failed_set = set(failed_edges)
    working_mask = path_set.restrict_to_working_paths(failed_set)
    new_ratios = config.split_ratios.copy()

    for src, dst in path_set.sd_pairs:
        indices = np.array(path_set.path_indices_for(src, dst))
        working = working_mask[indices]
        if working.all():
            continue
        if not working.any():
            # Pair fully partitioned w.r.t. its candidate paths; keep uniform
            # ratios so the configuration stays well formed.
            new_ratios[indices] = 1.0 / len(indices)
            continue
        surviving = indices[working]
        surviving_total = config.split_ratios[surviving].sum()
        new_ratios[indices] = 0.0
        if surviving_total > TEConfiguration.SUM_TOLERANCE:
            new_ratios[surviving] = config.split_ratios[surviving] / surviving_total
        else:
            new_ratios[surviving] = 1.0 / len(surviving)
    return TEConfiguration(path_set, new_ratios, normalize=False)


def sample_failed_links(
    topology,
    num_failures: int,
    rng: np.random.Generator,
) -> set[tuple[int, int]]:
    """Sample random physical link failures.

    A failed link removes both directed edges between its endpoints.

    Args:
        topology: The topology whose links may fail.
        num_failures: Number of physical links to fail.
        rng: NumPy random generator.

    Returns:
        The set of failed directed edges.
    """
    undirected = sorted({tuple(sorted((e.src, e.dst))) for e in topology.edges})
    if num_failures > len(undirected):
        raise ValueError("cannot fail more links than the topology has")
    chosen = rng.choice(len(undirected), size=num_failures, replace=False)
    failed: set[tuple[int, int]] = set()
    for idx in chosen:
        a, b = undirected[int(idx)]
        failed.update(((a, b), (b, a)))
    return failed
