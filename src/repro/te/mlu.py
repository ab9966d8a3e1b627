"""Mapping TE configurations and demands to link loads and MLU.

This implements Function 1 of Appendix D.1 as NumPy matrix operations:

    FlowOnPath = demand_per_path * split_ratios
    FlowOnEdge = PathToEdge^T @ FlowOnPath
    MLU        = max(FlowOnEdge / capacities)

All functions accept either a single demand vector (1-D, in SD-pair order) or
a batch of demand vectors (2-D with shape ``(batch, num_sd_pairs)``).
"""

from __future__ import annotations

import numpy as np

from repro.paths.path_set import PathSet

__all__ = ["link_loads", "link_utilization", "max_link_utilization"]


def _split_ratio_array(split_ratios) -> np.ndarray:
    # Accept a TEConfiguration-like object or a raw array.
    ratios = getattr(split_ratios, "split_ratios", split_ratios)
    return np.asarray(ratios, dtype=float)


def link_loads(path_set: PathSet, split_ratios, demands) -> np.ndarray:
    """Traffic volume carried by every edge.

    Args:
        path_set: Candidate paths.
        split_ratios: A :class:`~repro.te.config.TEConfiguration` or an array
            of per-path split ratios.
        demands: Demand vector in SD-pair order, or a batch of such vectors.

    Returns:
        Array of per-edge loads with shape ``(num_edges,)`` or
        ``(batch, num_edges)``.
    """
    ratios = _split_ratio_array(split_ratios)
    demand = np.asarray(demands, dtype=float)
    demand_per_path = path_set.demand_per_path(demand)
    flow_on_path = demand_per_path * ratios
    # edge_to_path is (edges, paths) and flow_on_path (..., paths); sparse @
    # dense works column-wise, so transpose to keep the batch leading.
    return (path_set.edge_to_path @ flow_on_path.T).T


def link_utilization(path_set: PathSet, split_ratios, demands) -> np.ndarray:
    """Per-edge utilisation (load divided by capacity)."""
    loads = link_loads(path_set, split_ratios, demands)
    return loads / path_set.topology.capacities


def max_link_utilization(
    path_set: PathSet,
    split_ratios,
    demands,
) -> float | np.ndarray:
    """Maximum link utilisation (the TE objective ``M(R, D)`` of Section 3).

    Returns a scalar for a single demand vector or an array of shape
    ``(batch,)`` for a batch of demand vectors, via one product with the
    sparse path-to-edge incidence.
    """
    utilization = link_utilization(path_set, split_ratios, demands)
    result = utilization.max(axis=-1)
    if np.ndim(result) == 0:
        return float(result)
    return result
