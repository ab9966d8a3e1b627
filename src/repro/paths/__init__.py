"""Path substrate: candidate path computation and the PathSet structure."""

from repro.paths.path_set import PathSet
from repro.paths.ksp import build_ksp_path_set
from repro.paths.racke import racke_path_set

__all__ = [
    "PathSet",
    "build_ksp_path_set",
    "racke_path_set",
]
