"""Declarative experiment specs: plain-data descriptions of evaluation cells.

An experiment cell is everything one table entry of the paper needs: a
scenario (registered name, inline config, or live objects), a scheme
(builder spec or live instance), a perturbation / failure profile, and the
evaluation knobs (history length, interval cap, streaming).  Cells are plain
dicts all the way down, so a whole study grid can live in a JSON file and
ride through :meth:`ResultSet.to_json` as provenance.

Grids are declared with :class:`sweep` axes::

    spec = {
        "scenario": sweep("geant_small", "pfabric_small"),
        "scheme": sweep({"kind": "figret"}, {"kind": "dote"}),
        "perturbation": sweep({"kind": "none"},
                              {"kind": "fluctuation", "alpha": 1.0}),
    }

:func:`expand_spec` turns that into the 2 x 2 x 2 = 8 concrete cells (the
cross product, later axes varying fastest).  In pure-JSON specs the marker
is spelled ``{"sweep": [...]}``.

The scheme side mirrors the scenario registry: every bundled TE scheme has a
builder registered under a ``kind`` name, and :func:`register_scheme` opens
the table up so new schemes are data too.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.datasets.registry import Scenario
from repro.paths.path_set import PathSet
from repro.te.scheme import TEScheme
from repro.traffic.matrix import TrafficMatrixSequence

__all__ = [
    "sweep",
    "expand_spec",
    "ExperimentSpec",
    "InlineScenario",
    "register_scheme",
    "available_schemes",
    "build_scheme",
    "canonical_json",
]


class sweep:
    """Marks a spec value as a grid axis: one cell per listed value."""

    def __init__(self, *values: Any) -> None:
        if not values:
            raise ValueError("sweep(...) needs at least one value")
        self.values = tuple(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"sweep({', '.join(map(repr, self.values))})"


def _is_sweep_dict(node: Any) -> bool:
    """The pure-JSON spelling of a sweep axis: ``{"sweep": [...]}``."""
    return (
        isinstance(node, Mapping)
        and set(node.keys()) == {"sweep"}
        and isinstance(node["sweep"], Sequence)
        and not isinstance(node["sweep"], (str, bytes))
    )


def _find_axes(node: Any, path: tuple, axes: list) -> None:
    if isinstance(node, sweep):
        axes.append((path, node.values))
    elif _is_sweep_dict(node):
        axes.append((path, tuple(node["sweep"])))
    elif isinstance(node, Mapping):
        for key, value in node.items():
            _find_axes(value, path + (key,), axes)
    elif isinstance(node, (list, tuple)):
        for index, item in enumerate(node):
            _find_axes(item, path + (index,), axes)


def _substitute(node: Any, assignment: dict, path: tuple) -> Any:
    if path in assignment:
        return assignment[path]
    if isinstance(node, Mapping):
        return {key: _substitute(value, assignment, path + (key,)) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_substitute(item, assignment, path + (index,)) for index, item in enumerate(node)]
    return node


def expand_spec(spec: Mapping) -> list[dict]:
    """Expand a study spec's sweep axes into the cross product of cell dicts.

    Axes expand in discovery order (depth-first over keys), the last axis
    varying fastest.  A spec with no sweeps expands to a single cell.
    """
    if not isinstance(spec, Mapping):
        raise TypeError(f"study spec must be a mapping, got {type(spec).__name__}")
    axes: list[tuple[tuple, tuple]] = []
    _find_axes(spec, (), axes)
    if not axes:
        return [_substitute(spec, {}, ())]
    cells = []
    paths = [path for path, _ in axes]
    for combo in itertools.product(*(values for _, values in axes)):
        assignment = dict(zip(paths, combo))
        cells.append(_substitute(spec, assignment, ()))
    return cells


# --------------------------------------------------------------------------- #
# JSON-safe canonicalisation (cell provenance and dedup keys)
# --------------------------------------------------------------------------- #
def _jsonify(value: Any) -> Any:
    """Convert a spec value into plain JSON types (tuples -> lists, ...)."""
    # Exact built-in types first: a loaded record's spec is nothing else, and
    # the ``Mapping`` ABC check below is the slow one.
    kind = type(value)
    if kind is dict:
        return {str(key): _jsonify(item) for key, item in value.items()}
    if kind is list:
        return [_jsonify(item) for item in value]
    if kind is str or kind is int or kind is float or kind is bool or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"spec value {value!r} is not JSON-serialisable")


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used as a dedup/cache key."""
    return json.dumps(_jsonify(value), sort_keys=True, separators=(",", ":"))


_REGISTRY_REF_KEYS = frozenset({"name", "seed", "num_intervals"})


def scenario_cache_key(scenario) -> str:
    """Canonical dedup key of a scenario reference (any accepted form).

    Registry references normalise to ``name + seed + num_intervals`` (a bare
    string name means default seed / length); inline configs key by their
    canonical JSON; live objects key by identity.

    Raises:
        ValueError: If a registry reference dict carries unknown keys (a
            typo like ``intervals`` would otherwise silently load -- and
            cache-collide with -- a different trace than declared).
    """
    if isinstance(scenario, str):
        return canonical_json({"name": scenario, "seed": 0, "num_intervals": None})
    if isinstance(scenario, Mapping):
        if "name" in scenario and "topology" not in scenario:
            unknown = set(scenario) - _REGISTRY_REF_KEYS
            if unknown:
                raise ValueError(
                    f"unknown scenario reference key(s) {sorted(unknown)}; a registry "
                    f"reference allows {sorted(_REGISTRY_REF_KEYS)} (inline configs "
                    "need a 'topology' entry)"
                )
            return canonical_json(
                {
                    "name": scenario["name"],
                    "seed": scenario.get("seed", 0),
                    "num_intervals": scenario.get("num_intervals"),
                }
            )
        return canonical_json(scenario)
    return f"object:{id(scenario)}"


# --------------------------------------------------------------------------- #
# Scheme builder registry
# --------------------------------------------------------------------------- #
_SCHEME_BUILDERS: dict[str, Callable] = {}


def register_scheme(kind: str):
    """Register a TE-scheme builder under a spec ``kind`` name.

    The decorated builder is called as ``builder(path_set, *, cache=None,
    **params)`` with the remaining spec keys as ``params`` and must return a
    :class:`~repro.te.scheme.TEScheme`.  ``cache`` is the study engine's LP
    cache; builders of schemes that never solve training-time LPs may ignore
    it.

    Raises:
        ValueError: If ``kind`` is already registered.
    """

    def decorator(builder: Callable) -> Callable:
        if kind in _SCHEME_BUILDERS:
            raise ValueError(f"scheme kind {kind!r} is already registered")
        _SCHEME_BUILDERS[kind] = builder
        return builder

    return decorator


def available_schemes() -> list[str]:
    """Names of all registered scheme kinds."""
    return sorted(_SCHEME_BUILDERS)


def build_scheme(
    spec: Mapping,
    path_set: PathSet,
    cache=None,
) -> TEScheme:
    """Build a (untrained) scheme instance from a plain-dict spec.

    Args:
        spec: ``{"kind": <registered name>, ...builder params}``; an optional
            ``"label"`` key (the record display name) is stripped here.
        path_set: Candidate paths the scheme operates on.
        cache: Optimal-MLU cache for training-time normalisers.

    Raises:
        ValueError: If the kind is missing or unknown.
    """
    params = dict(spec)
    kind = params.pop("kind", None)
    params.pop("label", None)
    if kind is None:
        raise ValueError(f"scheme spec {dict(spec)!r} is missing its 'kind' key")
    builder = _SCHEME_BUILDERS.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown scheme kind {kind!r}; available: {', '.join(available_schemes())}"
        )
    return builder(path_set, cache=cache, **params)


def _training_config(params: dict):
    from repro.core.config import TrainingConfig

    if "hidden_sizes" in params:
        params["hidden_sizes"] = tuple(params["hidden_sizes"])
    return TrainingConfig(**params)


@register_scheme("figret")
def _build_figret(path_set, *, cache=None, **params):
    from repro.core.figret import Figret

    return Figret(path_set, _training_config(params), cache=cache)


@register_scheme("dote")
def _build_dote(path_set, *, cache=None, **params):
    from repro.core.dote import Dote

    return Dote(path_set, _training_config(params), cache=cache)


@register_scheme("teal")
def _build_teal(path_set, *, cache=None, **params):
    from repro.core.teal_like import TealLike

    return TealLike(path_set, _training_config(params), cache=cache)


@register_scheme("des_te")
def _build_des_te(path_set, *, cache=None, **params):
    from repro.solvers.desensitization import DesensitizationTE

    return DesensitizationTE(path_set, **params)


@register_scheme("fa_des_te")
def _build_fa_des_te(path_set, *, cache=None, **params):
    from repro.solvers.desensitization import FaultAwareDesensitizationTE

    return FaultAwareDesensitizationTE(path_set, **params)


@register_scheme("linear_sens")
def _build_linear_sens(path_set, *, cache=None, **params):
    from repro.solvers.heuristic_f import LinearSensitivityTE

    return LinearSensitivityTE(path_set, **params)


@register_scheme("piecewise_sens")
def _build_piecewise_sens(path_set, *, cache=None, **params):
    from repro.solvers.heuristic_f import PiecewiseSensitivityTE

    return PiecewiseSensitivityTE(path_set, **params)


@register_scheme("pred_te")
def _build_pred_te(path_set, *, cache=None, **params):
    from repro.solvers.lp import PredictionBasedTE

    return PredictionBasedTE(path_set, **params)


@register_scheme("omniscient")
def _build_omniscient(path_set, *, cache=None, **params):
    from repro.solvers.lp import OmniscientTE

    return OmniscientTE(path_set, **params)


@register_scheme("oblivious")
def _build_oblivious(path_set, *, cache=None, **params):
    from repro.solvers.oblivious import ObliviousTE

    return ObliviousTE(path_set, **params)


@register_scheme("cope")
def _build_cope(path_set, *, cache=None, **params):
    from repro.solvers.cope import CopeTE

    return CopeTE(path_set, **params)


# --------------------------------------------------------------------------- #
# Cell specs
# --------------------------------------------------------------------------- #
@dataclass
class InlineScenario:
    """Live-object scenario context, for cells no registered scenario describes.

    Carries an already-built path set and pre-split sequences -- a custom
    candidate-path selection (Racke paths on a bundled topology), a
    hand-made trace -- so such cells still run through the study executor.
    Not JSON-reproducible: result provenance records it as
    ``{"inline": name}``.
    """

    paths: PathSet | None = None
    train: TrafficMatrixSequence | None = None
    test: TrafficMatrixSequence | None = None
    traffic: TrafficMatrixSequence | None = None
    history_len: int | None = None
    name: str = "inline"


_PERTURBATION_DEFAULTS: dict[str, dict[str, Any]] = {
    "none": {},
    "fluctuation": {"alpha": None, "worst_case": False, "seed": 0},
    "failure": {"num_failures": None, "num_trials": 10, "seed": 0, "fault_aware": None},
    "drift": {"train_segment": None, "test_segment": (0.75, 1.0)},
}

#: Perturbation keys that must be given explicitly (no sensible default).
_PERTURBATION_REQUIRED = {"fluctuation": ("alpha",), "failure": ("num_failures",), "drift": ("train_segment",)}

_CELL_KEYS = frozenset(
    {
        "scenario",
        "scheme",
        "perturbation",
        "history_len",
        "max_intervals",
        "streaming",
        "chunk_size",
        "oracle_demand",
        "train",
        "tags",
    }
)


def _normalize_perturbation(perturbation: Mapping | None) -> dict:
    if perturbation is None:
        return {"kind": "none"}
    if not isinstance(perturbation, Mapping):
        raise TypeError(f"perturbation must be a mapping, got {type(perturbation).__name__}")
    params = dict(perturbation)
    kind = params.pop("kind", None)
    if kind not in _PERTURBATION_DEFAULTS:
        raise ValueError(
            f"unknown perturbation kind {kind!r}; available: "
            f"{', '.join(sorted(_PERTURBATION_DEFAULTS))}"
        )
    normalized = {"kind": kind}
    defaults = _PERTURBATION_DEFAULTS[kind]
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown key(s) {sorted(unknown)} for perturbation kind {kind!r}; "
            f"allowed: {sorted(defaults)}"
        )
    for key, default in defaults.items():
        normalized[key] = params.get(key, default)
    for key in _PERTURBATION_REQUIRED.get(kind, ()):
        if normalized[key] is None:
            raise ValueError(f"perturbation kind {kind!r} requires {key!r}")
    return normalized


@dataclass
class ExperimentSpec:
    """One fully specified experiment cell.

    Attributes:
        scenario: Registered scenario name (``str``), registry reference
            (``{"name": ..., "seed": ..., "num_intervals": ...}``), inline
            scenario config (a dict with a ``"topology"`` key, see
            :func:`repro.datasets.from_config`), a built
            :class:`~repro.datasets.Scenario`, or an :class:`InlineScenario`.
        scheme: Scheme spec dict (``{"kind": ..., ...params, "label": ...}``)
            or a live :class:`~repro.te.scheme.TEScheme` (drift cells, which
            retrain, need the dict).
        perturbation: ``{"kind": "none" | "fluctuation" | "failure" |
            "drift", ...}``; defaults to no perturbation (a plain replay).
        history_len: History window override (scenario default if ``None``).
        max_intervals: Cap on evaluated test intervals (slices the test
            split to ``history_len + max_intervals`` rows).
        streaming: Replay through the O(chunk)-memory streaming path.
        chunk_size: Streaming chunk size.
        oracle_demand: Hand the scheme the true next demand (Omniscient).
        train: Whether the study trains (``precompute``) the scheme on the
            scenario's training split; set ``False`` for pre-trained live
            instances.
        tags: Free-form provenance carried into the result record.
    """

    scenario: Any
    scheme: Any
    perturbation: Mapping | None = None
    history_len: int | None = None
    max_intervals: int | None = None
    streaming: bool = False
    chunk_size: int = 256
    oracle_demand: bool = False
    train: bool = True
    tags: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scenario is None:
            raise ValueError("an experiment cell requires a scenario")
        if self.scheme is None:
            raise ValueError("an experiment cell requires a scheme")
        if not isinstance(self.tags, Mapping):
            raise TypeError(
                f"cell tags must be a mapping, got {type(self.tags).__name__}"
            )
        # Tags ride into result provenance and warehouse exports; failing a
        # non-JSON-safe tag here (cell construction) beats failing it after
        # the cell has already been executed.
        _jsonify(self.tags)
        self.perturbation = _normalize_perturbation(self.perturbation)
        if isinstance(self.scheme, Mapping):
            # Fail fast on unknown kinds, before any cell executes.
            kind = self.scheme.get("kind")
            if kind not in _SCHEME_BUILDERS:
                raise ValueError(
                    f"unknown scheme kind {kind!r}; available: {', '.join(available_schemes())}"
                )
        elif not isinstance(self.scheme, TEScheme):
            raise TypeError(
                "scheme must be a spec dict or a TEScheme, "
                f"got {type(self.scheme).__name__}"
            )

    @classmethod
    def from_dict(cls, cell: Mapping) -> "ExperimentSpec":
        """Build a cell from its plain-dict form (unknown keys rejected)."""
        unknown = set(cell) - _CELL_KEYS
        if unknown:
            raise ValueError(
                f"unknown experiment spec key(s) {sorted(unknown)}; allowed: {sorted(_CELL_KEYS)}"
            )
        return cls(**cell)

    # ------------------------------------------------------------------ #
    # Dedup keys (cached: specs are treated as immutable once built)
    # ------------------------------------------------------------------ #
    @functools.cached_property
    def scenario_key(self) -> str:
        """Canonical key identifying the resolved scenario (for dedup)."""
        return scenario_cache_key(self.scenario)

    @functools.cached_property
    def scheme_key(self) -> str:
        """Canonical key identifying the scheme spec (for training dedup)."""
        if isinstance(self.scheme, Mapping):
            spec = {key: value for key, value in self.scheme.items() if key != "label"}
            return canonical_json(spec)
        return f"object:{id(self.scheme)}"

    @functools.cached_property
    def provenance_key(self) -> str:
        """Canonical JSON of :meth:`to_dict` (checkpoint matching, error notes)."""
        return canonical_json(self.to_dict())

    # ------------------------------------------------------------------ #
    # Provenance
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-safe provenance of this cell.

        Declarative cells round-trip losslessly; live objects (schemes /
        scenarios passed by instance) are recorded as ``{"inline": <name>}``
        markers since they cannot be rebuilt from JSON.  Computed once per
        cell; every record of the cell shares the dict.
        """
        cached = self.__dict__.get("_provenance")
        if cached is not None:
            return cached
        if isinstance(self.scenario, (str, Mapping)):
            scenario: Any = _jsonify(self.scenario)
        elif isinstance(self.scenario, (Scenario, InlineScenario)):
            scenario = {"inline": self.scenario.name}
        else:
            scenario = {"inline": type(self.scenario).__name__}
        if isinstance(self.scheme, Mapping):
            scheme: Any = _jsonify(self.scheme)
        else:
            scheme = {"inline": self.scheme.name}
        provenance = {
            "scenario": scenario,
            "scheme": scheme,
            "perturbation": _jsonify(self.perturbation),
        }
        defaults = {
            "history_len": None,
            "max_intervals": None,
            "streaming": False,
            "chunk_size": 256,
            "oracle_demand": False,
            "train": True,
        }
        for key, default in defaults.items():
            value = getattr(self, key)
            if value != default:
                provenance[key] = _jsonify(value)
        if self.tags:
            provenance["tags"] = _jsonify(self.tags)
        self.__dict__["_provenance"] = provenance
        return provenance
