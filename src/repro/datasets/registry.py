"""Registry of the evaluation scenarios used by the paper (Table 1, Section 5.1).

A :class:`Scenario` bundles everything a TE experiment needs: a topology, a
candidate path set (Yen's 3-shortest-paths by default), a traffic matrix
sequence with the appropriate burstiness profile, and the chronological
train/test split.

Full-size scenarios match Table 1's node/edge counts.  Each also has a
``*_small`` variant with a scaled-down topology and shorter trace so the
complete benchmark harness runs on a CPU-only machine in minutes; the
``_build_*`` functions and the ``_BUILDERS`` table below set each variant's
topology and trace length.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

from repro.paths.ksp import build_ksp_path_set
from repro.paths.path_set import PathSet
from repro.topology import generators, zoo
from repro.topology.graph import Topology
from repro.traffic.bursty import DataCenterTrafficGenerator
from repro.traffic.gravity import GravityTrafficGenerator
from repro.traffic.matrix import TrafficMatrixSequence
from repro.traffic.pfabric import PFabricTrafficGenerator
from repro.traffic.wan import GeantLikeGenerator

__all__ = [
    "Scenario",
    "available_scenarios",
    "load",
    "register_scenario",
    "from_config",
]


@dataclass
class Scenario:
    """A complete evaluation scenario.

    Attributes:
        name: Scenario identifier.
        topology: Network topology.
        paths: Candidate path set (3 shortest paths per pair).
        traffic: Demand matrix sequence.
        train_fraction: Fraction of the trace used for training.
        history_len: Recommended history window H for this scenario.
        description: One-line description.
    """

    name: str
    topology: Topology
    paths: PathSet
    traffic: TrafficMatrixSequence
    train_fraction: float = 0.75
    history_len: int = 12
    description: str = ""

    def split(self) -> tuple[TrafficMatrixSequence, TrafficMatrixSequence]:
        """Chronological train/test split."""
        return self.traffic.split(self.train_fraction)


def _scenario(
    name: str,
    topology: Topology,
    traffic: TrafficMatrixSequence,
    history_len: int = 12,
    k_paths: int = 3,
    description: str = "",
) -> Scenario:
    paths = build_ksp_path_set(topology, k=k_paths)
    return Scenario(
        name=name,
        topology=topology,
        paths=paths,
        traffic=traffic,
        history_len=history_len,
        description=description,
    )


# --------------------------------------------------------------------------- #
# Builders (one per scenario name)
# --------------------------------------------------------------------------- #
def _build_geant(seed: int, num_intervals: int | None, small: bool) -> Scenario:
    topology = zoo.geant()
    intervals = num_intervals or (200 if small else 1000)
    traffic = GeantLikeGenerator(topology, seed=seed).generate(intervals)
    return _scenario(
        "geant_small" if small else "geant",
        topology,
        traffic,
        description="GEANT-like WAN, 23 nodes, mostly-stable 15-minute traffic with sparse bursts",
    )


def _build_wan_gravity(name: str, topology: Topology, seed: int, num_intervals: int | None, small: bool) -> Scenario:
    intervals = num_intervals or (150 if small else 600)
    traffic = GravityTrafficGenerator(topology, seed=seed).generate(intervals)
    return _scenario(
        name,
        topology,
        traffic,
        description=f"{topology.name} WAN with stable gravity-model traffic",
    )


def _build_pfabric(seed: int, num_intervals: int | None, small: bool) -> Scenario:
    topology = generators.leaf_spine_direct_connect(9, capacity=10.0)
    intervals = num_intervals or (200 if small else 800)
    traffic = PFabricTrafficGenerator(topology, seed=seed).generate(intervals)
    return _scenario(
        "pfabric_small" if small else "pfabric",
        topology,
        traffic,
        description="pFabric 9-ToR full mesh with Poisson web-search flow arrivals",
    )


def _build_meta_pod(cluster: str, seed: int, num_intervals: int | None, small: bool) -> Scenario:
    num_pods = 4 if cluster == "db" else 8
    topology = generators.fully_connected(num_pods, capacity=40.0, name=f"meta-pod-{cluster}")
    intervals = num_intervals or (300 if small else 1200)
    traffic = DataCenterTrafficGenerator(topology, level="pod", seed=seed).generate(intervals)
    name = f"meta_pod_{cluster}" + ("_small" if small else "")
    return _scenario(
        name,
        topology,
        traffic,
        description=f"Meta-like {cluster.upper()} cluster, PoD level ({num_pods} pods, full mesh), moderately bursty",
    )


def _build_meta_tor(cluster: str, seed: int, num_intervals: int | None, small: bool) -> Scenario:
    if small:
        num_tors, degree = (24, 6) if cluster == "db" else (32, 8)
    else:
        # Table 1: ToR DB 155 nodes / 7194 directed edges (degree ~46),
        #          ToR WEB 324 nodes / 31520 directed edges (degree ~97).
        num_tors, degree = (155, 46) if cluster == "db" else (324, 97)
    topology = generators.random_regular(
        num_tors, degree, capacity=10.0, seed=seed, name=f"meta-tor-{cluster}"
    )
    intervals = num_intervals or (250 if small else 800)
    traffic = DataCenterTrafficGenerator(topology, level="tor", seed=seed).generate(intervals)
    name = f"meta_tor_{cluster}" + ("_small" if small else "")
    return _scenario(
        name,
        topology,
        traffic,
        history_len=12,
        description=f"Meta-like {cluster.upper()} cluster, ToR level (random regular graph), highly dynamic traffic",
    )


_BUILDERS: dict[str, Callable[[int, int | None], Scenario]] = {
    "geant": lambda seed, n: _build_geant(seed, n, small=False),
    "geant_small": lambda seed, n: _build_geant(seed, n, small=True),
    "uscarrier": lambda seed, n: _build_wan_gravity("uscarrier", zoo.uscarrier(), seed, n, small=False),
    "uscarrier_small": lambda seed, n: _build_wan_gravity(
        "uscarrier_small", generators.wan_like(40, 52, seed=7, name="UsCarrier-small"), seed, n, small=True
    ),
    "cogentco": lambda seed, n: _build_wan_gravity("cogentco", zoo.cogentco(), seed, n, small=False),
    "cogentco_small": lambda seed, n: _build_wan_gravity(
        "cogentco_small", generators.wan_like(50, 62, seed=11, name="Cogentco-small"), seed, n, small=True
    ),
    "pfabric": lambda seed, n: _build_pfabric(seed, n, small=False),
    "pfabric_small": lambda seed, n: _build_pfabric(seed, n, small=True),
    "meta_pod_db": lambda seed, n: _build_meta_pod("db", seed, n, small=False),
    "meta_pod_db_small": lambda seed, n: _build_meta_pod("db", seed, n, small=True),
    "meta_pod_web": lambda seed, n: _build_meta_pod("web", seed, n, small=False),
    "meta_pod_web_small": lambda seed, n: _build_meta_pod("web", seed, n, small=True),
    "meta_tor_db": lambda seed, n: _build_meta_tor("db", seed, n, small=False),
    "meta_tor_db_small": lambda seed, n: _build_meta_tor("db", seed, n, small=True),
    "meta_tor_web": lambda seed, n: _build_meta_tor("web", seed, n, small=False),
    "meta_tor_web_small": lambda seed, n: _build_meta_tor("web", seed, n, small=True),
}


def available_scenarios() -> list[str]:
    """Names of all registered scenarios."""
    return sorted(_BUILDERS)


def register_scenario(name: str):
    """Register a scenario builder under ``name`` (new workloads are data).

    The decorated builder is called as ``builder(seed, num_intervals)`` --
    the same contract :func:`load` passes to the bundled scenarios -- and
    must return a :class:`Scenario`.  Registered names show up in
    :func:`available_scenarios` and are loadable by every consumer
    (:func:`load`, the benchmark harness, :class:`repro.study.Study` specs).

    Example::

        @register_scenario("my_mesh")
        def _build(seed, num_intervals):
            return from_config({
                "name": "my_mesh",
                "topology": {"kind": "fully_connected", "num_nodes": 6},
                "traffic": {"kind": "datacenter", "seed": seed,
                            "num_intervals": num_intervals or 200},
            })

    Raises:
        ValueError: If ``name`` is taken.
    """

    def decorator(builder: Callable[[int, int | None], Scenario]):
        if name in _BUILDERS:
            raise ValueError(f"scenario {name!r} is already registered")
        _BUILDERS[name] = builder
        return builder

    return decorator


#: Topology builders usable from a scenario config's ``topology.kind``.
_TOPOLOGY_KINDS: dict[str, Callable[..., Topology]] = {
    "triangle": generators.triangle,
    "line": generators.line,
    "star": generators.star,
    "fully_connected": generators.fully_connected,
    "random_regular": generators.random_regular,
    "leaf_spine": generators.leaf_spine_direct_connect,
    "wan_like": generators.wan_like,
    "geant": zoo.geant,
    "uscarrier": zoo.uscarrier,
    "cogentco": zoo.cogentco,
}

#: Traffic generators usable from a scenario config's ``traffic.kind``.
_TRAFFIC_KINDS: dict[str, Callable] = {
    "gravity": GravityTrafficGenerator,
    "datacenter": DataCenterTrafficGenerator,
    "pfabric": PFabricTrafficGenerator,
    "geant_like": GeantLikeGenerator,
}


def _validate_builder_kwargs(builder, kwargs: dict, what: str, reserved: tuple = ()) -> None:
    """Reject config keys the builder cannot accept -- before anything builds.

    ``reserved`` names parameters the framework supplies itself (e.g. the
    traffic generators' ``topology``), which configs must not set.
    """
    parameters = inspect.signature(builder).parameters
    allowed = [
        name
        for name, param in parameters.items()
        if name not in reserved
        and param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    ]
    unknown = [key for key in kwargs if key not in allowed]
    if unknown:
        raise ValueError(
            f"unknown key(s) {sorted(unknown)} for {what}; allowed: {sorted(allowed)}"
        )


def from_config(config: Mapping) -> Scenario:
    """Build a :class:`Scenario` from a plain config dict (JSON-friendly).

    The config mirrors what the bundled builders hard-code::

        {
            "name": "my_scenario",
            "topology": {"kind": "fully_connected", "num_nodes": 8,
                         "capacity": 40.0},
            "traffic": {"kind": "datacenter", "level": "pod",
                        "num_intervals": 300, "seed": 0},
            "paths": {"k": 3},
            "history_len": 12,
            "train_fraction": 0.75,
            "description": "..."
        }

    ``topology.kind`` selects from :data:`_TOPOLOGY_KINDS` (generator
    functions and the topology-zoo WANs); remaining keys are passed to the
    builder.  ``traffic.kind`` selects from :data:`_TRAFFIC_KINDS`; the
    generator is constructed with the remaining keys (minus the required
    ``num_intervals``, which sets the trace length).

    Raises:
        ValueError: On unknown kinds or leftover config keys.
    """
    # Validate the whole config up front: a typoed key must fail before the
    # (potentially expensive) topology / KSP / trace construction starts.
    cfg = dict(config)
    name = cfg.pop("name", "custom")
    topo_cfg = dict(cfg.pop("topology", None) or {})
    traffic_cfg = dict(cfg.pop("traffic", None) or {})
    paths_cfg = dict(cfg.pop("paths", None) or {})
    train_fraction = cfg.pop("train_fraction", 0.75)
    history_len = cfg.pop("history_len", 12)
    description = cfg.pop("description", "")
    if cfg:
        raise ValueError(
            f"unknown scenario config key(s) {sorted(cfg)}; allowed: ['name', 'topology', "
            "'traffic', 'paths', 'history_len', 'train_fraction', 'description']"
        )

    topo_kind = topo_cfg.pop("kind", None)
    if topo_kind not in _TOPOLOGY_KINDS:
        raise ValueError(
            f"unknown topology kind {topo_kind!r}; available: "
            f"{', '.join(sorted(_TOPOLOGY_KINDS))}"
        )
    _validate_builder_kwargs(_TOPOLOGY_KINDS[topo_kind], topo_cfg, f"topology kind {topo_kind!r}")
    traffic_kind = traffic_cfg.pop("kind", None)
    if traffic_kind not in _TRAFFIC_KINDS:
        raise ValueError(
            f"unknown traffic kind {traffic_kind!r}; available: "
            f"{', '.join(sorted(_TRAFFIC_KINDS))}"
        )
    num_intervals = traffic_cfg.pop("num_intervals", None)
    if num_intervals is None:
        raise ValueError("the traffic config requires 'num_intervals'")
    _validate_builder_kwargs(
        _TRAFFIC_KINDS[traffic_kind],
        traffic_cfg,
        f"traffic kind {traffic_kind!r}",
        reserved=("topology",),
    )
    k_paths = paths_cfg.pop("k", 3)
    if paths_cfg:
        raise ValueError(f"unknown paths config key(s) {sorted(paths_cfg)}; allowed: ['k']")

    topology = _TOPOLOGY_KINDS[topo_kind](**topo_cfg)
    traffic = _TRAFFIC_KINDS[traffic_kind](topology, **traffic_cfg).generate(num_intervals)
    return Scenario(
        name=name,
        topology=topology,
        paths=build_ksp_path_set(topology, k=k_paths),
        traffic=traffic,
        train_fraction=train_fraction,
        history_len=history_len,
        description=description,
    )


def load(name: str, seed: int = 0, num_intervals: int | None = None) -> Scenario:
    """Build a named scenario.

    Args:
        name: One of :func:`available_scenarios`.
        seed: Seed controlling the synthetic traffic (and, for ToR scenarios,
            the random regular topology).
        num_intervals: Optional override for the trace length.

    Raises:
        KeyError: If the scenario name is unknown.
    """
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        )
    return _BUILDERS[name](seed, num_intervals)
