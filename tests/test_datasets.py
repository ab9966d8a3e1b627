"""Unit tests for the scenario registry."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import datasets
from repro.traffic.stats import burstiness_summary


class TestRegistry:
    def test_available_scenarios_contains_paper_set(self):
        names = datasets.available_scenarios()
        for required in (
            "geant",
            "uscarrier",
            "cogentco",
            "pfabric",
            "meta_pod_db",
            "meta_pod_web",
            "meta_tor_db",
            "meta_tor_web",
        ):
            assert required in names
            assert f"{required}_small" in names or required in ("geant",)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            datasets.load("nonexistent")

    def test_small_scenario_loads_quickly_and_consistently(self):
        scenario = datasets.load("meta_pod_db_small", seed=1, num_intervals=50)
        assert scenario.topology.num_nodes == 4
        assert scenario.paths.num_sd_pairs == 12
        assert len(scenario.traffic) == 50
        again = datasets.load("meta_pod_db_small", seed=1, num_intervals=50)
        assert (
            scenario.traffic.flat_demands() == again.traffic.flat_demands()
        ).all()

    def test_split_respects_train_fraction(self):
        scenario = datasets.load("pfabric_small", seed=2, num_intervals=40)
        train, test = scenario.split()
        assert len(train) == 30
        assert len(test) == 10

    def test_pod_web_has_eight_pods(self):
        scenario = datasets.load("meta_pod_web_small", seed=0, num_intervals=20)
        assert scenario.topology.num_nodes == 8
        assert scenario.topology.num_edges == 56  # Table 1

    def test_tor_small_uses_random_regular_graph(self):
        scenario = datasets.load("meta_tor_db_small", seed=0, num_intervals=30)
        degrees = {}
        for edge in scenario.topology.edges:
            degrees[edge.src] = degrees.get(edge.src, 0) + 1
        assert len(set(degrees.values())) == 1  # regular graph

    def test_tor_traffic_burstier_than_pod_traffic(self):
        pod = datasets.load("meta_pod_db_small", seed=3, num_intervals=120)
        tor = datasets.load("meta_tor_db_small", seed=3, num_intervals=120)
        pod_p50 = burstiness_summary(pod.traffic, history=12)["p50"]
        tor_p50 = burstiness_summary(tor.traffic, history=12)["p50"]
        assert tor_p50 < pod_p50

    def test_geant_small_is_mostly_stable(self):
        scenario = datasets.load("geant_small", seed=4, num_intervals=100)
        summary = burstiness_summary(scenario.traffic, history=12)
        assert summary["p50"] > 0.9

    def test_wan_gravity_scenarios_use_synthetic_wan(self):
        scenario = datasets.load("uscarrier_small", seed=0, num_intervals=20)
        assert scenario.topology.num_nodes == 40
        assert "gravity" in scenario.traffic.name

    def test_every_small_scenario_is_loadable(self):
        for name in datasets.available_scenarios():
            if not name.endswith("_small") and name != "geant_small":
                continue
            scenario = datasets.load(name, seed=0, num_intervals=15)
            assert len(scenario.traffic) == 15
            assert scenario.paths.num_sd_pairs == scenario.topology.num_sd_pairs


# --------------------------------------------------------------------------- #
# Every bundled scenario's topology and paths, pinned
# --------------------------------------------------------------------------- #
#: ``name -> (PathSet.fingerprint, sha1 of repr([(src, dst, capacity), ...]))``
#: at seed 7, recorded when Yen's paths and random regular graphs still came
#: from networkx 3.6.1.  Every record depends on both, so a change to either
#: is a change to every result and must show up here first.
PINNED_SCENARIOS = {
    "cogentco": ("cfd2f0fe2c8702779a89c8a70896a3873d52d4f2", "fbe20598386893d3e2f380f7d75ee1b3c8f13147"),
    "cogentco_small": ("09fa7342dcc8f0a54fe19427b4f9bbc37079bf6c", "34fc7baab9dbfae5fdb33d80d7eb0ee5646a09e9"),
    "geant": ("90e7e2e51f7b4c87f198c4f022a86a00854b5e44", "e895ceeb3059cbc96b742af32856cc1dfe67231b"),
    "geant_small": ("90e7e2e51f7b4c87f198c4f022a86a00854b5e44", "e895ceeb3059cbc96b742af32856cc1dfe67231b"),
    "meta_pod_db": ("9a6700e73341f21f4d12eed93531da88ffc2d124", "d540889d739bfd18c0ef251cbca0253839eb5309"),
    "meta_pod_db_small": ("9a6700e73341f21f4d12eed93531da88ffc2d124", "d540889d739bfd18c0ef251cbca0253839eb5309"),
    "meta_pod_web": ("e7b144cba5c10405073ce98eb7a58a46e27fd1f9", "0d122a23a4726f46a856240f66dc5288b7e15458"),
    "meta_pod_web_small": ("e7b144cba5c10405073ce98eb7a58a46e27fd1f9", "0d122a23a4726f46a856240f66dc5288b7e15458"),
    "meta_tor_db": ("d2781040f522082fea0c4bc17c543cfa21ed6dfb", "1f77c7b364c8b3dd85c813fd272a056cd3200090"),
    "meta_tor_db_small": ("5ababba4f38b17a42d20b16b9c74fa7ca7a97074", "a7086a813cc618179228b0ca11c52cf0dd23e0b7"),
    "meta_tor_web": ("98458c40ae62c2c4d59d55626bb11b450f86bcb7", "031aeaf99ec943e601e155397f0dd479cc9393bc"),
    "meta_tor_web_small": ("38df3b9badb161b393b277d8ed01f6113af1fcfc", "0bdff36be78e68217de8b3886a052c2c61742f59"),
    "pfabric": ("30210863bd24eb5317cc257bb2e5564a39386dc2", "1a77d5fa13817ca88d3b14f77dd0ee5256e4ca7e"),
    "pfabric_small": ("30210863bd24eb5317cc257bb2e5564a39386dc2", "1a77d5fa13817ca88d3b14f77dd0ee5256e4ca7e"),
    "uscarrier": ("3f9d17214bf6e901839675b9e5920fb69ca635ab", "f57cdcd8759132db5798c40f4d0670829ce570c5"),
    "uscarrier_small": ("3a9c5acc11584c46bddb44d3dd3ae4f5740e7cec", "1475f81efd8688e2d8d27e4d61166d3530a944bd"),
}

#: Loads every bundled scenario in a fresh process and reports, as JSON, each
#: one's pins and whether networkx had been imported by then.
_SCENARIO_SCRIPT = """
import hashlib, json, sys

def networkx_loaded():
    return "networkx" in sys.modules

import repro.study
from repro import datasets

report = {"after_import": networkx_loaded(), "scenarios": {}}
for name in datasets.available_scenarios():
    scenario = datasets.load(name, seed=7, num_intervals=20)
    edges = repr([(e.src, e.dst, e.capacity) for e in scenario.topology.edges])
    report["scenarios"][name] = {
        "pins": [scenario.paths.fingerprint, hashlib.sha1(edges.encode()).hexdigest()],
        "networkx_loaded": networkx_loaded(),
    }
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def scenario_report() -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]),
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCENARIO_SCRIPT],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestScenarioPins:
    def test_every_scenario_keeps_its_topology_and_paths(self, scenario_report):
        pins = {name: tuple(entry["pins"]) for name, entry in scenario_report["scenarios"].items()}
        assert sorted(pins) == sorted(PINNED_SCENARIOS)
        for name, expected in PINNED_SCENARIOS.items():
            assert pins[name] == expected, name

    def test_networkx_stays_off_the_run_path(self, scenario_report):
        """No timing: networkx costs ~12 MB and ~60 ms in every process that
        imports it, and neither importing ``repro.study`` nor building any
        bundled scenario needs it."""
        assert not scenario_report["after_import"], "import repro.study loads networkx"
        loaded = [
            name for name, entry in scenario_report["scenarios"].items() if entry["networkx_loaded"]
        ]
        assert not loaded, f"loading {loaded[0]} imports networkx"
