"""Named evaluation scenarios (topology + paths + traffic + split).

The registry is open: :func:`register_scenario` adds new named workloads
and :func:`from_config` builds one from a plain (JSON-friendly) config dict,
so scenarios are data rather than code.
"""

from repro.datasets.registry import (
    Scenario,
    available_scenarios,
    from_config,
    load,
    register_scenario,
)

__all__ = [
    "Scenario",
    "available_scenarios",
    "load",
    "register_scenario",
    "from_config",
]
