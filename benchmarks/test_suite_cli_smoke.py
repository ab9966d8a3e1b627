"""Tier-1 run of ``suite_cli_smoke.py``: a suite through run, query and export."""

from __future__ import annotations

import suite_cli_smoke


def test_suite_runs_queries_and_exports_through_the_cli(tmp_path):
    suite_cli_smoke.main(tmp_path)
