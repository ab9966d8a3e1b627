"""Tier-1 run of ``crash_resume_smoke.py``: SIGINT a CLI study, resume it."""

from __future__ import annotations

import crash_resume_smoke


def test_interrupted_cli_study_resumes_to_the_same_out(tmp_path):
    crash_resume_smoke.main(tmp_path)
