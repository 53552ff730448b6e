"""Smoke test: every demo but the slow ones runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
# Left out for their run time on 2 cores; the others take about 12 s together.
SLOW = {
    "02_which_changes_enable_detection.py": "about 41 s",
    "03_working_model_flexibility.py": "about 18 s",
}
DEMOS = sorted(p.name for p in (REPO / "demos").glob("*.py") if p.name not in SLOW)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    src = str(REPO / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "TMPDIR": str(tmp_path),  # a demo's temporary files stay in the test's directory
    }
    run = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []  # a demo leaves no files behind
