"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

# Demo -> extra arguments that keep its run to about a second.
ARGS = {
    "build_fingerprint_maps.py": [],
    "cluster_and_select_aps.py": [],
    "localize_one_scan.py": [],
    "sweep_missed_rate_and_error.py": ["--points", "2", "--seeds", "1"],
}


def test_every_demo_is_listed():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == sorted(ARGS)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name), *ARGS[name]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
