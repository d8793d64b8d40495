"""The quick demos run to the end. Demos 04-06 train full toy runs (tens of
seconds together) and are left to be run by hand."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize(
    "demo",
    ["01_degradation_bound.py", "02_enhancement_forward_pass.py", "03_losses_and_gradients.py"],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
