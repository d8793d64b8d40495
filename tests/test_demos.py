"""The demos run to the end. Demo 05 trains the whole ablation grid (about
half a minute) and is left to be run by hand."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize(
    "demo",
    [
        "01_consensus_alignment.py",
        "02_enhancement_forward_pass.py",
        "03_losses_and_gradients.py",
        "04_toy_federated_training.py",
        "06_view_consistency_and_correlation.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # demo 06 writes a file it keeps
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
