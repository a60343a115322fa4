"""Smoke test: the demos run to completion against this checkout, the
experiment demos on their ``--small`` task, each in a fresh directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import unlearnlab as ul

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["gradient_check.py", "reference_target.py",
                                    "method_comparison.py", "full_experiment.py --small",
                                    "tradeoff_sweep.py --small"])
def test_demo_runs(script, tmp_path):
    # import this checkout's package, not whichever one is installed
    src = os.path.dirname(os.path.dirname(ul.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    name, *args = script.split()
    out = subprocess.run([sys.executable, str(DEMOS / name), *args], cwd=tmp_path,
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
