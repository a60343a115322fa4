"""Smoke test: the quick demos run to completion against this checkout.

The ``--small`` experiment demos take several seconds each and are left
to manual runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import unlearnlab as ul

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["gradient_check.py", "reference_target.py",
                                    "method_comparison.py"])
def test_demo_runs(script, tmp_path):
    # import this checkout's package, not whichever one is installed
    src = os.path.dirname(os.path.dirname(ul.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
