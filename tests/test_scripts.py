"""The catalog scripts run end to end and exit 0."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [["audit_catalog.py"], ["hunt_catalog.py", "--seeds", "2"]],
                         ids=["audit_catalog", "hunt_catalog"])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", argv[0])] + argv[1:],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout and "Traceback" not in proc.stderr
