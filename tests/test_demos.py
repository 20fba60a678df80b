"""Smoke test: every script in ``demos/`` runs cleanly as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptsym

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # the child imports the same ptsym as this process, installed or not
    src = os.path.dirname(os.path.dirname(ptsym.__file__))
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
