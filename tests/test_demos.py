"""Smoke test: every script in ``demos/``, and the README's library quick
start, runs cleanly as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptsym

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_quick_start() -> str:
    """The Python block under the README's "Library quick start" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start")[1]
    return section.split("```python\n")[1].split("```")[0]


@pytest.mark.parametrize(
    "argv",
    [[str(d)] for d in DEMOS] + [["-c", readme_quick_start()]],
    ids=[d.stem for d in DEMOS] + ["readme_quick_start"],
)
def test_demo_runs(argv):
    # the child imports the same ptsym as this process, installed or not
    src = os.path.dirname(os.path.dirname(ptsym.__file__))
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
