"""Random small systems through every command, checked against the benchmark's oracle.

``perfbench/oracle.py`` recomputes each expected output from the block
parameters alone and never imports ptsym.  It is loaded by path, as
``tests/test_tracer.py`` loads the tracer, together with the
``perfbench/workloads.py`` it imports; the configs come from that module's
own block draws.
"""

import importlib.util
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsym.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, patch):
    """Run ``perfbench/<name>.py`` as module ``name``, listed in sys.modules
    while ``patch`` lasts: its dataclasses look their module up there, and the
    oracle imports the workloads module by its plain name."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


with pytest.MonkeyPatch.context() as patch:
    workloads = load("workloads", patch)
    oracle = load("oracle", patch)

UNBROKEN = (workloads.unbroken_block, workloads.level)
DRAWS = UNBROKEN + (workloads.broken_block, workloads.exceptional_block)
COMMANDS = [
    ("build",),
    ("spectrum",),
    ("spectrum", "--vectors"),
    ("operators",),
    ("operators", "--which", "C"),
    ("operators", "--which", "P"),
    ("operators", "--which", "T"),
    ("verify",),
    ("cfrac",),
]
UNBROKEN_ONLY = {"operators", "verify", "cfrac"}


@st.composite
def configs(draw):
    """1-6 blocks, all unbroken or of any phase, plus a continued fraction
    clear of its poles."""
    rng = draw(st.randoms(use_true_random=False))
    draws = draw(st.sampled_from((UNBROKEN, DRAWS)))
    kinds = draw(st.lists(st.sampled_from(draws), min_size=1, max_size=6))
    doc = {"blocks": [kind(rng) for kind in kinds]}
    doc["cfrac_depth"] = draw(st.integers(1, workloads.DEFAULT_DEPTH))
    doc["beta"] = workloads.draw_beta(rng, doc["cfrac_depth"])
    return doc


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "config.json"


@settings(deadline=None, max_examples=100)
@given(doc=configs())
def test_every_command_agrees_with_the_oracle(config_path, doc):
    text = json.dumps(doc)
    config_path.write_text(text)
    refused = any(oracle.phase(b) != "UNBROKEN" for b in doc["blocks"])
    for args in COMMANDS:
        expect = 3 if refused and args[0] in UNBROKEN_ONLY else 0
        command = workloads.Command(args, config_path.name, text, doc, expect, len(doc["blocks"]))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(command.argv(str(config_path)))
        wrong = oracle.check(command, code, out.getvalue(), err.getvalue())
        assert wrong is None, f"{' '.join(args)}: {wrong}"
