"""The benchmark's tracer wraps ptsym functions by name; those names must exist."""

import importlib
import importlib.util
import json
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def modules(tracer):
    return {layer: importlib.import_module(f"ptsym.{layer}") for layer in tracer.LAYERS}


def test_every_traced_name_resolves(tracer, modules):
    for layer, names in tracer.TRACED.items():
        for name in names:
            assert callable(getattr(modules[layer], name, None)), f"ptsym.{layer}.{name}"


DOC = {
    "blocks": [
        {"kind": "pt2", "r": 1.0, "theta": 0.5, "s": 1.2},
        {"kind": "pt2", "r": 2.0, "theta": -0.3, "s": 2.5},
        {"kind": "level", "a": 0.75},
    ]
}


def traced_calls(tracer, modules, tmp_path, command, *options):
    """Run the CLI on ``DOC`` under the tracer; count the calls of each traced name."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DOC))
    spans = tracer.Tracer(modules)
    with spans, redirect_stdout(StringIO()):
        assert modules["cli"].main([command, str(path), *options]) == 0
    return Counter(name for name, *_ in spans.spans)


def test_verify_builds_each_operator_once(tracer, modules, tmp_path):
    calls = traced_calls(tracer, modules, tmp_path, "verify")
    assert calls["symmetry.build_C"] == 1
    assert calls["symmetry.build_P"] == 1
    assert calls["symmetry.verify_cpt"] == 1


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_each_block_is_classified_once(tracer, modules, tmp_path, command):
    calls = traced_calls(tracer, modules, tmp_path, command)
    # one call per pt2 block; levels have no phase to classify
    assert calls["spectra.classify"] == 2


@pytest.mark.parametrize(
    "which, p_builds", [((), 1), (("--which", "P"), 1), (("--which", "C"), 0), (("--which", "T"), 0)]
)
def test_operators_builds_P_only_when_printed(tracer, modules, tmp_path, which, p_builds):
    calls = traced_calls(tracer, modules, tmp_path, "operators", *which)
    # T alone needs neither the spectrum nor C
    c_builds = 0 if which == ("--which", "T") else 1
    assert calls["spectra.full_spectrum"] == c_builds
    assert calls["symmetry.build_C"] == c_builds
    assert calls["symmetry.build_P"] == p_builds
    # the Gram inversion inside build_P is the command's only inversion
    assert calls["linalg.mat_inverse"] == p_builds
