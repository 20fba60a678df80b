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


def test_verify_builds_each_operator_once(tracer, modules, tmp_path):
    doc = {
        "blocks": [
            {"kind": "pt2", "r": 1.0, "theta": 0.5, "s": 1.2},
            {"kind": "pt2", "r": 2.0, "theta": -0.3, "s": 2.5},
            {"kind": "level", "a": 0.75},
        ]
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    spans = tracer.Tracer(modules)
    with spans, redirect_stdout(StringIO()):
        assert modules["cli"].main(["verify", str(path)]) == 0
    calls = Counter(name for name, *_ in spans.spans)
    assert calls["symmetry.build_C"] == 1
    assert calls["symmetry.build_P"] == 1
    assert calls["symmetry.verify_cpt"] == 1
