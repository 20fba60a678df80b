import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptsym
from ptsym import HamiltonianSpec, PTBlock, RealLevel, assemble, max_abs
from ptsym.cli import (
    MAX_CFRAC_DEPTH,
    ParseError,
    RunConfig,
    ValidationError,
    main,
    parse_config,
)

CHECK_RE = re.compile(
    r"^CHECK [A-Za-z_]+ residual=\d\.\d{3}e[+-]\d{2,3} tol=\d\.\d{3}e[+-]\d{2,3} (PASS|FAIL)$"
)

UNBROKEN_DOC = {
    "blocks": [
        {"kind": "pt2", "r": 1.0, "theta": 0.5, "s": 1.2},
        {"kind": "pt2", "r": 2.0, "theta": -0.3, "s": 2.5},
        {"kind": "level", "a": 0.75},
    ]
}

BROKEN_DOC = {
    "blocks": [
        {"kind": "pt2", "r": 1.0, "theta": 0.1, "s": 4.0},
        {"kind": "pt2", "r": 2.0, "theta": 1.5707963267948966, "s": 1.0},
    ]
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ parse_config


def test_parse_single_block():
    cfg = parse_config('{"blocks": [{"kind": "pt2", "r": 1.0, "theta": 0.2, "s": 1.0}]}')
    assert cfg.spec.dimension == 2
    assert cfg.beta == 2.0
    assert cfg.cfrac_depth == 11
    assert cfg.tol == 1e-12


def test_parse_two_blocks_plus_level_preserves_order():
    cfg = parse_config(json.dumps(UNBROKEN_DOC))
    assert cfg.spec.dimension == 5
    kinds = [type(b).__name__ for b in cfg.spec.blocks]
    assert kinds == ["PTBlock", "PTBlock", "RealLevel"]


def test_parse_optional_fields():
    doc = dict(UNBROKEN_DOC, beta=3.5, cfrac_depth=4, tol=1e-10)
    cfg = parse_config(json.dumps(doc))
    assert cfg.beta == 3.5
    assert cfg.cfrac_depth == 4
    assert cfg.tol == 1e-10


def test_parse_rejects_nonpositive_coupling():
    doc = {"blocks": [{"kind": "pt2", "r": 1.0, "theta": 0.0, "s": 0.0}]}
    with pytest.raises(ValidationError, match=r"blocks\[0\]"):
        parse_config(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError, match="line 1"):
        parse_config('{"blocks": [')


def test_parse_rejects_bad_schema():
    with pytest.raises(ValidationError, match="missing field 'blocks'"):
        parse_config("{}")
    with pytest.raises(ValidationError, match="nonempty"):
        parse_config('{"blocks": []}')
    with pytest.raises(ValidationError, match="unknown kind"):
        parse_config('{"blocks": [{"kind": "pt3"}]}')
    with pytest.raises(ValidationError, match="missing field 's'"):
        parse_config('{"blocks": [{"kind": "pt2", "r": 1.0, "theta": 0.0}]}')
    with pytest.raises(ValidationError, match="finite"):
        parse_config('{"blocks": [{"kind": "level", "a": Infinity}]}')
    with pytest.raises(ValidationError, match="tol"):
        parse_config(json.dumps(dict(UNBROKEN_DOC, tol=0.0)))
    with pytest.raises(ValidationError, match="cfrac_depth"):
        parse_config(json.dumps(dict(UNBROKEN_DOC, cfrac_depth=0)))
    with pytest.raises(ValidationError, match="expected a number"):
        parse_config(json.dumps(dict(UNBROKEN_DOC, beta=True)))


def test_parse_bounds_cfrac_depth():
    doc = dict(UNBROKEN_DOC, cfrac_depth=MAX_CFRAC_DEPTH)
    assert parse_config(json.dumps(doc)).cfrac_depth == MAX_CFRAC_DEPTH
    for depth in (MAX_CFRAC_DEPTH + 1, 10**400):
        with pytest.raises(ValidationError, match="cfrac_depth: must be <="):
            parse_config(json.dumps(dict(UNBROKEN_DOC, cfrac_depth=depth)))


# JSON values of every type, nested a little.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
numbers = st.integers() | st.floats()
block_docs = st.fixed_dictionaries(
    {"kind": st.sampled_from(["pt2", "level"]) | json_values},
    optional={field: numbers | json_values for field in ("r", "theta", "s", "a")},
)
config_docs = st.fixed_dictionaries(
    {"blocks": st.lists(block_docs, max_size=3) | json_values},
    optional={
        "beta": numbers | json_values,
        "cfrac_depth": st.integers(-1, MAX_CFRAC_DEPTH + 1) | json_values,
        "tol": numbers | json_values,
    },
)
# Config-shaped JSON documents and raw bytes.
config_bytes = st.binary(max_size=64) | config_docs.map(lambda doc: json.dumps(doc).encode())


@settings(deadline=None, max_examples=200)
@given(text=st.text(max_size=64) | config_docs.map(json.dumps))
def test_parse_config_raises_only_config_errors(text):
    try:
        parse_config(text)
    except (ParseError, ValidationError):
        pass


# ------------------------------------------------------------------- build


def parse_matrix_dump(text, name):
    lines = text.splitlines()
    header = f"MATRIX {name} "
    for i, line in enumerate(lines):
        if line.startswith(header):
            nrows, ncols = map(int, line[len(header):].split())
            rows = []
            for row_line in lines[i + 1 : i + 1 + nrows]:
                entries = []
                for token in row_line.split("\t"):
                    re_part, im_part = token.strip("()").split(",")
                    entries.append(complex(float(re_part), float(im_part)))
                rows.append(entries)
            m = np.array(rows)
            assert m.shape == (nrows, ncols)
            return m
    raise AssertionError(f"no MATRIX {name} dump found")


def test_build_dumps_exact_matrix(tmp_path, capsys):
    path = write_config(tmp_path, UNBROKEN_DOC)
    code, out, err = run_cli(capsys, "build", path)
    assert code == 0
    spec = HamiltonianSpec(
        [PTBlock(r=1.0, theta=0.5, s=1.2), PTBlock(r=2.0, theta=-0.3, s=2.5), RealLevel(a=0.75)]
    )
    dumped = parse_matrix_dump(out, "H")
    # repr round-trips doubles, so the dump must reproduce H bit-exactly
    assert np.array_equal(dumped, assemble(spec))


# ---------------------------------------------------------------- spectrum


def test_spectrum_reports_broken_blocks(tmp_path, capsys):
    path = write_config(tmp_path, BROKEN_DOC)
    code, out, err = run_cli(capsys, "spectrum", path)
    assert code == 0
    assert "BLOCK 0 KIND pt2 PHASE UNBROKEN" in out
    assert "BLOCK 1 KIND pt2 PHASE BROKEN" in out
    # conjugate pair +-i sqrt(3) on the broken block
    assert repr(math.sqrt(3.0)) in out
    assert repr(-math.sqrt(3.0)) in out


def test_spectrum_vectors_flag(tmp_path, capsys):
    path = write_config(tmp_path, UNBROKEN_DOC)
    code, out, _ = run_cli(capsys, "spectrum", path, "--vectors")
    assert code == 0
    assert out.count("VECTOR") == 5  # two pairs per block, one per level
    rows = [line.split("\t")[1:] for line in out.splitlines() if line.startswith("VECTOR")]
    assert all(len(row) == 5 for row in rows)
    # entries outside the pair's own block print as zeros
    assert rows[-1] == ["(0.0,0.0)"] * 4 + ["(1.0,0.0)"]
    code, out, _ = run_cli(capsys, "spectrum", path)
    assert "VECTOR" not in out


# --------------------------------------------------------------- operators


def test_operators_dumps_all_three(tmp_path, capsys):
    one_block = {"blocks": [{"kind": "pt2", "r": 1.0, "theta": 0.3, "s": 1.0}]}
    two_blocks = {"blocks": UNBROKEN_DOC["blocks"][:2]}
    for doc, n in [(one_block, 2), (two_blocks, 4), (UNBROKEN_DOC, 5)]:
        path = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "operators", path)
        assert code == 0
        assert parse_matrix_dump(out, "C").shape == (n, n)
        assert parse_matrix_dump(out, "P").shape == (n, n)
        # T = I K: the matrix part is the identity
        assert "ANTILINEAR T conjugates=true" in out
        assert np.array_equal(parse_matrix_dump(out, "T"), np.eye(n))


def test_operators_which_flag(tmp_path, capsys):
    path = write_config(tmp_path, UNBROKEN_DOC)
    code, out, _ = run_cli(capsys, "operators", path, "--which", "P")
    assert code == 0
    assert "MATRIX P" in out
    assert "MATRIX C" not in out
    assert "ANTILINEAR" not in out


def test_operators_hermitian_limit_C_equals_P(tmp_path, capsys):
    doc = {"blocks": [{"kind": "pt2", "r": 1.1, "theta": 0.0, "s": 0.8}]}
    path = write_config(tmp_path, doc)
    code, out, _ = run_cli(capsys, "operators", path)
    assert code == 0
    c = parse_matrix_dump(out, "C")
    p = parse_matrix_dump(out, "P")
    assert max_abs(c - p) < 1e-12
    assert max_abs(c - np.array([[0.0, 1.0], [1.0, 0.0]])) < 1e-12


def test_operators_on_broken_spec_is_phase_error(tmp_path, capsys):
    path = write_config(tmp_path, BROKEN_DOC)
    code, out, err = run_cli(capsys, "operators", path)
    assert code == 3
    assert "block 1" in err
    assert out == ""


# ------------------------------------------------------------------ verify


def test_verify_all_pass(tmp_path, capsys):
    path = write_config(tmp_path, UNBROKEN_DOC)
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("CHECK")]
    assert len(lines) == 10
    for line in lines:
        assert CHECK_RE.match(line), line
        assert line.endswith("PASS")
    names = [line.split()[1] for line in lines]
    assert names == [
        "orthonormality",
        "completeness",
        "reconstruction",
        "c_squared",
        "p_squared",
        "commutator_H_C",
        "pt_antilinear",
        "cpt_identity",
        "c_expectations",
        "traces",
    ]


def test_verify_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, UNBROKEN_DOC)
    _, first, _ = run_cli(capsys, "verify", path)
    _, second, _ = run_cli(capsys, "verify", path)
    assert first == second


def test_verify_broken_spec_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, BROKEN_DOC)
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 3
    assert "phase error" in err
    assert "block 1" in err


def test_verify_impossible_tolerance_fails(tmp_path, capsys):
    path = write_config(tmp_path, UNBROKEN_DOC)
    code, out, _ = run_cli(capsys, "verify", path, "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli(capsys, "verify", missing)[0] == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "config error" in err

    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"blocks": [{"kind": "pt2", "r": 1.0, "theta": 0.0, "s": -1.0}]}')
    assert run_cli(capsys, "verify", str(invalid))[0] == 2

    path = write_config(tmp_path, UNBROKEN_DOC)
    assert run_cli(capsys, "verify", path, "--tol", "-1.0")[0] == 2


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 10**5 + b"]" * 10**5,  # nested deeper than the JSON decoder recurses
        b'{"blocks": [{"kind": "level", "a": ' + b"1" * 5000 + b"}]}",  # too many digits
        b'{"blocks": [{"kind": "level", "a": 1.0}], "cfrac_depth": 100000000}',
    ],
    ids=["not-utf8", "nested", "long-integer", "cfrac-depth"],
)
def test_malformed_config_bytes_exit_2(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "cfrac", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("ptsym: config error: ")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"blocks": [{"kind": "level", "a": 1.0}], "cfrac_dept": 4}',
            "top level: unknown key 'cfrac_dept'",
        ),
        (
            '{"blocks": [{"kind": "level", "a": 1.0, "s": 2.0}]}',
            "blocks[0]: unknown key 's'",
        ),
        (
            '{"blocks": [{"kind": "level", "a": 1.0},'
            ' {"kind": "pt2", "r": 1.0, "theta": 0.5, "r": 2.0, "s": 1.2}]}',
            "blocks[1]: duplicate key 'r'",
        ),
        (
            '{"blocks": [{"kind": "level", "a": 1.0}], "beta": 3.0, "beta": 2.5}',
            "top level: duplicate key 'beta'",
        ),
    ],
    ids=["unknown-top-level", "unknown-in-level", "duplicate-in-block", "duplicate-top-level"],
)
def test_unknown_or_duplicate_key_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err == f"ptsym: config error: {message}\n"


@settings(deadline=None, max_examples=100)
@given(data=config_bytes)
def test_main_exit_code_for_any_config_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "wb") as fh:
            fh.write(data)
        for command in ("build", "spectrum", "operators", "verify", "cfrac"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main([command, path]) in {0, 1, 2, 3}


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"blocks": [{"kind": "level", "a": 10**400}]}, "blocks[0].a"),
        ({"blocks": [{"kind": "level", "a": 1.0}], "beta": -(10**400)}, "beta"),
    ],
)
def test_number_too_large_for_a_float_exits_2(tmp_path, capsys, doc, field):
    code, out, err = run_cli(capsys, "spectrum", write_config(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.startswith(f"ptsym: config error: {field}: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_tol_flag_exits_2(tmp_path, capsys, value):
    path = write_config(tmp_path, UNBROKEN_DOC)
    code, out, err = run_cli(capsys, "verify", path, f"--tol={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("ptsym: config error: --tol")


# ------------------------------------------------------------------- cfrac


def test_cfrac_dumps_F_and_checks(tmp_path, capsys):
    path = write_config(tmp_path, UNBROKEN_DOC)
    code, out, _ = run_cli(capsys, "cfrac", path)
    assert code == 0
    f = parse_matrix_dump(out, "F")
    assert f.shape == (5, 5)
    lines = [line for line in out.splitlines() if line.startswith("CHECK")]
    assert [line.split()[1] for line in lines] == ["commutator_H_F", "commutator_C_F"]
    for line in lines:
        assert CHECK_RE.match(line)
        assert line.endswith("PASS")
        assert "tol=1.000e-10" in line  # default 1e-12 scaled by 100 for cfrac


def test_cfrac_pole_exits_1(tmp_path, capsys):
    doc = dict(UNBROKEN_DOC, beta=1.0, cfrac_depth=1)
    path = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "cfrac", path)
    assert code == 1
    assert "pole" in err


# ------------------------------------------------------------ entry points


def run_module(*argv):
    """Run ``python -m ptsym`` on ``argv`` as a child process, bytes captured."""
    # the child imports the same ptsym as this process, installed or not
    src = os.path.dirname(os.path.dirname(ptsym.__file__))
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    return subprocess.run([sys.executable, "-m", "ptsym", *argv], capture_output=True, env=env)


def test_module_entry_point(tmp_path, capsys):
    cases = [
        (UNBROKEN_DOC, [], 0),
        (UNBROKEN_DOC, ["--tol", "1e-30"], 1),
        ({"blocks": []}, [], 2),
        (BROKEN_DOC, [], 3),
    ]
    for doc, extra, code in cases:
        path = write_config(tmp_path, doc)
        proc = run_module("verify", path, *extra)
        in_process = run_cli(capsys, "verify", path, *extra)
        assert in_process[0] == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code,
            in_process[1].encode(),
            in_process[2].encode(),
        )


def test_main_leaves_the_heap_unfrozen(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "verify", write_config(tmp_path, UNBROKEN_DOC))[0] == 0
    assert gc.get_freeze_count() == frozen


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_entries_near_the_float_limit_leave_stderr_empty(tmp_path):
    # squaring an entry above ~1.3e154 overflows; no residual may do that
    doc = {
        "blocks": [
            {"kind": "pt2", "r": 1e300, "theta": 0.5, "s": 1e300},
            {"kind": "level", "a": 1},
        ]
    }
    path = write_config(tmp_path, doc)
    for command in ("build", "spectrum", "operators", "verify", "cfrac"):
        proc = run_module(command, path)
        assert proc.stderr == b"", command
        residuals = [
            float(line.split()[2].removeprefix("residual="))
            for line in proc.stdout.decode().splitlines()
            if line.startswith("CHECK")
        ]
        assert all(math.isfinite(r) for r in residuals), command
        if command == "verify":
            assert len(residuals) == 10
