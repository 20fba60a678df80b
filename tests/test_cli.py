import errno
import gc
import importlib
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
from ptsym.cli import MAX_CFRAC_DEPTH, ConfigError, RunConfig, main, parse_config

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

EXCEPTIONAL_DOC = {
    "blocks": [
        {"kind": "pt2", "r": 1.0, "theta": 1.5707963267948966, "s": 1.0},
        {"kind": "level", "a": 0.5},
    ]
}

# (config, stderr) of every command that needs eigenvectors on a system that
# has a block outside the unbroken phase
PHASE_ERRORS = [
    (
        BROKEN_DOC,
        "ptsym: phase error: block 1 is broken; eigenvectors exist only in the "
        "unbroken phase (eigenvalues-only spectra are still available)\n",
    ),
    (
        EXCEPTIONAL_DOC,
        "ptsym: phase error: block 0 is exceptional; eigenvectors exist only in the "
        "unbroken phase (eigenvalues-only spectra are still available)\n",
    ),
]


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
    with pytest.raises(ConfigError, match=r"blocks\[0\]"):
        parse_config(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config('{"blocks": [')


def test_parse_rejects_bad_schema():
    with pytest.raises(ConfigError, match="missing field 'blocks'"):
        parse_config("{}")
    with pytest.raises(ConfigError, match="nonempty"):
        parse_config('{"blocks": []}')
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config('{"blocks": [{"kind": "pt3"}]}')
    with pytest.raises(ConfigError, match="missing field 's'"):
        parse_config('{"blocks": [{"kind": "pt2", "r": 1.0, "theta": 0.0}]}')
    with pytest.raises(ConfigError, match="finite"):
        parse_config('{"blocks": [{"kind": "level", "a": Infinity}]}')
    with pytest.raises(ConfigError, match="tol"):
        parse_config(json.dumps(dict(UNBROKEN_DOC, tol=0.0)))
    with pytest.raises(ConfigError, match="cfrac_depth"):
        parse_config(json.dumps(dict(UNBROKEN_DOC, cfrac_depth=0)))
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config(json.dumps(dict(UNBROKEN_DOC, beta=True)))


def test_parse_bounds_cfrac_depth():
    doc = dict(UNBROKEN_DOC, cfrac_depth=MAX_CFRAC_DEPTH)
    assert parse_config(json.dumps(doc)).cfrac_depth == MAX_CFRAC_DEPTH
    for depth in (MAX_CFRAC_DEPTH + 1, 10**400):
        with pytest.raises(ConfigError, match="cfrac_depth: must be <="):
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
    except ConfigError:
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


def test_spectrum_of_a_large_broken_block_is_finite(tmp_path, capsys):
    # r^2 sin^2(theta) overflows a double here; the width of the pair must not
    doc = {"blocks": [{"kind": "pt2", "r": 1e200, "theta": 1.5707963267948966, "s": 1e199}]}
    code, out, err = run_cli(capsys, "spectrum", write_config(tmp_path, doc))
    assert (code, err) == (0, "")
    values = out.splitlines()[1].split(" E ")[1].split()
    widths = sorted(float(z.strip("()").split(",")[1]) for z in values)
    width = 1e200 * math.sqrt(0.99)
    assert widths == [pytest.approx(-width, rel=1e-15), pytest.approx(width, rel=1e-15)]


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
    for doc, message in PHASE_ERRORS:
        path = write_config(tmp_path, doc)
        for which in ([], ["--which", "C"], ["--which", "P"], ["--which", "T"]):
            assert run_cli(capsys, "operators", path, *which) == (3, "", message), which


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
    for doc, message in PHASE_ERRORS:
        path = write_config(tmp_path, doc)
        for command in ("verify", "cfrac"):
            assert run_cli(capsys, command, path) == (3, "", message), command


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


def test_overflowing_eigenvalues_exit_2(tmp_path, capsys):
    # r + s overflows, so E = r cos(theta) + s cos(phi) would print as inf
    doc = {"blocks": [{"kind": "pt2", "r": 1e308, "theta": 0.0, "s": 1e308}]}
    path = write_config(tmp_path, doc)
    for command in ("build", "spectrum", "operators", "verify", "cfrac"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (2, ""), command
        assert err.startswith("ptsym: config error: blocks[0]: "), command


def test_out_of_memory_is_one_stderr_line(tmp_path, capsys, monkeypatch):
    def too_large(spec):
        raise MemoryError("Unable to allocate 23.8 GiB for an array")

    monkeypatch.setattr("ptsym.model.assemble", too_large)
    path = write_config(tmp_path, UNBROKEN_DOC)
    for command in ("build", "verify", "cfrac"):
        assert run_cli(capsys, command, path) == (
            1,
            "",
            "ptsym: out of memory: Unable to allocate 23.8 GiB for an array\n",
        ), command


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_nonfinite_tol_flag_exits_2(tmp_path, capsys, value):
    path = write_config(tmp_path, UNBROKEN_DOC)
    code, out, err = run_cli(capsys, "verify", path, f"--tol={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("ptsym: config error: --tol")


@pytest.mark.parametrize("command", ["build", "spectrum", "operators"])
def test_tol_flag_only_on_commands_that_read_it(tmp_path, capsys, command):
    path = write_config(tmp_path, UNBROKEN_DOC)
    with pytest.raises(SystemExit) as excinfo:
        main([command, path, "--tol", "1e-9"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


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


def module_env():
    """An environment in which a child process imports the same ptsym as this one."""
    src = os.path.dirname(os.path.dirname(ptsym.__file__))
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))


def run_module(*argv, path=()):
    """Run ``python -m ptsym`` on ``argv`` as a child process, bytes captured.

    ``path`` directories go first on the child's import path.
    """
    env = module_env()
    env["PYTHONPATH"] = os.pathsep.join([*map(str, path), env["PYTHONPATH"]])
    return subprocess.run([sys.executable, "-m", "ptsym", *argv], capture_output=True, env=env)


def in_process(capsys, argv):
    """``main(argv)``'s exit code, stdout and stderr, as a child process gives them."""
    try:
        code = main(argv)
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def refusals(tmp_path):
    """(argv, exit code) of runs that a config or the phase rule refuses alone."""
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"blocks": [')
    schema = write_config(tmp_path, {"blocks": [{"kind": "pt2", "r": 1.0}]}, "schema.json")
    unbroken = write_config(tmp_path, UNBROKEN_DOC, "unbroken.json")
    # a broken block after an unbroken one, and an EP block
    phase_errors = [
        write_config(tmp_path, doc, f"phase{i}.json") for i, (doc, _) in enumerate(PHASE_ERRORS)
    ]
    cases = [
        (["verify", str(truncated)], 2),
        (["spectrum", schema], 2),
        (["build", str(tmp_path / "missing.json")], 2),
        (["verify", unbroken, "--which", "C"], 2),
        (["verify", unbroken, "--tol", "0"], 2),
    ]
    for path in phase_errors:
        cases += [([command, path], 3) for command in ("operators", "verify", "cfrac")]
    return cases


def test_module_entry_point(tmp_path, capsys):
    path = write_config(tmp_path, UNBROKEN_DOC)
    cases = [
        (["verify", path], 0),
        (["verify", path, "--tol", "1e-30"], 1),
        (["verify", write_config(tmp_path, {"blocks": []}, "empty.json")], 2),
        *refusals(tmp_path),
    ]
    for argv, code in cases:
        proc = run_module(*argv)
        expected = in_process(capsys, argv)
        assert expected[0] == code, argv
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv


def test_refusals_never_import_numpy(tmp_path, capsys):
    # a numpy that ends the process with exit 97 the moment it is imported
    poisoned = tmp_path / "poisoned"
    (poisoned / "numpy").mkdir(parents=True)
    (poisoned / "numpy" / "__init__.py").write_text("import os\nos._exit(97)\n")
    for argv, code in refusals(tmp_path):
        proc = run_module(*argv, path=[poisoned])
        expected = in_process(capsys, argv)
        assert expected[0] == code, argv
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
    # and a run that needs arrays does import it
    arrays = run_module("spectrum", write_config(tmp_path, UNBROKEN_DOC), path=[poisoned])
    assert arrays.returncode == 97


def test_import_ptsym_loads_no_numpy():
    check = "import sys, ptsym; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, env=module_env())
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_every_export_resolves_to_its_home_module():
    for name in ptsym.__all__:
        value = getattr(ptsym, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("ptsym."), name
        assert getattr(home, name) is value, name
    assert set(ptsym.__all__) <= set(dir(ptsym))
    with pytest.raises(AttributeError, match="no_such_name"):
        ptsym.no_such_name


def test_main_leaves_the_heap_unfrozen(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "verify", write_config(tmp_path, UNBROKEN_DOC))[0] == 0
    assert gc.get_freeze_count() == frozen


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_entries_near_the_float_limit_leave_stderr_empty(tmp_path):
    docs = [
        # squaring an entry above ~1.3e154 overflows; no residual may do that
        {
            "blocks": [
                {"kind": "pt2", "r": 1e300, "theta": 0.5, "s": 1e300},
                {"kind": "level", "a": 1},
            ]
        },
        # near the EP, C's entries are sec(phi) ~ 7e3, so H C passes the float limit
        {
            "blocks": [
                {"kind": "pt2", "r": 1e306, "theta": 1.5707963267948966, "s": 1.00000001e306}
            ]
        },
        # near the EP, E times an outer product passes the float limit
        {
            "blocks": [
                {"kind": "pt2", "r": 1e308, "theta": 0.7853981633974483, "s": 7.07106788257e307}
            ]
        },
        # max|H| >= 2**1023: the power of two above it is no float
        {"blocks": [{"kind": "level", "a": 1e308}]},
        {"blocks": [{"kind": "pt2", "r": 1e308, "theta": 0, "s": 1}]},
        # entries near the smallest floats: no residual may divide by a subnormal scale
        {"blocks": [{"kind": "pt2", "r": 1e-300, "theta": 0.2, "s": 3e-300}]},
        {"blocks": [{"kind": "level", "a": 5e-324}, {"kind": "level", "a": 0}]},
    ]
    for doc in docs:
        path = write_config(tmp_path, doc)
        for command in ("build", "spectrum", "operators", "verify", "cfrac"):
            proc = run_module(command, path)
            assert proc.stderr == b"", (doc, command)
            residuals = [
                float(line.split()[2].removeprefix("residual="))
                for line in proc.stdout.decode().splitlines()
                if line.startswith("CHECK")
            ]
            assert all(math.isfinite(r) for r in residuals), (doc, command)
            if command == "verify":
                assert len(residuals) == 10


def test_closed_stdout_is_one_stderr_line(tmp_path):
    # the dump of a 600 x 600 H is far larger than a pipe buffer
    doc = {"blocks": [{"kind": "pt2", "r": 1.0, "theta": 0.5, "s": 1.2}] * 300}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ptsym", "build", write_config(tmp_path, doc)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=module_env(),
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    epipe = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
    assert err == f"ptsym: cannot write output: {epipe}\n".encode()
