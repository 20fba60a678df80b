"""Command-line frontend.

    ptsym <build|spectrum|operators|verify|cfrac> <config-path>
          [--tol X (verify, cfrac)] [--vectors (spectrum)] [--which C|P|T (operators)]

The config file is JSON with a ``blocks`` array of
``{"kind": "pt2", "r": .., "theta": .., "s": ..}`` (theta in radians) or
``{"kind": "level", "a": ..}`` entries, plus optional ``beta``,
``cfrac_depth`` and ``tol``.  Any other key, and any key given twice in
one object, is a config error.

Output is deterministic text on stdout: matrix dumps as
``MATRIX <name> <nrows> <ncols>`` headers followed by one tab-separated
row per line with ``(<re>,<im>)`` entries in shortest round-trip decimal,
and verification lines in the fixed grammar
``CHECK <name> residual=<%.3e> tol=<%.3e> <PASS|FAIL>``.

Exit codes: 0 all checks pass, 1 any FAIL (or a continued-fraction pole,
a system too large for memory, or a closed stdout), 2 config error, 3 phase error
(operators/verify/cfrac on a system with a non-unbroken block; diagnostics
on stderr name the block).

Only a command that builds arrays loads numpy.  This module imports the
numpy-free block types and phase rule of :mod:`ptsym.model`; each command
imports the array layers it uses when it runs, after the config has parsed
and, for operators, verify and cfrac, after every block has passed the phase
gate.  So a config error or a phase error exits without importing numpy,
and so does ``import ptsym``, whose exports resolve lazily.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from .model import (
    HamiltonianSpec,
    NotUnbrokenError,
    Phase,
    PTBlock,
    RealLevel,
    block_offsets,
    dimension,
    require_unbroken,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RunConfig", "ConfigError", "parse_config", "main"]

# The continued-fraction identities hold to a looser bound than the
# closed-form ones (nested inversions accumulate error), so the cfrac
# command checks against tol scaled by this factor.
CFRAC_TOL_FACTOR = 100.0
# cfrac runs `cfrac_depth` N x N inversions, so the depth is bounded.
MAX_CFRAC_DEPTH = 1000
_TOP_KEYS = frozenset({"blocks", "beta", "cfrac_depth", "tol"})
# The commands that need every block's eigenvectors.
_UNBROKEN_ONLY = frozenset({"operators", "verify", "cfrac"})


def _block_kind(cls) -> tuple:
    """``cls``, its fields in the order it takes them, and the keys its block may hold."""
    names = tuple(f.name for f in fields(cls))
    return cls, names, frozenset({"kind", *names})


_BLOCK_KINDS = {"pt2": _block_kind(PTBlock), "level": _block_kind(RealLevel)}


class ConfigError(Exception):
    """A config document, or the ``--tol`` that overrides its tolerance, is invalid."""


@dataclass(frozen=True)
class RunConfig:
    spec: HamiltonianSpec
    beta: float = 2.0
    cfrac_depth: int = 11
    tol: float = 1e-12


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: too large for a float") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return value


def _tolerance(value, path: str) -> float:
    """A check tolerance: a finite number > 0."""
    value = _as_float(value, path)
    if value <= 0:
        raise ConfigError(f"{path}: must be > 0, got {value}")
    return value


class _JSONObject(dict):
    """A decoded JSON object that remembers the keys it was given more than once."""

    repeated: tuple = ()


def _json_object(pairs: list) -> _JSONObject:
    obj = _JSONObject(pairs)
    if len(obj) < len(pairs):
        obj.repeated = tuple(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
    return obj


def _check_keys(obj: _JSONObject, allowed: frozenset, path: str) -> None:
    if obj.repeated:
        raise ConfigError(f"{path}: duplicate key {obj.repeated[0]!r}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")


def _require(obj: dict, field: str, path: str):
    if field not in obj:
        raise ConfigError(f"{path}: missing field {field!r}")
    return obj[field]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document into a :class:`RunConfig`."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError("nested too deeply") from None
    except ValueError as exc:
        # an integer literal longer than int() converts (sys.get_int_max_str_digits)
        raise ConfigError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(doc, _TOP_KEYS, "top level")
    raw_blocks = _require(doc, "blocks", "top level")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise ConfigError("blocks: expected a nonempty array")
    blocks = []
    for i, raw in enumerate(raw_blocks):
        path = f"blocks[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected an object")
        kind = _require(raw, "kind", path)
        if not isinstance(kind, str) or kind not in _BLOCK_KINDS:
            raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
        cls, names, allowed = _BLOCK_KINDS[kind]
        _check_keys(raw, allowed, path)
        values = [_as_float(_require(raw, f, path), f"{path}.{f}") for f in names]
        try:
            blocks.append(cls(*values))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    beta = _as_float(doc.get("beta", RunConfig.beta), "beta")
    depth = doc.get("cfrac_depth", RunConfig.cfrac_depth)
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise ConfigError(f"cfrac_depth: expected an integer, got {depth!r}")
    if depth < 1:
        raise ConfigError(f"cfrac_depth: must be >= 1, got {depth}")
    if depth > MAX_CFRAC_DEPTH:
        raise ConfigError(f"cfrac_depth: must be <= {MAX_CFRAC_DEPTH}, got {depth}")
    tol = _tolerance(doc.get("tol", RunConfig.tol), "tol")
    return RunConfig(spec=HamiltonianSpec(blocks), beta=beta, cfrac_depth=depth, tol=tol)


def _fmt_complex(z: complex) -> str:
    # builtin-float repr is the shortest decimal that round-trips the double
    return f"({float(z.real)!r},{float(z.imag)!r})"


# An eigenvector entry outside its own block.
_ZERO = _fmt_complex(0j)


def _dump_matrix(out, name: str, m: np.ndarray) -> None:
    print(f"MATRIX {name} {m.shape[0]} {m.shape[1]}", file=out)
    for row in m:
        print("\t".join(_fmt_complex(z) for z in row), file=out)


def _check_line(out, name: str, residual: float, tol: float) -> bool:
    ok = residual < tol
    print(
        f"CHECK {name} residual={residual:.3e} tol={tol:.3e} {'PASS' if ok else 'FAIL'}",
        file=out,
    )
    return ok


def _cmd_build(cfg: RunConfig, args, out) -> int:
    from .model import assemble

    _dump_matrix(out, "H", assemble(cfg.spec))
    return 0


def _cmd_spectrum(cfg: RunConfig, args, out) -> int:
    from .spectra import full_spectrum

    spectra = full_spectrum(cfg.spec)
    n = dimension(cfg.spec)
    print(f"SPECTRUM N {n} BLOCKS {len(spectra)}", file=out)
    places = block_offsets(cfg.spec)
    for i, (bs, block, (start, width)) in enumerate(zip(spectra, cfg.spec.blocks, places)):
        kind = "pt2" if isinstance(block, PTBlock) else "level"
        fields = [f"BLOCK {i} KIND {kind} PHASE {bs.phase.value.upper()}"]
        if kind == "pt2" and bs.phase is Phase.UNBROKEN:
            fields.append(f"PHI {bs.phi!r}")
        fields.append("E " + " ".join(_fmt_complex(v) for v in bs.values))
        print(" ".join(fields), file=out)
        if args.vectors:
            for pair in bs.pairs:
                sign = "+" if pair.sign_index > 0 else "-"
                entries = "\t".join(
                    [_ZERO] * start
                    + [_fmt_complex(z) for z in pair.vector]
                    + [_ZERO] * (n - start - width)
                )
                print(f"VECTOR {i}{sign}\t{entries}", file=out)
    return 0


def _cmd_operators(cfg: RunConfig, args, out) -> int:
    import numpy as np

    from .spectra import full_spectrum
    from .symmetry import build_C, build_P

    which = args.which or "CPT"
    if which != "T":
        # main has refused every block that is not unbroken: T alone needs no C
        spectra = full_spectrum(cfg.spec)
        c = build_C(spectra)
    if "C" in which:
        _dump_matrix(out, "C", c)
    if "P" in which:
        _dump_matrix(out, "P", build_P(spectra, c))
    if "T" in which:
        # T = I K: the identity matrix part of the antilinear map
        print("ANTILINEAR T conjugates=true", file=out)
        _dump_matrix(out, "T", np.eye(dimension(cfg.spec)))
    return 0


def _cmd_verify(cfg: RunConfig, args, out) -> int:
    import numpy as np

    from .ccs import bilinear_gram, completeness, reconstruct
    from .linalg import max_abs
    from .model import assemble
    from .spectra import full_spectrum
    from .symmetry import (
        antilinear_commutator_norm,
        build_C,
        build_P,
        c_expectations,
        commutator_norm,
        verify_cpt,
    )

    tol = cfg.tol
    spec = cfg.spec
    h = assemble(spec)
    spectra = full_spectrum(spec)
    c = build_C(spectra)
    p = build_P(spectra, c)
    n = dimension(spec)
    eye = np.eye(n)
    n_levels = sum(isinstance(b, RealLevel) for b in spec.blocks)
    signs = [pair.sign_index for bs in spectra for pair in bs.pairs]
    expectations = [value for _, value in c_expectations(spectra, c)]

    ok = True
    ok &= _check_line(out, "orthonormality", max_abs(bilinear_gram(spectra) - eye), tol)
    ok &= _check_line(out, "completeness", max_abs(completeness(spectra) - eye), tol)
    ok &= _check_line(out, "reconstruction", max_abs(reconstruct(spectra) - h), tol)
    ok &= _check_line(out, "c_squared", max_abs(c @ c - eye), tol)
    ok &= _check_line(out, "p_squared", max_abs(p @ p - eye), tol)
    ok &= _check_line(out, "commutator_H_C", commutator_norm(h, c), tol)
    ok &= _check_line(out, "pt_antilinear", antilinear_commutator_norm(h, p), tol)
    ok &= _check_line(out, "cpt_identity", verify_cpt(h, c, p), tol)
    c_dev = max(abs(value - sign) for value, sign in zip(expectations, signs))
    ok &= _check_line(out, "c_expectations", c_dev, tol)
    trace_dev = max(abs(np.trace(c) - n_levels), abs(np.trace(p) - n_levels))
    ok &= _check_line(out, "traces", trace_dev, tol)
    return 0 if ok else 1


def _cmd_cfrac(cfg: RunConfig, args, out) -> int:
    from .model import assemble
    from .spectra import full_spectrum
    from .symmetry import build_C, cfrac_F, commutator_norm

    spectra = full_spectrum(cfg.spec)
    h = assemble(cfg.spec)
    c = build_C(spectra)
    f = cfrac_F(c, cfg.beta, cfg.cfrac_depth)
    _dump_matrix(out, "F", f)
    tol = cfg.tol * CFRAC_TOL_FACTOR
    ok = _check_line(out, "commutator_H_F", commutator_norm(h, f), tol)
    ok &= _check_line(out, "commutator_C_F", commutator_norm(c, f), tol)
    return 0 if ok else 1


_COMMANDS = {
    "build": (_cmd_build, "print the assembled Hamiltonian matrix"),
    "spectrum": (_cmd_spectrum, "per-block phase classification and eigenvalues"),
    "operators": (_cmd_operators, "print the C, P and T operators"),
    "verify": (_cmd_verify, "run every symmetry identity as a CHECK line"),
    "cfrac": (_cmd_cfrac, "evaluate the continued-fraction symmetry F"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsym",
        description="Construct and verify block-matrix PT-symmetric systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON config file")
        if name in ("verify", "cfrac"):
            p.add_argument("--tol", type=float, help="override the config's check tolerance")
        elif name == "spectrum":
            p.add_argument("--vectors", action="store_true", help="also print eigenvectors")
        elif name == "operators":
            p.add_argument("--which", choices=["C", "P", "T"], help="print one operator only")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out, err = sys.stdout, sys.stderr

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"ptsym: cannot read config: {exc}", file=err)
        return 2
    except UnicodeDecodeError as exc:
        print(f"ptsym: config error: not UTF-8: {exc}", file=err)
        return 2
    try:
        cfg = parse_config(text)
        if getattr(args, "tol", None) is not None:
            cfg = replace(cfg, tol=_tolerance(args.tol, "--tol"))
    except ConfigError as exc:
        print(f"ptsym: config error: {exc}", file=err)
        return 2

    if args.command in _UNBROKEN_ONLY:
        try:
            for i, phase in enumerate(cfg.spec.phases):
                require_unbroken(i, phase)
        except NotUnbrokenError as exc:
            print(f"ptsym: phase error: {exc}", file=err)
            return 3

    # the config holds: the array layers, numpy with them, load from here on
    from .linalg import SingularMatrixError

    try:
        return _COMMANDS[args.command][0](cfg, args, out)
    except SingularMatrixError as exc:
        print(f"ptsym: {exc}", file=err)
        return 1
    except MemoryError as exc:
        print(f"ptsym: out of memory: {exc}", file=err)
        return 1
