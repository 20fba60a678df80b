"""Command-line frontend.

    ptsym <build|spectrum|operators|verify|cfrac> <config-path>
          [--tol X] [--vectors] [--which C|P|T]

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

Exit codes: 0 all checks pass, 1 any FAIL (or a continued-fraction pole),
2 config error, 3 phase error (operators/verify/cfrac on a system with a
non-unbroken block; diagnostics on stderr name the block).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ccs import bilinear_gram, completeness, reconstruct
from .linalg import SingularMatrixError, max_abs
from .model import HamiltonianSpec, PTBlock, RealLevel, assemble, dimension
from .spectra import NotUnbrokenError, Phase, full_spectrum
from .symmetry import (
    antilinear_commutator_norm,
    build_C,
    build_P,
    c_expectations,
    cfrac_F,
    commutator_norm,
    verify_cpt,
)

__all__ = ["RunConfig", "ParseError", "ValidationError", "parse_config", "main"]

DEFAULT_TOL = 1e-12
# The continued-fraction identities hold to a looser bound than the
# closed-form ones (nested inversions accumulate error), so the cfrac
# command checks against tol scaled by this factor.
CFRAC_TOL_FACTOR = 100.0
# cfrac runs `cfrac_depth` N x N inversions, so the depth is bounded.
MAX_CFRAC_DEPTH = 1000
# The keys each config object may hold.
_TOP_KEYS = frozenset({"blocks", "beta", "cfrac_depth", "tol"})
_BLOCK_KEYS = {
    "pt2": frozenset({"kind", "r", "theta", "s"}),
    "level": frozenset({"kind", "a"}),
}


class ParseError(Exception):
    """Config document is not well-formed."""


class ValidationError(Exception):
    """Config document is well-formed but violates the schema."""


@dataclass(frozen=True)
class RunConfig:
    spec: HamiltonianSpec
    beta: float = 2.0
    cfrac_depth: int = 11
    tol: float = DEFAULT_TOL


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValidationError(f"{path}: too large for a float") from None
    if not math.isfinite(value):
        raise ValidationError(f"{path}: must be finite, got {value!r}")
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
        raise ValidationError(f"{path}: duplicate key {obj.repeated[0]!r}")
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown key {key!r}")


def _require(obj: dict, field: str, path: str):
    if field not in obj:
        raise ValidationError(f"{path}: missing field {field!r}")
    return obj[field]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document into a :class:`RunConfig`."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("nested too deeply") from None
    except ValueError as exc:
        # an integer literal longer than int() converts (sys.get_int_max_str_digits)
        raise ParseError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ValidationError("top level: expected an object")
    _check_keys(doc, _TOP_KEYS, "top level")
    raw_blocks = _require(doc, "blocks", "top level")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise ValidationError("blocks: expected a nonempty array")
    blocks = []
    for i, raw in enumerate(raw_blocks):
        path = f"blocks[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: expected an object")
        kind = _require(raw, "kind", path)
        if not isinstance(kind, str) or kind not in _BLOCK_KEYS:
            raise ValidationError(f"{path}.kind: unknown kind {kind!r}")
        _check_keys(raw, _BLOCK_KEYS[kind], path)
        try:
            if kind == "pt2":
                blocks.append(
                    PTBlock(
                        r=_as_float(_require(raw, "r", path), f"{path}.r"),
                        theta=_as_float(_require(raw, "theta", path), f"{path}.theta"),
                        s=_as_float(_require(raw, "s", path), f"{path}.s"),
                    )
                )
            else:
                blocks.append(RealLevel(a=_as_float(_require(raw, "a", path), f"{path}.a")))
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    beta = _as_float(doc.get("beta", 2.0), "beta")
    depth = doc.get("cfrac_depth", 11)
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise ValidationError(f"cfrac_depth: expected an integer, got {depth!r}")
    if depth < 1:
        raise ValidationError(f"cfrac_depth: must be >= 1, got {depth}")
    if depth > MAX_CFRAC_DEPTH:
        raise ValidationError(f"cfrac_depth: must be <= {MAX_CFRAC_DEPTH}, got {depth}")
    tol = _as_float(doc.get("tol", DEFAULT_TOL), "tol")
    if tol <= 0:
        raise ValidationError(f"tol: must be > 0, got {tol}")
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


def _cmd_build(cfg: RunConfig, args, out, err) -> int:
    _dump_matrix(out, "H", assemble(cfg.spec))
    return 0


def _cmd_spectrum(cfg: RunConfig, args, out, err) -> int:
    spectra = full_spectrum(cfg.spec, allow_broken=True)
    n = dimension(cfg.spec)
    print(f"SPECTRUM N {n} BLOCKS {len(spectra)}", file=out)
    for bs, block in zip(spectra, cfg.spec.blocks):
        kind = "pt2" if isinstance(block, PTBlock) else "level"
        fields = [f"BLOCK {bs.block_id} KIND {kind} PHASE {bs.phase.value.upper()}"]
        if kind == "pt2" and bs.phase is Phase.UNBROKEN:
            fields.append(f"PHI {bs.phi!r}")
        fields.append("E " + " ".join(_fmt_complex(v) for v in bs.values))
        print(" ".join(fields), file=out)
        if args.vectors:
            for pair in bs.pairs:
                sign = "+" if pair.sign_index > 0 else "-"
                after = n - pair.offset - pair.vector.shape[0]
                entries = "\t".join(
                    [_ZERO] * pair.offset
                    + [_fmt_complex(z) for z in pair.vector]
                    + [_ZERO] * after
                )
                print(f"VECTOR {bs.block_id}{sign}\t{entries}", file=out)
    return 0


def _cmd_operators(cfg: RunConfig, args, out, err) -> int:
    spectra = full_spectrum(cfg.spec)
    c = build_C(spectra)
    p = build_P(spectra, c)
    which = args.which or "CPT"
    if "C" in which:
        _dump_matrix(out, "C", c)
    if "P" in which:
        _dump_matrix(out, "P", p)
    if "T" in which:
        # T = I K: the identity matrix part of the antilinear map
        print("ANTILINEAR T conjugates=true", file=out)
        _dump_matrix(out, "T", np.eye(dimension(cfg.spec)))
    return 0


def _cmd_verify(cfg: RunConfig, args, out, err) -> int:
    tol = cfg.tol
    spec = cfg.spec
    h = assemble(spec)
    spectra = full_spectrum(spec)
    c = build_C(spectra)
    p = build_P(spectra, c)
    pairs = [pair for bs in spectra for pair in bs.pairs]
    n = dimension(spec)
    eye = np.eye(n)
    n_levels = sum(isinstance(b, RealLevel) for b in spec.blocks)

    gram = bilinear_gram(spectra)
    expectations = c_expectations(spectra, c)

    ok = True
    ok &= _check_line(out, "orthonormality", max_abs(gram - eye), tol)
    ok &= _check_line(out, "completeness", max_abs(completeness(spectra) - eye), tol)
    ok &= _check_line(out, "reconstruction", max_abs(reconstruct(spectra) - h), tol)
    ok &= _check_line(out, "c_squared", max_abs(c @ c - eye), tol)
    ok &= _check_line(out, "p_squared", max_abs(p @ p - eye), tol)
    ok &= _check_line(out, "commutator_H_C", commutator_norm(h, c), tol)
    ok &= _check_line(out, "pt_antilinear", antilinear_commutator_norm(h, p), tol)
    ok &= _check_line(out, "cpt_identity", verify_cpt(h, c, p), tol)
    ok &= _check_line(
        out,
        "c_expectations",
        max(
            abs(value - pair.sign_index)
            for (_, value), pair in zip(expectations, pairs)
        ),
        tol,
    )
    ok &= _check_line(
        out,
        "traces",
        max(abs(np.trace(c) - n_levels), abs(np.trace(p) - n_levels)),
        tol,
    )
    return 0 if ok else 1


def _cmd_cfrac(cfg: RunConfig, args, out, err) -> int:
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
    "build": _cmd_build,
    "spectrum": _cmd_spectrum,
    "operators": _cmd_operators,
    "verify": _cmd_verify,
    "cfrac": _cmd_cfrac,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsym",
        description="Construct and verify block-matrix PT-symmetric systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "build": "print the assembled Hamiltonian matrix",
        "spectrum": "per-block phase classification and eigenvalues",
        "operators": "print the C, P and T operators",
        "verify": "run every symmetry identity as a CHECK line",
        "cfrac": "evaluate the continued-fraction symmetry F",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--tol", type=float, default=None, help="override check tolerance")
        if name == "spectrum":
            p.add_argument("--vectors", action="store_true", help="also print eigenvectors")
        if name == "operators":
            p.add_argument(
                "--which", choices=["C", "P", "T"], default=None, help="print one operator only"
            )
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
    except (ParseError, ValidationError) as exc:
        print(f"ptsym: config error: {exc}", file=err)
        return 2
    if args.tol is not None:
        if not math.isfinite(args.tol) or args.tol <= 0:
            print(
                f"ptsym: config error: --tol must be finite and > 0, got {args.tol}",
                file=err,
            )
            return 2
        cfg = RunConfig(spec=cfg.spec, beta=cfg.beta, cfrac_depth=cfg.cfrac_depth, tol=args.tol)

    try:
        return _COMMANDS[args.command](cfg, args, out, err)
    except NotUnbrokenError as exc:
        print(f"ptsym: phase error: {exc}", file=err)
        return 3
    except SingularMatrixError as exc:
        print(f"ptsym: {exc}", file=err)
        return 1
