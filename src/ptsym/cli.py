"""Command-line frontend.

    ptsym <build|spectrum|operators|verify|cfrac> <config-path>
          [--tol X] [--vectors] [--which C|P|T]

The config file is JSON with a ``blocks`` array of
``{"kind": "pt2", "r": .., "theta": .., "s": ..}`` (theta in radians) or
``{"kind": "level", "a": ..}`` entries, plus optional ``beta``,
``cfrac_depth`` and ``tol``.

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
from dataclasses import dataclass

import numpy as np

from .ccs import bilinear_gram, completeness, reconstruct
from .linalg import SingularMatrixError, max_abs
from .model import HamiltonianSpec, PTBlock, RealLevel, assemble, dimension
from .spectra import NotUnbrokenError, Phase, full_spectrum
from .symmetry import (
    AntilinearOperator,
    CFracConfig,
    antilinear_commutator_norm,
    build_C,
    build_operators,
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


def _require(obj: dict, field: str, path: str):
    if field not in obj:
        raise ValidationError(f"{path}: missing field {field!r}")
    return obj[field]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document into a :class:`RunConfig`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("top level: expected an object")
    raw_blocks = _require(doc, "blocks", "top level")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise ValidationError("blocks: expected a nonempty array")
    blocks = []
    for i, raw in enumerate(raw_blocks):
        path = f"blocks[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: expected an object")
        kind = _require(raw, "kind", path)
        try:
            if kind == "pt2":
                blocks.append(
                    PTBlock(
                        r=_as_float(_require(raw, "r", path), f"{path}.r"),
                        theta=_as_float(_require(raw, "theta", path), f"{path}.theta"),
                        s=_as_float(_require(raw, "s", path), f"{path}.s"),
                    )
                )
            elif kind == "level":
                blocks.append(RealLevel(a=_as_float(_require(raw, "a", path), f"{path}.a")))
            else:
                raise ValidationError(f"{path}.kind: unknown kind {kind!r}")
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    beta = _as_float(doc.get("beta", 2.0), "beta")
    depth = doc.get("cfrac_depth", 11)
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise ValidationError(f"cfrac_depth: expected an integer, got {depth!r}")
    if depth < 1:
        raise ValidationError(f"cfrac_depth: must be >= 1, got {depth}")
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
    ops = build_operators(cfg.spec, spectra)
    which = args.which or "CPT"
    if "C" in which:
        _dump_matrix(out, "C", ops.C)
    if "P" in which:
        _dump_matrix(out, "P", ops.P)
    if "T" in which:
        print(f"ANTILINEAR T conjugates={str(ops.T.conjugates).lower()}", file=out)
        _dump_matrix(out, "T", ops.T.matrix)
    return 0


def _cmd_verify(cfg: RunConfig, args, out, err) -> int:
    tol = cfg.tol
    spec = cfg.spec
    h = assemble(spec)
    spectra = full_spectrum(spec)
    ops = build_operators(spec, spectra)
    pairs = [p for bs in spectra for p in bs.pairs]
    n = dimension(spec)
    eye = np.eye(n)
    n_levels = sum(isinstance(b, RealLevel) for b in spec.blocks)

    gram = bilinear_gram(spectra)
    expectations = c_expectations(spectra, ops.C)

    ok = True
    ok &= _check_line(out, "orthonormality", max_abs(gram - eye), tol)
    ok &= _check_line(out, "completeness", max_abs(completeness(spectra) - eye), tol)
    ok &= _check_line(out, "reconstruction", max_abs(reconstruct(spectra) - h), tol)
    ok &= _check_line(out, "c_squared", max_abs(ops.C @ ops.C - eye), tol)
    ok &= _check_line(out, "p_squared", max_abs(ops.P @ ops.P - eye), tol)
    ok &= _check_line(out, "commutator_H_C", commutator_norm(h, ops.C), tol)
    ok &= _check_line(
        out,
        "pt_antilinear",
        antilinear_commutator_norm(h, AntilinearOperator(ops.P, True)),
        tol,
    )
    ok &= _check_line(out, "cpt_identity", verify_cpt(h, ops), tol)
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
        max(abs(np.trace(ops.C) - n_levels), abs(np.trace(ops.P) - n_levels)),
        tol,
    )
    return 0 if ok else 1


def _cmd_cfrac(cfg: RunConfig, args, out, err) -> int:
    spectra = full_spectrum(cfg.spec)
    h = assemble(cfg.spec)
    c = build_C(spectra)
    f = cfrac_F(c, CFracConfig(beta=cfg.beta, depth=cfg.cfrac_depth))
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
