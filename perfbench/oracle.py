"""Output oracles computed from the block parameters alone.

Nothing here imports ``ptsym``.  Every expected value comes from the closed
forms in the README, written again from scratch:

* eigenvalues ``r cos(theta) +- s cos(phi)`` with ``sin(phi) = r sin(theta)/s``
  (unbroken), ``r cos(theta) +- i sqrt(x^2 - s^2)`` with ``x = r sin(theta)``
  (broken), and a double ``r cos(theta)`` inside the exceptional band;
* C per block ``[[i tan(phi), sec(phi)], [sec(phi), -i tan(phi)]]``, +1 per level;
* P the block exchange, T the identity with conjugation;
* F = ((f+ + f-)/2) I + ((f+ - f-)/2) C from the scalar recursion at +-1;
* the ten ``CHECK ... PASS`` lines of ``verify``, the two of ``cfrac``, and
  the exit code and stderr diagnosis of phase and config errors.

:func:`check` returns ``None`` for a correct output, or the reason it is wrong.
"""

from __future__ import annotations

import math
import re

import numpy as np

from workloads import DEFAULT_DEPTH, Command

EXCEPTIONAL_BAND = 1e-9
TOL = 1e-12  # the CLI's default tolerance, applied to every closed form
CFRAC_TOL = 1e-10  # the CLI's own bound for the nested-inversion F
VERIFY_CHECKS = (
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
)
CFRAC_CHECKS = ("commutator_H_F", "commutator_C_F")
_CHECK_RE = re.compile(r"CHECK (\w+) residual=(\S+) tol=(\S+) (PASS|FAIL)")
_NUMBERS = str.maketrans("(),\t", "    ")


class Wrong(Exception):
    """The output disagrees with the oracle."""


# ------------------------------------------------------------ closed forms


def phase(block: dict) -> str:
    if block["kind"] == "level":
        return "UNBROKEN"
    x = abs(block["r"] * math.sin(block["theta"]))
    s = block["s"]
    if abs(s - x) <= EXCEPTIONAL_BAND * max(s, x):
        return "EXCEPTIONAL"
    return "UNBROKEN" if x < s else "BROKEN"


def eigenvalues(block: dict) -> list[complex]:
    if block["kind"] == "level":
        return [complex(block["a"])]
    r, theta, s = block["r"], block["theta"], block["s"]
    base = r * math.cos(theta)
    x = r * math.sin(theta)
    kind = phase(block)
    if kind == "UNBROKEN":
        split = math.sqrt((s - x) * (s + x))  # s cos(phi)
        return [complex(base + split), complex(base - split)]
    if kind == "BROKEN":
        width = math.sqrt((x - s) * (x + s))
        return [complex(base, width), complex(base, -width)]
    return [complex(base), complex(base)]


def _sec_tan(block: dict) -> tuple[float, float]:
    rho = block["r"] * math.sin(block["theta"]) / block["s"]
    sec = 1.0 / math.sqrt((1.0 - rho) * (1.0 + rho))
    return sec, rho * sec


def widths(doc: dict) -> list[int]:
    return [2 if b["kind"] == "pt2" else 1 for b in doc["blocks"]]


def _blockwise(doc: dict, pt2, lev) -> np.ndarray:
    n = sum(widths(doc))
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for block in doc["blocks"]:
        if block["kind"] == "level":
            out[at, at] = lev(block)
            at += 1
        else:
            out[at : at + 2, at : at + 2] = pt2(block)
            at += 2
    return out


def matrix_H(doc: dict) -> np.ndarray:
    def pt2(b):
        z = complex(b["r"] * math.cos(b["theta"]), b["r"] * math.sin(b["theta"]))
        return [[z, b["s"]], [b["s"], z.conjugate()]]

    return _blockwise(doc, pt2, lambda b: b["a"])


def matrix_C(doc: dict) -> np.ndarray:
    def pt2(b):
        sec, tan = _sec_tan(b)
        return [[1j * tan, sec], [sec, -1j * tan]]

    return _blockwise(doc, pt2, lambda b: 1.0)


def matrix_P(doc: dict) -> np.ndarray:
    return _blockwise(doc, lambda b: [[0.0, 1.0], [1.0, 0.0]], lambda b: 1.0)


def scalar_cfrac(lam: float, beta: float, depth: int) -> float:
    f = lam
    for _ in range(depth):
        f = lam / (beta + f)
    return f


def matrix_F(doc: dict) -> np.ndarray:
    beta = doc.get("beta", 2.0)
    depth = doc.get("cfrac_depth", DEFAULT_DEPTH)
    fp, fm = scalar_cfrac(1.0, beta, depth), scalar_cfrac(-1.0, beta, depth)
    n = sum(widths(doc))
    return 0.5 * (fp + fm) * np.eye(n) + 0.5 * (fp - fm) * matrix_C(doc)


def vectors(doc: dict) -> list[tuple[str, np.ndarray]]:
    """Embedded eigenvectors in output order, labelled ``<block><sign>``."""
    n = sum(widths(doc))
    out = []
    at = 0
    for i, block in enumerate(doc["blocks"]):
        if block["kind"] == "level":
            v = np.zeros(n, dtype=np.complex128)
            v[at] = 1.0
            out.append((f"{i}+", v))
        elif phase(block) == "UNBROKEN":
            phi = math.asin(block["r"] * math.sin(block["theta"]) / block["s"])
            norm = 1.0 / math.sqrt(2.0 * math.cos(phi))
            h = complex(math.cos(phi / 2), math.sin(phi / 2))
            for label, pair in ((f"{i}+", (h, h.conjugate())), (f"{i}-", (h.conjugate(), -h))):
                v = np.zeros(n, dtype=np.complex128)
                v[at : at + 2] = [norm * pair[0], norm * pair[1]]
                out.append((label, v))
        at += 1 if block["kind"] == "level" else 2
    return out


# ------------------------------------------------------------ output parsing


def _complexes(text: str) -> np.ndarray:
    values = np.array(text.translate(_NUMBERS).split(), dtype=float)
    if values.size % 2:
        raise Wrong(f"odd number of reals in {text[:60]!r}")
    return values[0::2] + 1j * values[1::2]


def _close(got: np.ndarray, want: np.ndarray, tol: float, what: str) -> None:
    if got.shape != want.shape:
        raise Wrong(f"{what}: shape {got.shape}, expected {want.shape}")
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= tol * scale:
        raise Wrong(f"{what}: max error {err:.3e} > {tol:.0e} x {scale:.3g}")


class _Lines:
    def __init__(self, stdout: str):
        self.lines = stdout.split("\n")
        if self.lines[-1] != "":
            raise Wrong("stdout does not end with a newline")
        self.lines.pop()
        self.at = 0

    def next(self) -> str:
        if self.at >= len(self.lines):
            raise Wrong("stdout ends early")
        self.at += 1
        return self.lines[self.at - 1]

    def matrix(self, name: str, want: np.ndarray, tol: float) -> None:
        header = f"MATRIX {name} {want.shape[0]} {want.shape[1]}"
        if (line := self.next()) != header:
            raise Wrong(f"expected {header!r}, got {line[:60]!r}")
        rows = self.lines[self.at : self.at + want.shape[0]]
        self.at += want.shape[0]
        if len(rows) != want.shape[0] or any(r.count("\t") != want.shape[1] - 1 for r in rows):
            raise Wrong(f"matrix {name}: malformed rows")
        _close(_complexes("\t".join(rows)).reshape(want.shape), want, tol, f"matrix {name}")

    def checks(self, names: tuple[str, ...], tol: float) -> None:
        for name in names:
            line = self.next()
            m = _CHECK_RE.fullmatch(line)
            if not m or m[1] != name or m[4] != "PASS":
                raise Wrong(f"expected CHECK {name} ... PASS, got {line!r}")
            if float(m[3]) != tol or not float(m[2]) < tol:
                raise Wrong(f"check {name}: residual or tol off in {line!r}")

    def end(self) -> None:
        if self.at != len(self.lines):
            raise Wrong(f"unexpected extra output: {self.lines[self.at][:60]!r}")


def _spectrum(doc: dict, lines: _Lines, with_vectors: bool) -> None:
    blocks = doc["blocks"]
    want = f"SPECTRUM N {sum(widths(doc))} BLOCKS {len(blocks)}"
    if (line := lines.next()) != want:
        raise Wrong(f"expected {want!r}, got {line[:60]!r}")
    expected_vectors = dict(vectors(doc)) if with_vectors else {}
    for i, block in enumerate(blocks):
        head, sep, values = lines.next().partition(" E ")
        kind = phase(block)
        tokens = head.split()
        if not sep or tokens[:6] != ["BLOCK", str(i), "KIND", block["kind"], "PHASE", kind]:
            raise Wrong(f"block {i}: expected {block['kind']} {kind}, got {head[:80]!r}")
        scale = max(1.0, *(abs(v) for k, v in block.items() if k != "kind" and k != "theta"))
        if block["kind"] == "pt2" and kind == "UNBROKEN":
            phi = math.asin(block["r"] * math.sin(block["theta"]) / block["s"])
            if len(tokens) != 8 or tokens[6] != "PHI" or not abs(float(tokens[7]) - phi) <= TOL:
                raise Wrong(f"block {i}: phase angle off in {head!r}")
        elif len(tokens) != 6:
            raise Wrong(f"block {i}: unexpected fields in {head!r}")
        _close(_complexes(values), np.array(eigenvalues(block)), TOL * scale, f"block {i} E")
        for sign in "+-" if with_vectors else "":
            label = f"{i}{sign}"
            if label not in expected_vectors:
                continue
            tag, _, entries = lines.next().partition("\t")
            if tag != f"VECTOR {label}":
                raise Wrong(f"expected VECTOR {label}, got {tag[:40]!r}")
            _close(_complexes(entries), expected_vectors[label], TOL, f"vector {label}")


def _first_not_unbroken(doc: dict) -> tuple[int, str] | None:
    for i, block in enumerate(doc["blocks"]):
        if (kind := phase(block)) != "UNBROKEN":
            return i, kind.lower()
    return None


def check(command: Command, code: int, stdout: str, stderr: str) -> str | None:
    """None when exit code, stdout and stderr agree with the oracle."""
    try:
        _check(command, code, stdout, stderr)
    except Wrong as exc:
        return str(exc)
    except ValueError as exc:  # unparsable numbers in the output
        return f"unparsable output: {exc}"
    return None


def _check(command: Command, code: int, stdout: str, stderr: str) -> None:
    if code != command.expect_exit:
        raise Wrong(f"exit {code}, expected {command.expect_exit}: {stderr.strip()[:120]!r}")
    doc = command.doc
    if command.expect_exit == 2:
        if stdout or not stderr.startswith("ptsym: config error: "):
            raise Wrong(f"config error not reported: {stderr[:120]!r}")
        return
    if command.expect_exit == 3:
        if (first := _first_not_unbroken(doc)) is None:
            raise Wrong("config has no block outside the unbroken phase")
        i, kind = first
        if stdout or not stderr.startswith(f"ptsym: phase error: block {i} is {kind};"):
            raise Wrong(f"phase error should name block {i} ({kind}): {stderr[:120]!r}")
        return
    if stderr:
        raise Wrong(f"unexpected stderr {stderr[:120]!r}")
    lines = _Lines(stdout)
    name, options = command.args[0], command.args[1:]
    if name == "build":
        lines.matrix("H", matrix_H(doc), TOL)
    elif name == "spectrum":
        _spectrum(doc, lines, "--vectors" in options)
    elif name == "operators":
        which = options[-1] if "--which" in options else "CPT"
        n = sum(widths(doc))
        if "C" in which:
            lines.matrix("C", matrix_C(doc), TOL)
        if "P" in which:
            lines.matrix("P", matrix_P(doc), TOL)
        if "T" in which:
            if (line := lines.next()) != "ANTILINEAR T conjugates=true":
                raise Wrong(f"T must conjugate, got {line!r}")
            lines.matrix("T", np.eye(n, dtype=np.complex128), TOL)
    elif name == "verify":
        lines.checks(VERIFY_CHECKS, TOL)
    elif name == "cfrac":
        lines.matrix("F", matrix_F(doc), CFRAC_TOL)
        lines.checks(CFRAC_CHECKS, CFRAC_TOL)
    else:
        raise Wrong(f"no oracle for command {name!r}")
    lines.end()


_FIRST_REAL = re.compile(r"\((-?)([0-9][^,]*),")


def corrupt(stdout: str) -> str:
    """Flip one sign in the output: the first nonzero real part, else a PASS."""
    for m in _FIRST_REAL.finditer(stdout):
        if float(m[2]) != 0.0:
            flipped = "(" + ("" if m[1] else "-") + m[2] + ","
            return stdout[: m.start()] + flipped + stdout[m.end() :]
    return stdout.replace(" PASS", " FAIL", 1)
