"""Spans around ptsym's public functions, recorded from outside the library.

A :class:`Tracer` wraps each function in :data:`TRACED` and, while active,
rebinds every module-level name that refers to it, in the module that
defines it and in each module that imported it (``ptsym.cli.ccs_inner``,
``ptsym.symmetry.mat_inverse``, ...), so calls made inside the library nest.
Each span is ``(name, start, end, parent index, command id)``.  Spans stay in
memory until the run ends; :func:`summarise` reduces them to per-command
figures and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "model", "spectra", "ccs", "symmetry", "linalg")
TRACED = {
    "cli": ("main", "parse_config"),
    "model": ("assemble",),
    "spectra": ("full_spectrum", "classify"),
    "ccs": ("ccs_inner", "completeness", "reconstruct"),
    "symmetry": (
        "build_C",
        "build_P",
        "verify_cpt",
        "commutator_norm",
        "antilinear_commutator_norm",
        "c_expectations",
        "cfrac_F",
    ),
    "linalg": ("mat_inverse", "max_abs", "frob_norm", "direct_sum"),
}
# Exceptions counted once each, at the innermost span they leave.
ERRORS = {
    "NotUnbrokenError": "spectra.not_unbroken.errors",
    "SingularMatrixError": "linalg.singular.errors",
}


# Counts computed from a call's arguments or result, not measured.
COMPUTED = {
    # the dense N x N complex128 Hamiltonian
    "model.assemble": lambda args, result: {"model.dense_bytes": result.nbytes},
    # eigenvectors zero-padded to length N
    "spectra.full_spectrum": lambda args, result: {
        "spectra.eigvec_bytes": sum(p.vector.nbytes for bs in result for p in bs.pairs)
    },
    # Gauss-Jordan on [A | I]: n pivot columns, each a rank-1 update of an
    # n x 2n complex block, 8 real flops per complex multiply-add
    "linalg.mat_inverse": lambda args, result: {
        "linalg.mat_inverse.flops": 16 * len(args[0]) ** 3
    },
}


class Tracer:
    """Context manager that installs the wrappers; spans accumulate across uses."""

    def __init__(self, modules: dict):
        """``modules`` maps each layer name to its imported ptsym module."""
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.command = 0
        self._stack: list[int] = []
        self._counted_errors: set[int] = set()
        wrappers = {}
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrappers[id(original)] = self._wrap(f"{layer}.{name}", original)
        self._patches = [
            (module, attr, value, wrappers[id(value)])
            for module in {id(m): m for m in modules.values()}.values()
            for attr, value in vars(module).items()
            if id(value) in wrappers
        ]

    def _wrap(self, qualname: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        computed = COMPUTED.get(qualname)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (qualname, start, end, parent, self.command)
            if computed is not None:
                counts.update(computed(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_error(self, exc: Exception) -> None:
        key = ERRORS.get(type(exc).__name__)
        if key is not None and id(exc) not in self._counted_errors:
            self._counted_errors.add(id(exc))
            self.counts[key] += 1

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self._counted_errors.clear()
        return False

    def dump(self, path: Path) -> None:
        """Write every span as ``command name start end parent`` (TSV, gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tcommand\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent, command) in enumerate(self.spans):
                out.write(f"{i}\t{command}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def summarise(spans: list[tuple]) -> dict[str, float]:
    """Totals over all spans: inclusive seconds and calls per function, and
    self seconds per function and per layer (duration minus child spans)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, parent, _), inner in zip(spans, child):
        duration = end - start
        out[f"{name}.s"] += duration
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += duration - inner
        out[f"{name.split('.')[0]}.self_s"] += duration - inner
    return out
