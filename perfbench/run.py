#!/usr/bin/env python3
"""ptsym benchmark: seeded closed-loop CLI workloads with output oracles.

    python3 perfbench/run.py --workload verify_dense --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  Every command runs the CLI of that
tree's ``src/`` (``python -m ptsym ...`` with ``PYTHONPATH=src``) as a child
process, one at a time: the next command starts only after the previous one
exited.  Each command reads a config file the benchmark generated from
``--seed``; every output is checked against :mod:`oracle` after the timed loop.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead times
interpreter and import start-up, then calls ``ptsym.cli.main`` in-process on
the same configs, alternately plain and with :mod:`tracer`'s spans, and
prints the per-layer metrics.  Lines starting with ``#`` carry context (the
environment, the tail percentile, failures); the last line is the result as
one JSON object.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# BLAS runs on one thread, in this process and in every child.  With a pool
# as wide as a small shared machine, the pool's threads contend with each
# other and with the host's other tenants, and a run measures the scheduler
# (on a 2-vCPU VM, the spread of verify_dense over 10 s windows fell from 0.19
# to 0.06 of its median).  The values found are kept for the record.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FOUND_THREADS = {var: os.environ.get(var) for var in THREAD_VARS}
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402  (after the thread variables are set)

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Command, Workload, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # at least; short set-ups repeat until SETUP_MIN_S passed
SETUP_MIN_S = 3.0
STARTUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
SELF_SUM_TOLERANCE = 0.10


@dataclass
class Outcome:
    command: Command
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def note(text: str) -> None:
    print(f"# {text}", flush=True)


# ------------------------------------------------------------ environment


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_found": FOUND_THREADS,
        "threads_used": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ------------------------------------------------------------ child commands


def run_child(
    argv: list[str], env: dict, err_path: Path, command: Command | None = None
) -> Outcome:
    """Spawn one child, read its stdout to EOF and reap it with wait4."""
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode()
    return Outcome(
        command,
        proc.returncode,
        out.decode(),
        stderr,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )


def run_cli(command: Command, work: Path, env: dict) -> Outcome:
    argv = ["-m", "ptsym", *command.argv(str(work / command.config_name))]
    return run_child(argv, env, work / "stderr.txt", command)


def closed_loop(
    workload: Workload, commands: list[Command], seconds: float, min_commands: int, run_one
) -> tuple[list, float]:
    """Run whole cycles until ``seconds`` passed and ``min_commands`` ran."""
    cycle = len(workload.slots)
    results = []
    start = time.perf_counter()
    while True:
        for command in commands[len(results) % len(commands) :][:cycle]:
            results.append(run_one(command))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(results) >= min_commands:
            return results, elapsed


def digest(commands: list[Command]) -> str:
    return hashlib.sha256(b"".join(c.text.encode() for c in commands)).hexdigest()


def set_up(
    workload: Workload, seed: int, work: Path, env: dict
) -> tuple[float, list[Command], Outcome]:
    """Generate and write the configs, then run the first command once, untimed."""
    start = time.perf_counter()
    commands = generate(workload, seed)
    for command in commands:
        (work / command.config_name).write_bytes(command.text.encode())
    warm = run_cli(commands[0], work, env)
    return time.perf_counter() - start, commands, warm


# ------------------------------------------------------------ checking


def judge(outcomes: list[Outcome]) -> list[str | None]:
    verdicts = [oracle.check(o.command, o.code, o.stdout, o.stderr) for o in outcomes]
    for o, verdict in zip(outcomes, verdicts):
        if verdict is not None:
            note(f"WRONG {' '.join(o.command.args)} {o.command.config_name}: {verdict}")
    return verdicts


def corruption_caught(outcomes: list[Outcome], verdicts: list[str | None]) -> bool:
    """Flip one sign in a correct output: the oracle must count it as failed."""
    for o, verdict in zip(outcomes, verdicts):
        if verdict is None and o.stdout:
            bad = oracle.check(o.command, o.code, oracle.corrupt(o.stdout), o.stderr)
            failed = sum(v is not None for v in verdicts) + (bad is not None)
            note(f"self-test: one flipped sign in {o.command.args[0]} output gives "
                 f"fail_frac={failed / (len(verdicts) + 1):.4g} ({bad})")
            return bad is not None
    note("self-test: no correct output to corrupt")
    return False


def tail(values: list[float]) -> tuple[float, float]:
    """Value with exactly TAIL_BEYOND samples above it, and its percentile."""
    n = len(values)
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ------------------------------------------------------------ the two modes


# correct, attempted, failed, {metric: (value, unit)}
Measured = tuple[bool, int, int, dict]


def end_to_end(workload: Workload, seed: int, seconds: float, work: Path) -> Measured:
    env = child_env()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(s for s, *_ in setups) < SETUP_MIN_S:
        setups.append(set_up(workload, seed, work, env))
    commands = setups[0][1]
    deterministic = len({digest(c) for _, c, _ in setups}) == 1
    note(f"self-test: {len(setups)} generations from one seed byte-identical: {deterministic}")
    warm_ok = all(v is None for v in judge([warm for *_, warm in setups]))

    outcomes, elapsed = closed_loop(
        workload, commands, seconds, workload.min_commands, lambda c: run_cli(c, work, env)
    )
    verdicts = judge(outcomes)
    caught = corruption_caught(outcomes, verdicts)
    failed = sum(v is not None for v in verdicts)
    walls = [o.wall_s for o in outcomes]
    tail_s, pct = tail(walls)
    fail_frac = failed / len(outcomes)
    note(f"cmd_s.tail is p{pct:.1f} of {len(walls)} commands; fail_frac={fail_frac:.4g}")
    done_blocks = sum(o.command.blocks for o, v in zip(outcomes, verdicts) if v is None)
    # Peak over slots of each slot's median, so it does not grow with the
    # number of commands that fit in the run.
    cycle = len(workload.slots)
    peak_rss = max(statistics.median(o.rss_mb for o in outcomes[k::cycle]) for k in range(cycle))
    metrics = {
        "setup_s": (statistics.median(s for s, *_ in setups), "s"),
        "cmd_s.p50": (statistics.median(walls), "s"),
        "cmd_s.tail": (tail_s, "s"),
        "cmd_cpu_s.p50": (statistics.median(o.cpu_s for o in outcomes), "s"),
        "blocks_per_s": (done_blocks / elapsed, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "ok_frac": (1.0 - fail_frac, "1"),
    }
    correct = failed == 0 and deterministic and warm_ok and caught
    return correct, len(outcomes), failed, metrics


def import_ptsym() -> dict:
    sys.path.insert(0, str(SRC))
    modules = {layer: importlib.import_module(f"ptsym.{layer}") for layer in tracer.LAYERS}
    where = Path(modules["cli"].__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"imported ptsym from {where}, not from {SRC}")
    return modules


class ByteSink(io.TextIOBase):
    """Text stream that counts the UTF-8 bytes written and keeps the text."""

    def __init__(self):
        self.parts: list[str] = []
        self.bytes = 0

    def write(self, text: str) -> int:
        self.parts.append(text)
        self.bytes += len(text.encode())
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.parts)


def in_process(cli, command: Command, work: Path) -> tuple[Outcome, int]:
    """Call ``cli.main`` as it is bound now, so a :class:`tracer.Tracer` sees it."""
    out, err = ByteSink(), ByteSink()
    argv = command.argv(str(work / command.config_name))
    gc.collect()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a wrong answer, not a benchmark crash
            code = -1
            err.write(f"uncaught {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    return Outcome(command, code, out.getvalue(), err.getvalue(), wall), out.bytes


def per_layer(workload: Workload, seed: int, seconds: float, work: Path) -> Measured:
    env = child_env()
    _, commands, warm = set_up(workload, seed, work, env)
    deterministic = digest(generate(workload, seed)) == digest(commands)
    note(f"self-test: 2 generations from one seed byte-identical: {deterministic}")

    interp, imports = [], []
    for _ in range(STARTUP_REPEATS):
        interp.append(run_child(["-c", "pass"], env, work / "stderr.txt").wall_s)
        imports.append(run_child(["-c", "import ptsym"], env, work / "stderr.txt").wall_s)

    modules = import_ptsym()
    cli = modules["cli"]
    in_process(cli, commands[0], work)  # warm caches before timing
    trace = tracer.Tracer(modules)
    plain, traced, out_bytes = [], [], []

    def both(command: Command) -> None:
        plain.append(in_process(cli, command, work)[0])
        with trace:
            outcome, written = in_process(cli, command, work)
        trace.command += 1
        traced.append(outcome)
        out_bytes.append(written)

    closed_loop(workload, commands, seconds, 1, both)
    outcomes = [warm, *plain, *traced]
    verdicts = judge(outcomes)
    caught = corruption_caught(outcomes, verdicts)
    failed = sum(v is not None for v in verdicts)

    n = len(traced)
    totals = tracer.summarise(trace.spans)
    traced_s = sum(o.wall_s for o in traced)
    plain_s = sum(o.wall_s for o in plain)
    self_sum = sum(totals[f"{layer}.self_s"] for layer in tracer.LAYERS)
    self_ok = abs(self_sum / traced_s - 1.0) <= SELF_SUM_TOLERANCE
    note(f"self-test: layer self times sum to {self_sum / traced_s:.4f} of traced command time")
    trace.dump(HERE / "_out" / f"{workload.name}.spans.tsv.gz")

    def each(key: str, source=totals) -> float:
        return source.get(key, 0) / n

    counts = trace.counts

    metrics = {
        "startup.interp_s": (statistics.median(interp), "s"),
        "startup.import_s": (statistics.median(imports), "s"),
        "cli.main.self_s": (each("cli.main.self_s"), "s"),
        "cli.stdout_bytes": (sum(out_bytes) / n, "B"),
        "cli.parse_config.s": (each("cli.parse_config.s"), "s"),
        "model.assemble.s": (each("model.assemble.s"), "s"),
        "model.dense_bytes": (each("model.dense_bytes", counts), "B_computed"),
        "spectra.full_spectrum.s": (each("spectra.full_spectrum.s"), "s"),
        "spectra.classify.calls": (each("spectra.classify.calls"), "count"),
        "spectra.eigvec_bytes": (each("spectra.eigvec_bytes", counts), "B_computed"),
        "spectra.not_unbroken.errors": (each("spectra.not_unbroken.errors", counts), "count"),
        "ccs.ccs_inner.calls": (each("ccs.ccs_inner.calls"), "count"),
        "ccs.ccs_inner.s": (each("ccs.ccs_inner.s"), "s"),
        "ccs.completeness.s": (each("ccs.completeness.s"), "s"),
        "ccs.reconstruct.s": (each("ccs.reconstruct.s"), "s"),
        "symmetry.build_C.s": (each("symmetry.build_C.s"), "s"),
        "symmetry.build_P.s": (each("symmetry.build_P.s"), "s"),
        "symmetry.verify_cpt.s": (each("symmetry.verify_cpt.s"), "s"),
        # the CLI never nests one commutator inside the other
        "symmetry.commutator.s": (
            each("symmetry.commutator_norm.s") + each("symmetry.antilinear_commutator_norm.s"),
            "s",
        ),
        "symmetry.c_expectations.s": (each("symmetry.c_expectations.s"), "s"),
        "symmetry.cfrac_F.s": (each("symmetry.cfrac_F.s"), "s"),
        "linalg.mat_inverse.calls": (each("linalg.mat_inverse.calls"), "count"),
        "linalg.mat_inverse.s": (each("linalg.mat_inverse.s"), "s"),
        "linalg.mat_inverse.flops": (each("linalg.mat_inverse.flops", counts), "flop_computed"),
        "linalg.singular.errors": (each("linalg.singular.errors", counts), "count"),
        **{f"{layer}.self_s": (each(f"{layer}.self_s"), "s") for layer in tracer.LAYERS},
        "trace.cmd_s": (plain_s / n, "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "1"),
    }
    correct = failed == 0 and deterministic and caught and self_ok
    return correct, len(outcomes), failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ptsym" / "__init__.py").is_file():
        print(f"perfbench: no ptsym sources under {SRC}", file=sys.stderr)
        return 2

    note("env " + json.dumps(environment(args.seed)))
    workload = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
