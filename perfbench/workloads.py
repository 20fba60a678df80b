"""Seeded workload generation: config documents, command cycles, expectations.

Every workload is a fixed cycle of *slots*.  A slot fixes the CLI command,
its options, the shape of the config and the expected exit code; the seed
only draws the numbers inside the configs.  Per-command cost therefore
depends on the slot, not on the seed, so medians taken over whole cycles
compare across seeds.

Block parameters are drawn the way ``tests/support.py`` draws them:
unbroken blocks have ``|r sin theta| / s <= 0.95`` and broken blocks
``>= 1.05``.  Exceptional blocks sit well inside the ``1e-9`` relative band
(``|s - |r sin theta|| <= 1e-10 |r sin theta|``), where the correct answer is
the classification plus a double real eigenvalue.  Unbroken blocks just
outside the band are never drawn: their accuracy defect is the test suite's
business, not the benchmark's.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

EP_HALF_WIDTH = 1e-10
UNBROKEN_RATIO_MAX = 0.95
BROKEN_RATIO_MIN = 1.05
DEFAULT_DEPTH = 11
# beta is rejected when any denominator beta + f_k of the scalar recursion at
# lambda = +-1 comes closer to zero than this, so no command meets a pole.
POLE_MARGIN = 0.2


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``ptsym <args[0]> <config> <args[1:]>``."""

    args: tuple[str, ...]
    config_name: str
    text: str  # exact bytes written to the config file
    doc: dict | None  # the document the oracle reads; None when malformed
    expect_exit: int
    blocks: int  # config blocks the command completes (0 for a malformed config)

    def argv(self, config_path: str) -> list[str]:
        return [self.args[0], config_path, *self.args[1:]]


@dataclass(frozen=True)
class Slot:
    args: tuple[str, ...]
    make: Callable[[random.Random], dict | str]
    expect_exit: int


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]
    cycles: int  # cycles of fresh configs written at set-up; the run wraps round
    min_commands: int  # the run goes on past --seconds until this many commands ran


# ------------------------------------------------------------ block draws


def unbroken_block(rng: random.Random) -> dict:
    r = rng.uniform(0.0, 3.0)
    theta = rng.uniform(-math.pi, math.pi)
    s = abs(r * math.sin(theta)) / UNBROKEN_RATIO_MAX + rng.uniform(0.05, 3.0)
    return {"kind": "pt2", "r": r, "theta": theta, "s": s}


def _coupled(rng: random.Random) -> tuple[float, float, float]:
    while True:
        r = rng.uniform(0.5, 3.0)
        theta = rng.uniform(-math.pi, math.pi)
        x = abs(r * math.sin(theta))
        if x > 0.3:
            return r, theta, x


def broken_block(rng: random.Random) -> dict:
    r, theta, x = _coupled(rng)
    s = x / (BROKEN_RATIO_MIN + rng.uniform(0.0, 2.0))
    return {"kind": "pt2", "r": r, "theta": theta, "s": s}


def exceptional_block(rng: random.Random) -> dict:
    r, theta, x = _coupled(rng)
    s = x * (1.0 + rng.uniform(-EP_HALF_WIDTH, EP_HALF_WIDTH))
    return {"kind": "pt2", "r": r, "theta": theta, "s": s}


def level(rng: random.Random) -> dict:
    return {"kind": "level", "a": rng.uniform(-3.0, 3.0)}


def _system(rng: random.Random, counts: dict[Callable, int]) -> list[dict]:
    blocks = [draw(rng) for draw, k in counts.items() for _ in range(k)]
    rng.shuffle(blocks)
    return blocks


def _pole_free(beta: float, depth: int) -> bool:
    for lam in (1.0, -1.0):
        f = lam
        for _ in range(depth):
            if abs(beta + f) < POLE_MARGIN:
                return False
            f = lam / (beta + f)
    return True


def draw_beta(rng: random.Random, depth: int) -> float:
    while True:
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 4.0)
        if _pole_free(beta, depth):
            return beta


# ------------------------------------------------------------ config shapes

DENSE_BLOCKS = 96
DENSE_LEVELS = 32


def dense_unbroken(rng: random.Random) -> dict:
    return {"blocks": _system(rng, {unbroken_block: DENSE_BLOCKS, level: DENSE_LEVELS})}


def dense_cfrac(explicit_depth: bool) -> Callable[[random.Random], dict]:
    def make(rng: random.Random) -> dict:
        doc = dense_unbroken(rng)
        doc["beta"] = draw_beta(rng, DEFAULT_DEPTH)
        if explicit_depth:
            doc["cfrac_depth"] = DEFAULT_DEPTH
        return doc

    return make


def wide_mixed(rng: random.Random) -> dict:
    counts = {unbroken_block: 2200, broken_block: 600, exceptional_block: 200, level: 500}
    return {"blocks": _system(rng, counts)}


def small(n: int, *extra: Callable) -> Callable[[random.Random], dict]:
    """``n`` blocks: the ``extra`` draws plus a random unbroken/level mix.

    The count is fixed per slot, so the blocks a cycle completes do not
    depend on the seed."""

    def make(rng: random.Random) -> dict:
        blocks = [
            rng.choice((unbroken_block, unbroken_block, level))(rng)
            for _ in range(n - len(extra))
        ]
        blocks += [draw(rng) for draw in extra]
        rng.shuffle(blocks)
        return {"blocks": blocks}

    return make


def small_mixed(n: int) -> Callable[[random.Random], dict]:
    draws = (unbroken_block, broken_block, exceptional_block, level)
    return lambda rng: {"blocks": [rng.choice(draws)(rng) for _ in range(n)]}


def small_cfrac(rng: random.Random) -> dict:
    doc = small(3)(rng)
    depth = rng.randint(1, DEFAULT_DEPTH)
    doc["beta"] = draw_beta(rng, depth)
    if depth != DEFAULT_DEPTH or rng.random() < 0.5:
        doc["cfrac_depth"] = depth
    return doc


def truncated_json(rng: random.Random) -> str:
    text = json.dumps(small(2)(rng))
    return text[: rng.randint(1, len(text) - 1)]


def invalid_schema(rng: random.Random) -> dict:
    doc = small(3)(rng)
    bad = rng.choice(
        (
            {"kind": "pt2", "r": 1.0, "theta": 0.5, "s": -rng.uniform(0.0, 2.0)},
            {"kind": "pt2", "r": 1.0, "theta": 0.5},
            {"kind": "quartic", "a": 1.0},
            {"kind": "level", "a": "1.0"},
        )
    )
    doc["blocks"].insert(rng.randint(0, len(doc["blocks"])), bad)
    return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_dense",
            (Slot(("verify",), dense_unbroken, 0),),
            cycles=40,
            # with 16 samples the tail (the 11th slowest) is the 6th fastest,
            # not the 2nd, which one fast spell of the machine can move
            min_commands=16,
        ),
        Workload(
            "cfrac_dump",
            (
                Slot(("cfrac",), dense_cfrac(explicit_depth=False), 0),
                Slot(("cfrac",), dense_cfrac(explicit_depth=True), 0),
                Slot(("operators",), dense_unbroken, 0),
                Slot(("cfrac",), dense_cfrac(explicit_depth=True), 0),
            ),
            cycles=10,
            # with three cfrac per operators, 16 samples keep the median and
            # the tail (the 11th slowest) inside the cfrac mode
            min_commands=16,
        ),
        Workload(
            "small_cli",
            (
                Slot(("build",), small(1), 0),
                Slot(("spectrum",), small_mixed(6), 0),
                Slot(("spectrum", "--vectors"), small_mixed(4), 0),
                Slot(("operators",), small(2), 0),
                Slot(("operators", "--which", "P"), small(5), 0),
                Slot(("verify",), small(3), 0),
                Slot(("verify",), small(4, broken_block), 3),
                Slot(("operators",), small(2, exceptional_block), 3),
                Slot(("cfrac",), small_cfrac, 0),
                Slot(("cfrac",), small(5, broken_block), 3),
                Slot(("verify",), truncated_json, 2),
                Slot(("spectrum",), invalid_schema, 2),
            ),
            cycles=20,
            min_commands=24,
        ),
        Workload(
            "spectrum_wide", (Slot(("spectrum",), wide_mixed, 0),), cycles=24, min_commands=11
        ),
    )
}


def generate(workload: Workload, seed: int) -> list[Command]:
    """The workload's commands in run order; the same seed gives the same bytes."""
    rng = random.Random(f"{workload.name}/{seed}")
    commands = []
    for cycle in range(workload.cycles):
        for k, slot in enumerate(workload.slots):
            made = slot.make(rng)
            doc = made if isinstance(made, dict) else None
            text = json.dumps(made) if doc is not None else made
            blocks = len(doc["blocks"]) if doc is not None and slot.expect_exit != 2 else 0
            name = f"c{cycle:03d}-{k:02d}.json"
            commands.append(Command(slot.args, name, text, doc, slot.expect_exit, blocks))
    return commands
