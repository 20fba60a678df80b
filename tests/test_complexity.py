"""Complexity gate: a command's memory grows no faster than its block count.

The physics is a direct sum, so no command should need more than linear
memory in the number of blocks, except for the text of a matrix dump.  The
measure is ``tracemalloc``'s traced peak of the in-process command, which
sees numpy's buffers and is the same on every host, unlike a timing.  Each
command joins the gate once it is linear; ``spectrum`` (without
``--vectors``, whose rows are N entries long) is the first.
"""

import argparse
import io
import tracemalloc

import numpy as np
import pytest
from support import random_level, random_unbroken_block

from ptsym import HamiltonianSpec
from ptsym.cli import RunConfig, _cmd_spectrum

# 4x the blocks may cost at most this much more memory
MAX_PEAK_GROWTH = 5.0


def traced_peak(command, n_blocks, **options):
    """Traced peak bytes of ``command`` on ``n_blocks`` unbroken blocks plus a
    quarter as many levels."""
    rng = np.random.default_rng(7)
    blocks = [random_unbroken_block(rng) for _ in range(n_blocks)]
    blocks += [random_level(rng) for _ in range(n_blocks // 4)]
    rng.shuffle(blocks)
    cfg = RunConfig(HamiltonianSpec(blocks))
    args = argparse.Namespace(**options)
    tracemalloc.start()
    try:
        command(cfg, args, io.StringIO())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command, options", [(_cmd_spectrum, {"vectors": False})])
def test_peak_memory_grows_linearly(command, options):
    # a first run loads what the command imports, outside the measured runs
    traced_peak(command, 4, **options)
    small = traced_peak(command, 32, **options)
    large = traced_peak(command, 128, **options)
    assert large <= MAX_PEAK_GROWTH * small, (small, large)
