"""The machine's current speed, from a fixed pure-Python loop.

On a machine shared with other tenants the CPU speed available to one
process drifts: the same loop has been seen to take from 0.67 to 1.41
times its median time within four minutes, in phases of 10-60 s.  A wall
time measured next to a calibration is scaled to the speed at which the
loop takes ``REFERENCE_BLOCK_S`` per block, so that runs made in a slow
phase and in a fast phase give comparable figures.

This module imports nothing heavy: the set-up probes import it before
they time ``import hgtensor.cli``.
"""

from __future__ import annotations

from time import perf_counter

# Seconds per block on the machine the reference figures were taken on
# (median of 122 calibrations on a 2-vCPU Intel Xeon VM at 2.1 GHz).
REFERENCE_BLOCK_S = 1.8e-3


def block_seconds(duration: float) -> float:
    """Mean seconds per block of a fixed loop, run for about ``duration``."""
    blocks, acc, start = 0, 0, perf_counter()
    while True:
        for i in range(20_000):
            acc += i * i % 7
        blocks += 1
        elapsed = perf_counter() - start
        if elapsed >= duration:
            return elapsed / blocks


def at_reference(seconds: float, block: float) -> float:
    """A wall time scaled to reference speed, given the block time
    measured around it."""
    return seconds * REFERENCE_BLOCK_S / block
