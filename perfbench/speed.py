"""Machine-speed probe: rescales measured seconds to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within a minute, in CPU time as much as in wall time, so
raw wall times of the same code spread by 20% to 26% between runs.  To
take that drift out, a small fixed kernel is timed while a measured region
runs: every PERIOD_S seconds of wall time from a SIGALRM handler in the
same thread, and EDGE_SAMPLES times just before and just after the region.
The kernel mixes the work the program's layers spend their time in: a
pure-Python loop, small-array numpy calls and FFTs.

A probe taking p seconds means the machine runs at REF_S / p of the
reference speed.  The region's own time (its wall time minus the probes
that ran inside it) times the mean of REF_S / p over its probes is the
time the region would have taken at the reference speed.  The kernel
never calls ntcircle, so a change to the program moves the rescaled time
as it moves the raw time.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

REF_S = 6.0e-4          # seconds one kernel takes at the reference speed
PERIOD_S = 0.1          # wall seconds between probes inside a region
EDGE_SAMPLES = 5        # probes just before and just after a region

_SMALL = np.linspace(0.0, 1.0, 64)
_SIGNAL = np.random.default_rng(0).standard_normal(4096)


def kernel() -> float:
    """Run the fixed probe kernel once; returns its wall seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    for _ in range(40):
        y = np.array(_SMALL, copy=True)
        np.isfinite(y).all()
        y * 2.0 + 1.0
    for _ in range(4):
        np.fft.irfft(np.fft.rfft(_SIGNAL) * 0.5, n=_SIGNAL.size)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Timing:
    result: object
    wall_s: float       # raw wall time of the region, probes inside it included
    ref_s: float        # the region's own time at the reference speed
    speed: float        # mean of REF_S / probe time: machine speed / reference
    probes: int


def timed(fn: Callable[[], object], tick: bool = True) -> Timing:
    """Run fn() and time it at the reference speed.

    With tick=False no probe runs inside the region, only at its edges: for
    regions that mostly wait on a child process.
    """
    kernel()                                   # warm the kernel's code paths
    samples = [kernel() for _ in range(EDGE_SAMPLES)]
    inside = []
    if tick:
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: inside.append(kernel()))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - t0
        if tick:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
    samples += inside
    samples += [kernel() for _ in range(EDGE_SAMPLES)]
    speed = statistics.fmean(REF_S / p for p in samples)
    return Timing(result, wall, (wall - sum(inside)) * speed, speed, len(samples))
