"""Host speed reference for the untraced runs.

The benchmark shares a few cores of a host whose speed drifts: interpreter-
bound work on the same input takes up to 1.7 times as long for seconds to
minutes at a time (see BASELINE.md).  A fixed reference loop, which calls
nothing in pccss, is timed between the workload's timed sections, and a
time is reported at the reference speed:

    seconds at reference speed = measured seconds * REF_S / median reference time

where the median is over the reference samples taken from just before to
just after the timed work.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference time on a 2-vCPU host (Python 3.11.7, numpy 2.4.6) in one
# of its faster periods.  It only sets the scale: any fixed value would do.
REF_S = 0.015

_TABLE = [(i * 2654435761) % 1000003 for i in range(1 << 17)]
_INDEX = [(i * 40503) % (1 << 17) for i in range(25000)]
_ROWS = np.arange(64 * 1024, dtype=np.uint8).reshape(64, 1024) % 3 == 0


def _interp() -> None:
    s = 0
    for i in range(45000):
        s = (s + (i & 7)) ^ (i >> 3)


def _memory() -> None:
    table, s = _TABLE, 0
    for j in _INDEX:
        s += table[j]


def _numpy() -> None:
    rows = _ROWS
    for i in range(1500):
        a = rows[i & 63]
        np.flatnonzero(a ^ rows[(i + 1) & 63]).size


def reference() -> None:
    """Integer arithmetic, scattered list reads and small-array numpy calls:
    the kinds of work in the Monte Carlo, certify and set-up timings."""
    _interp()
    _memory()
    _numpy()


class HostSpeed:
    """Reference times, in the order they were sampled."""

    def __init__(self):
        self.refs: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference()
        self.refs.append(time.perf_counter() - t0)

    def scale(self, first: int = 0) -> float:
        """Factor that takes seconds measured while samples first.. were
        taken to reference speed."""
        return REF_S / statistics.median(self.refs[first:])
