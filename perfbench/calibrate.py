"""Machine-speed calibration: op times in reference seconds.

On a shared virtual machine the CPU time of the same op drifts by tens of
percent within minutes, because other guests slow the host.  To take that
drift out, a ``SliceClock`` runs a fixed calibration slice (``kernel``: small
integers, a dict, Fractions and big integers, the kind of work extparab does)
every ``INTERVAL_S`` seconds of wall clock, from a SIGALRM handler, while the
ops run.  The slices sample the machine's speed all through each op, and
their own CPU time is taken out of the op's.  An op's time in reference
seconds is its CPU time scaled to a machine on which one slice takes
``REFERENCE_SLICE_S``:

    ref_s = own_cpu_s * REFERENCE_SLICE_S / (mean CPU time of the op's slices)

The kernel is part of the benchmark and does not call extparab, so a change
to the program moves ``ref_s`` and a change in the host's speed does not.
ITIMER_REAL is used rather than ITIMER_PROF: arming a CPU-time timer makes
Linux read the process CPU clock at tick resolution.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from fractions import Fraction

INTERVAL_S = 0.1
REFERENCE_SLICE_S = 0.010
_MODULUS = 5**420


def kernel() -> tuple:
    """One calibration slice: 8 to 11 ms of CPU on a 2.1 GHz Xeon, by the host's load."""
    total, table = 0, {}
    for i in range(17000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        total += (i * 3 - 7) * (key & 15)
    frac = Fraction(0)
    for i in range(1, 660):
        frac += Fraction(i, i + 7)
    big = 3**300
    for i in range(2300):
        big = (big * 7 + i) % _MODULUS
    return total, frac, big


@dataclass(frozen=True)
class Stamp:
    cpu_s: float
    slice_cpu_s: float
    slices: int


class SliceClock:
    """Runs ``kernel`` every ``interval`` seconds of wall clock while entered."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.slice_cpu_s = 0.0
        self.slices = 0
        self._previous = None
        self._in_slice = False

    def run_slice(self, *_signal_args) -> None:
        if self._in_slice:  # a tick that falls inside a slice is dropped
            return
        self._in_slice = True
        try:
            start = time.process_time()
            kernel()
            self.slice_cpu_s += time.process_time() - start
            self.slices += 1
        finally:
            self._in_slice = False

    def stamp(self) -> Stamp:
        """Process CPU time and slice totals, read with no slice in between."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return Stamp(time.process_time(), self.slice_cpu_s, self.slices)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self) -> SliceClock:
        self._previous = signal.signal(signal.SIGALRM, self.run_slice)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def own_cpu_s(begin: Stamp, end: Stamp) -> float:
    """CPU time between two stamps, less the slices run in between."""
    return (end.cpu_s - begin.cpu_s) - (end.slice_cpu_s - begin.slice_cpu_s)


def mean_slice_s(begin: Stamp, end: Stamp) -> float:
    """Mean CPU time of the slices run between two stamps (at least one)."""
    return (end.slice_cpu_s - begin.slice_cpu_s) / (end.slices - begin.slices)


def reference_s(cpu_s: float, slice_s: float) -> float:
    """CPU seconds scaled to a machine on which one slice takes REFERENCE_SLICE_S."""
    return cpu_s * REFERENCE_SLICE_S / slice_s
