"""Calibrated time for a shared, noisy host.

On a virtual machine whose cores are shared with other tenants the same
Python code can run 1.8x slower from one second to the next, in wall and in
CPU time alike.  To keep run-to-run spread small, every timed call is
rescaled by how fast the machine ran a fixed calibration kernel around and
during that call:

    calibrated = measured * REFERENCE / (kernel time measured meanwhile)

A SIGALRM timer runs the kernel every ``INTERVAL`` seconds of wall time while
a call is being timed; the kernel's own time is subtracted from the call's.
The kernel is also run just before and just after each call, so short calls
get two samples.  The kernel mixes plain integer arithmetic with Fraction
arithmetic, the two kinds of work the library does.  Its Fractions die as
soon as they are made, so it adds nothing to the garbage collector's
allocation count.

The reported seconds are therefore seconds on a machine on which the kernel
takes REFERENCE_WALL (wall) and REFERENCE_CPU (process CPU) seconds: the
host measured uncontended when the benchmark was defined.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from math import gcd
from time import perf_counter, process_time

INTERVAL = 0.01
REFERENCE_WALL = 0.00025
REFERENCE_CPU = 0.00025


def kernel():
    x, acc = 12345, 0
    for i in range(1, 300):
        x = (x * 48271) % 2147483647
        acc += gcd(x, i) + (x >> 7) % 97
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i % 7 - 3, i % 5 + 1)
    return acc, s


class Timing:
    __slots__ = ("wall", "cpu", "raw_wall", "raw_cpu")

    def __init__(self, wall, cpu, raw_wall, raw_cpu):
        self.wall, self.cpu = wall, cpu
        self.raw_wall, self.raw_cpu = raw_wall, raw_cpu


class CalibratedClock:
    """Times calls and rescales them by the kernel's speed meanwhile.

    With ``sampling=False`` only the samples just before and after each call
    are taken, so that nothing runs inside the timed call (the traced passes
    use this, to keep the kernel out of their spans).
    """

    def __init__(self, sampling=True):
        self.sampling = sampling
        self._walls = []
        self._cpus = []
        self._spent_wall = 0.0
        self._spent_cpu = 0.0
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        w0, c0 = perf_counter(), process_time()
        kernel()
        c1, w1 = process_time(), perf_counter()
        self._walls.append(w1 - w0)
        self._cpus.append(c1 - c0)
        self._spent_wall += w1 - w0
        self._spent_cpu += c1 - c0
        self._busy = False

    def time(self, fn):
        """Call fn(); return (its result or None, its exception or None,
        Timing)."""
        self._walls.clear()
        self._cpus.clear()
        self._sample()
        spent_wall, spent_cpu = self._spent_wall, self._spent_cpu
        previous = None
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        result = error = None
        w0, c0 = perf_counter(), process_time()
        try:
            result = fn()
        except Exception as exc:  # reported by the caller as a failed case
            error = exc
        finally:
            c1, w1 = process_time(), perf_counter()
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        raw_wall = w1 - w0 - (self._spent_wall - spent_wall)
        raw_cpu = c1 - c0 - (self._spent_cpu - spent_cpu)
        self._sample()
        walls, cpus = self._walls, self._cpus
        speed_wall = REFERENCE_WALL * len(walls) / sum(walls)
        speed_cpu = REFERENCE_CPU * len(cpus) / sum(cpus)
        return result, error, Timing(raw_wall * speed_wall,
                                     raw_cpu * speed_cpu, raw_wall, raw_cpu)
