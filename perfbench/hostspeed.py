"""Host-speed probe: how fast this host runs plain Python while hdx works.

The benchmark host is shared: the same pass can take half as long again a
minute later, with CPU time equal to wall time, so the slowdown is the host's,
not scheduling. `HostSpeed` samples it during the timed calls. Every
`INTERVAL_S` of real time a SIGALRM handler runs `burst()`, a fixed piece of
pure-Python work (fractions, tuples, a dict), and records how long it took.
The samples are uniform in time, so their mean is the time-weighted slowness
of the host over the calls, and

    wall at reference speed = wall * REFERENCE_BURST_S / mean burst time

is the time the calls would take on a host where one burst takes
`REFERENCE_BURST_S` (about what it takes here on a quiet host). The burst
time is removed from the call it interrupted. Set-up time is scaled the same
way by bursts run right after set-up.
The handler runs between bytecodes, so a long native call (numpy) delays a
sample but does not lose the time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_BURST_S = 1.5e-3


def burst():
    acc, seen = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7, 13)
        key = tuple(sorted((i % 5, i % 3, i % 11)))
        seen[key] = seen.get(key, 0) + 1
    return acc


def timed_burst():
    t0 = time.perf_counter()
    burst()
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager that samples `burst()` every INTERVAL_S seconds."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in samples so far

    def _sample(self, signum, frame):
        took = timed_burst()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
