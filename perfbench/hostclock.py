"""Host-speed-normalised time for one workload process.

The benchmark runs on shared virtual CPUs whose speed changes by a third or
more within seconds, and by as much again from one hour to the next, while
the program does the same work (`cpu_s` tracks wall time, so the process is
executing slower, not waiting). Raw seconds therefore measure the host as
much as the program.

A `Sampler` in the workload process runs a fixed probe every INTERVAL_S of
wall time from a SIGALRM handler and records when it ran and how long it
took. The probe mixes a pure-Python loop with small NumPy matrix-vector
products, the two kinds of work the program's per-sample tape spends its
time in. `reference_seconds` converts a wall interval into reference
seconds: each stretch of program time between two probes is scaled by
PROBE_REF_S over the probe time measured around it, and the probes' own
time is left out. On a host where the probe takes PROBE_REF_S, reference
seconds equal wall seconds minus the probe overhead (about 0.5%).

Python runs signal handlers between bytecodes of the main thread, so a
probe never interrupts a NumPy call and shares no state with the program.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.025
# Probe time that defines one reference second (the probe's median on a
# 2-vCPU Xeon VM at 2.1 GHz was 109 us).
PROBE_REF_S = 100e-6

_V = np.linspace(0.0, 1.0, 32)
_M = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)


def probe():
    s = 0
    for i in range(600):
        s += i * i % 7
    v = _V
    for _ in range(20):
        v = np.tanh(_M @ v)
    return s, v


class Sampler:
    """Runs `probe` every INTERVAL_S and keeps (start, end) of every probe."""

    def __init__(self):
        self.ticks = []
        self._busy = False
        self._previous = None

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = time.monotonic()
        probe()
        self.ticks.append((t0, time.monotonic()))
        self._busy = False

    def start(self):
        probe()  # warm: the first call also pays for bytecode and ufunc set-up
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick()


def reference_seconds(ticks, lo, hi):
    """Reference seconds of program time in [lo, hi] (time.monotonic()).

    A stretch between two probes is scaled by the mean of their durations;
    the stretches before the first and after the last probe in the interval
    by that probe's duration. Probe time itself is not counted.
    """
    inside = [(a, b) for a, b in ticks if lo <= a and b <= hi]
    if not inside:
        return None
    total = 0.0
    end, prev_d = lo, None
    for a, b in inside:
        d = b - a
        scale = d if prev_d is None else (d + prev_d) / 2
        total += (a - end) / scale
        end, prev_d = b, d
    total += max(0.0, hi - end) / prev_d
    return total * PROBE_REF_S


def probe_seconds(ticks, lo, hi):
    """Wall time the probes took inside [lo, hi]."""
    return sum(b - a for a, b in ticks if lo <= a and b <= hi)
