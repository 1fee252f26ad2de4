"""A fixed reference loop that tells how fast the CPU runs at this moment.

On the 2-CPU Linux virtual machine this benchmark was built on, the loop
below takes 1.4 ms in some stretches and 2.3-2.5 ms in others, switching
within seconds (the host's other load and clock), so raw times from one run
to the next spread by 25-35 %.  The runner pins the benchmark's processes to one CPU, runs
this loop just before and after every timed operation and set-up launch, and
reports each time as ``measured * NOMINAL_S / reference``: the time the
operation would take when the reference loop takes NOMINAL_S; an operation
longer than SAMPLE_EVERY_S is also sampled while it runs.  The raw wall
times are kept in the report.  No code of the package runs in the loop, so a
change to the package cannot move the reference.
"""

import signal
import time

import numpy as np

NOMINAL_S = 0.0015  # the loop's time in that machine's faster stretches
SAMPLE_EVERY_S = 0.25


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i
    a = np.arange(64.0)
    for _ in range(200):
        a = np.where(np.abs(a) < 1e-300, 1.0, a) * 1.0000001
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median of three loops, so one interrupted loop does not count."""
    return sorted(_loop() for _ in range(3))[1]


class SpeedSampler:
    """While active, runs the loop every SAMPLE_EVERY_S of wall time from a
    SIGALRM handler, so that a long operation is scaled by the speed the CPU
    had while it ran.  ``spent`` is the time the samples took; the caller
    takes it out of the operation's latency.  Use it only around work done in
    this process: a child process on the same CPU would compete with it."""

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        t = _loop()
        self.samples.append(t)
        self.spent += t


def pin_to_one_cpu() -> int:
    """Keep this process and every child on one CPU, so the reference loop
    measures the CPU the timed work runs on."""
    import os

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
