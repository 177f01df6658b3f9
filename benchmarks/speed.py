"""The machine's speed, sampled all through a run.

The shared machine the benchmark runs on changes speed by 20 % and more,
over seconds and over minutes, while a process stays on the CPU. A
SpeedProbe runs a fixed sub-millisecond probe from a timer signal every
25 ms of wall time, so its samples are spread evenly over the run, and the
run scales its time metrics by REFERENCE_SECONDS over the probe's mean
time: they read as seconds on a machine where the probe takes
REFERENCE_SECONDS.

The probe is interpreter-bound work of the kind the program does: small
numpy products and an integer loop. It imports nothing from bmtas, so no
change to the program changes it, and it allocates a few small arrays, so
it does not move the peak resident memory the benchmark reports. Its time
is taken out of every operation and set-up it interrupts.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the probe's mean time on the machine of the figures in README.md
REFERENCE_SECONDS = 0.0004
INTERVAL_SECONDS = 0.025

_W = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def probe() -> float:
    """Run the probe once and return its wall time in seconds."""
    start = time.perf_counter()
    x = np.ones(8)
    for _ in range(30):
        x = np.tanh(_W @ x) + 0.1 * x
    acc = 0
    for i in range(3000):
        acc = (acc + i * 7) % 1000003
    return time.perf_counter() - start


class SpeedProbe:
    """Samples probe() on SIGALRM between start() and stop()."""

    def __init__(self):
        self.samples: list[float] = []
        self.total = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        seconds = probe()
        self.samples.append(seconds)
        self.total += seconds

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_SECONDS, INTERVAL_SECONDS)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_SECONDS / statistics.fmean(self.samples)
