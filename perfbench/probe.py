"""A sampling probe of the CPU's speed, to take the machine's slow spells out of wall times.

On a shared host the speed of one vCPU swings by up to 2x over seconds to
minutes (see README.md, *Noise*), and the share of a run spent slow differs
from run to run. A mean of raw wall times inherits that share.

While the workload runs, a SIGALRM handler runs a fixed kernel every
INTERVAL_S of wall time, in the thread that runs the workload. The kernel
does the same kind of work as the program's control step: the forward
kinematics of a 7-joint chain, in small numpy arrays driven from an
interpreted loop. It runs twice, and only the second, warm run is timed,
so that its time follows the core's speed and not what the program left
in the caches. A sample's *speed* is FAST_KERNEL_S divided by that time.
An interval's *quiet time* is its wall time, less the probe's own time,
times the mean speed of the samples inside it: the time the interval
would have taken on a core that ran the kernel in FAST_KERNEL_S
throughout.
"""
from __future__ import annotations

import array
import signal
import time

import numpy as np

INTERVAL_S = 0.04  # wall time between samples: about 1 % overhead
# The warm kernel's time on a quiet core of the machine the benchmark was
# defined on (2nd percentile of its samples, Intel Xeon at 2.1 GHz). It sets
# the unit of quiet time only: every run of every commit uses the same value.
FAST_KERNEL_S = 180e-6


class SpeedProbe:
    """Samples the kernel's time while active (`with SpeedProbe() as probe:`)."""

    def __init__(self):
        self._angles = np.linspace(0.1, 0.7, 7)
        self._z = np.array([0.0, 0.0, 1.0])
        self.starts = array.array("d")  # when each sample began
        self.spent = array.array("d")  # the handler's whole time
        self.kernel = array.array("d")  # the timed, warm kernel run
        self._busy = False
        self._previous = None

    def _kernel(self) -> list:
        t = np.eye(4)
        origins = []
        for q in self._angles:
            c, s = np.cos(q), np.sin(q)
            joint = np.array([[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0],
                              [0.0, 0.0, 1.0, 0.1], [0.0, 0.0, 0.0, 1.0]])
            t = t @ joint
            origins.append(t[:3, 3].copy())
        return [np.cross(self._z, p) for p in origins]

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is skipped
            return
        self._busy = True
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self._kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.spent.append(t2 - t0)
        self.kernel.append(t2 - t1)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def interval(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, quiet) time of the perf_counter interval [t0, t1).

        raw is the wall time less the probe's own time in the interval. An
        interval without samples has quiet == raw.
        """
        starts = np.frombuffer(self.starts)
        inside = (starts >= t0) & (starts < t1)
        raw = (t1 - t0) - float(np.frombuffer(self.spent)[inside].sum())
        if not inside.any():
            return raw, raw
        speed = FAST_KERNEL_S / np.frombuffer(self.kernel)[inside]
        return raw, raw * float(np.mean(speed))
