"""Scale measured times by how fast the machine is while they are taken.

On a shared machine the same work can take twice as long from one minute
to the next, because other tenants load the cores this process runs on.
While a ``Probed`` region runs, a timer signal interrupts it every
``INTERVAL_S`` and runs a small fixed computation, the probe, whose
duration samples the machine's current speed.  The region's own time is
its wall time minus the probes', and its scaled time is that multiplied
by ``REFERENCE_S / mean probe duration``: the time it would have taken
while the probe took ``REFERENCE_S``.

The probe is the benchmark's own code, a small mix of what poselab's hot
paths are made of (Rodrigues rotations, a 68-point projection, 6x6 normal
equations and interpreted arithmetic), so no change to poselab changes it.
It uses no random state and touches no poselab object, so the program's
outputs do not depend on when it runs.
"""

import bisect
import math
import signal
import statistics
import time

import numpy as np
# Bound at import, before any tracer wraps numpy.linalg.solve, so probes
# that run inside a traced solve_pnp are never counted as its work.
from numpy.linalg import solve as _solve

INTERVAL_S = 0.05
# A round figure near the probe's time on the shared 2-vCPU Xeon virtual
# machine the baseline was measured on (0.7 to 1.6 ms).  A constant:
# changing it rescales every reported time.
REFERENCE_S = 0.001

_POINTS = np.random.default_rng(20171002).standard_normal((68, 3))


def probe_s() -> float:
    """Seconds the fixed probe computation takes now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(12):
        theta = 0.01 * i
        k = np.array([[0.0, -theta, 0.1], [theta, 0.0, -0.2], [-0.1, 0.2, 0.0]])
        rot = np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)
        cam = _POINTS @ rot.T + np.array([0.0, 0.0, 5.0])
        uv = np.column_stack([cam[:, 0] / cam[:, 2], cam[:, 1] / cam[:, 2]])
        jac = np.zeros((68, 2, 6))
        jac[:, 0, 0] = uv[:, 0]
        jac[:, 1, 1] = uv[:, 1]
        flat = jac.reshape(136, 6)
        total += float(_solve(flat.T @ flat + np.eye(6), flat.T @ uv.ravel())[0])
    total += sum((i * 7) % 13 for i in range(3000))
    return time.perf_counter() - start


class Probed:
    """Times a region of code and samples the machine's speed inside it.

    Not reentrant: one region at a time, in the main thread.
    """

    def __enter__(self):
        self.probes = []  # (start, end) of each probe inside the region
        self._probe_total = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        # A signal already pending at disarm may run one probe after the end.
        self.probes = [p for p in self.probes if p is not None and p[0] < self.end]
        durations = [end - start for start, end in self.probes]
        # A region shorter than one interval is scaled by a probe just after it.
        self.speed_s = statistics.mean(durations) if durations else probe_s()
        self.own_s = self.end - self.start - sum(durations)
        self._starts = [start for start, _ in self.probes]
        self._cumulative = [0.0]
        for duration in durations:
            self._cumulative.append(self._cumulative[-1] + duration)
        return False

    def _on_alarm(self, signum, frame):
        if self.probes and self.probes[-1] is None:
            return  # a probe slower than the interval: never nest them
        self.probes.append(None)
        start = time.perf_counter()
        probe_s()
        end = time.perf_counter()
        self.probes[-1] = (start, end)
        self._probe_total += end - start

    def own_clock(self) -> float:
        """perf_counter minus the probe time so far: a clock that stops
        while a probe runs."""
        return time.perf_counter() - self._probe_total

    def scale(self, seconds: float) -> float:
        return seconds * REFERENCE_S / self.speed_s

    @property
    def scaled_s(self) -> float:
        """The region's own time, scaled to the reference speed."""
        return self.scale(self.own_s)

    def own_between(self, start: float, end: float) -> float:
        """Seconds from start to end (perf_counter) minus probes inside them."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        return end - start - (self._cumulative[hi] - self._cumulative[lo])
