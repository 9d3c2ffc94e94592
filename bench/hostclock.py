"""Host-speed calibration for timing on a shared machine.

On the shared 2-vCPU host the bounds were set on, identical work ran up to
1.8x slower in one run than in another a few minutes later, and drifted by
half as much within a 20-s run. :func:`calibrate` times a fixed numpy kernel
shaped like the solver's hot path. :class:`HostClock` samples it on a timer
while the workload runs, so that every duration can be rescaled to a
reference speed: ``value * CAL_REF_S / median(samples)``. The kernel is the
benchmark's own code, so a change to the program moves the rescaled figures
as it moves wallclock.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: reference kernel time: a typical value on the host the bounds were set on
CAL_REF_S = 0.001
#: seconds between samples while a HostClock runs
INTERVAL_S = 0.05
#: samples this close to an interval rescale it (host speed drifts within a run)
PAD_S = 1.0


def calibrate(reps: int = 1) -> float:
    """Median seconds of a fixed kernel: element-wise ufuncs, where, stack
    and argmax on 4 x 64 arrays, as in one per-SC inner maximization."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = np.linspace(0.5, 2.0, 256).reshape(4, 64)
        for _ in range(15):
            y = np.sqrt(x * 1.0001 + 0.5)
            z = np.where(y > 1.2, np.log2(y), -y)
            s = np.stack([y, z, x])
            k = np.argmax(s, axis=0)
            x = np.clip(np.abs(z) + 0.5, 0.5, 2.0) + 1e-3 * np.take_along_axis(s, k[None], 0)[0]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Samples :func:`calibrate` every INTERVAL_S on SIGALRM inside a
    ``with`` block. ``spent`` is the time the samples took; callers subtract
    it from the durations they measure."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time taken, seconds)
        self.spent = 0.0
        self.tracer = None  # when set, sample intervals go to tracer.excluded

    def __enter__(self):
        self.samples.append((time.perf_counter(), calibrate()))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, calibrate()))
        t1 = time.perf_counter()
        self.spent += t1 - t0
        if self.tracer is not None:
            self.tracer.excluded.append((t0, t1))

    def median_s(self) -> float:
        return statistics.median(s for _, s in self.samples)

    def scale(self, t0: float | None = None, t1: float | None = None) -> float:
        """Factor that rescales a duration measured over [t0, t1] to the
        reference speed, from the samples within PAD_S of it (at least ten,
        the nearest ones), or from all samples of the run."""
        near = [s for t, s in self.samples if t0 is None or t0 - PAD_S <= t <= t1 + PAD_S]
        if len(near) < 10:
            mid = 0.5 * (t0 + t1)
            near = [s for _, s in sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:10]]
        return CAL_REF_S / statistics.median(near)
