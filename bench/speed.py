"""Host speed, from fixed reference kernels timed between the program's calls.

The host's cores are shared, and their speed for this process drifts by
10-80% over seconds to hours, as neighbours come and go.  CPU time leaves
out the time a call waits for a core but not this drift.  So the benchmark
runs a kernel that never touches the program between the calls it times,
and scales each call's CPU time by the kernel's nominal time over its time
measured next to the call.  A scaled time is the time the call would take
on a host where the kernel takes its nominal time; a change to the program
does not change the kernel, so scaled times of two commits compare like raw
ones.

Interpreted and vectorized code do not slow down alike: on a busy host the
pure-Python kernel has been seen to slow by 80% while a numpy one slowed by
20%, and the other way round.  So there are two kernels, and each workload
is scaled by the one whose slowdowns its own calls follow most closely, as
measured on the 2-core host the benchmark was written on:

* ``interpreted`` -- pure-Python 4x4 complex products, as in ``CMatrix``
  and the decision layers; for ``classify``, which runs only such code,
  and for the import of ``setup_s``;
* ``mixed``       -- the same, then numpy nearest-point distances between a
  128-point and a 2048-point set, the memory-bound work of the hull
  comparison; for ``audit`` and ``verify``, whose calls spend their time in
  both kinds of code.  Scaling by either part alone left their per-call
  times less steady.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Program CPU time between two kernel samples; one kernel run per EVERY_NS.
EVERY_NS = 50e6

_A = [[complex(0.3 * (i + 1), 0.2 * (j - 2)) for j in range(4)] for i in range(4)]
_FAR = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False))
_NEAR = 1.01 * _FAR[::16]


def _interpreted():
    b = _A
    for _ in range(200):
        b = [[sum(_A[i][k] * b[k][j] for k in range(4)) * 0.25 for j in range(4)]
             for i in range(4)]
    return b


def _mixed():
    return _interpreted(), [np.abs(_NEAR[:, None] - _FAR[None, :]).min(axis=1).max()
                            for _ in range(3)]


# name -> (kernel, its nominal CPU time per run in ns).  The nominal time is a
# fixed constant that only sets the unit of scaled times: they read as
# seconds on a host where the kernel runs that fast, not as seconds on the
# host that measured them.
KERNELS = {
    "interpreted": (_interpreted, 3.5e6),
    "mixed": (_mixed, 7.5e6),
}


def sample(kernel: str, runs: int = 1) -> float:
    """Median CPU time of ``runs`` runs of ``kernel``, in ns."""
    fn = KERNELS[kernel][0]
    times = []
    for _ in range(runs):
        c0 = time.process_time_ns()
        fn()
        times.append(time.process_time_ns() - c0)
    return statistics.median(times)


def scale(kernel: str, *samples: float) -> float:
    """Factor to the nominal speed, from samples taken around a call."""
    return KERNELS[kernel][1] / statistics.mean(samples)


class Tracker:
    """Kernel samples between calls; ``scaled`` applies them to the calls.

    A sample is taken before the first call and after every call by which
    ``EVERY_NS`` or more of call CPU time has gathered since the last one,
    with one kernel run per ``EVERY_NS``, so that the kernel takes the same
    small share of every stretch of the run.  A call is scaled by the mean of
    the samples on either side of it."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.samples = [sample(kernel, 3)]
        self.before: list[int] = []
        self._pending = 0

    def after_call(self, cpu_ns: int) -> None:
        self.before.append(len(self.samples) - 1)
        self._pending += cpu_ns
        if self._pending >= EVERY_NS:
            self.samples.append(sample(self.kernel, int(self._pending // EVERY_NS)))
            self._pending = 0

    def close(self) -> None:
        if self._pending or len(self.samples) == 1:
            self.samples.append(sample(self.kernel, max(int(self._pending // EVERY_NS), 1)))
            self._pending = 0

    def scaled(self, durations) -> list[float]:
        """``durations`` of the tracked calls, scaled to the nominal speed."""
        return [d * scale(self.kernel, self.samples[j], self.samples[j + 1])
                for d, j in zip(durations, self.before)]
