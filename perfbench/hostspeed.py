"""A fixed calibration task that tracks how fast the host runs right now.

On the shared 2-vCPU host this benchmark was built on, the same process
drifts in speed by up to ~1.6x, in phases that last from seconds to
minutes. CPU time tracks wall time through those phases, so the cause is
contention for the physical core, not scheduling. Timing this task right
before and after each entry call, and dividing the call's wall time by it,
removes most of that drift. The task mixes the kinds of work the workloads
do: numpy elementwise passes over large and small arrays, interpreter
overhead, and float formatting. Its proportions were chosen so that, across
host-speed phases, call time and task time change by the same factor
(log-log slope 0.96-1.04 on the sweep and frames workloads).
"""

from __future__ import annotations

import time

import numpy as np

# the task's median duration on the reference host (2 vCPU Xeon,
# Python 3.11.7, numpy 2.4.6); scaled times read as seconds on that host
REFERENCE_S = 0.085


class HostProbe:
    def __init__(self):
        self._large = np.linspace(0.0, 1.0, 8192)
        self._small = np.linspace(0.0, 1.0, 256)
        self._floats = [float(v) for v in np.linspace(-1.0, 1.0, 10000) ** 3]

    def run(self) -> float:
        """Seconds the calibration task takes right now."""
        t0 = time.perf_counter()
        for x, passes in ((self._large, 1500), (self._small, 6000)):
            for _ in range(passes):
                x = np.sqrt(x * 1.0000001 + 0.5) - 0.2
        acc = 0
        for i in range(150000):
            acc += i * i % 7
        ",".join(map(repr, self._floats))
        return time.perf_counter() - t0


def scaled(wall_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """Wall time rescaled to the reference host's speed."""
    return wall_s * REFERENCE_S / (0.5 * (probe_before_s + probe_after_s))
