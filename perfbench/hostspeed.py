"""Host speed, measured by a fixed piece of work timed between tasks.

On a shared virtual machine with 2 vCPUs (Intel Xeon, 2.1 GHz), the
same code ran up to 1.5 times slower for seconds to minutes at a time,
as other tenants loaded the physical cores.  Two sets of ten runs of
one commit had medians 20 to 35 % apart in wall time.  A run therefore times a
calibration between its tasks, and scales its times to the speed at
which the calibration takes REFERENCE_MS.  The calibration calls
nothing of the ridgeless package, so a change to the package cannot
move it.  Each scaled metric keeps its wall value beside it in the
report.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_MS = 10.0  # calibration time at the reference speed
EVERY_S = 0.5  # least wall time between calibrations in a timed loop
_SORT_N = 100_000


def calibration_ms() -> float:
    """Wall time of fixed work of the kinds the workloads do.

    Interpreted Python building small tuples and tiny numpy arrays, as
    in small_batch, and a large sort in native code, as in the LP solve.
    """
    start = time.perf_counter()
    total = 0.0
    pairs = []
    for i in range(12_000):
        pairs.append((i, math.sqrt(i)))
        total += pairs[-1][1]
    for _ in range(400):
        total += float(np.diff(np.arange(12.0)).cumsum()[-1])
    for _ in range(4):
        values = (np.arange(_SORT_N) * 7919 % _SORT_N).astype(float)
        values.sort()
    return (time.perf_counter() - start) * 1e3


class HostSpeed:
    """Calibration samples of one stretch of a run."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._last = -math.inf

    def sample(self) -> int:
        """Time the calibration once; returns the index of the sample."""
        self.samples_ms.append(calibration_ms())
        self._last = time.perf_counter()
        return len(self.samples_ms) - 1

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    @property
    def slowdown(self) -> float:
        """Mean calibration time over the reference: 1.2 means 20 % slower."""
        return statistics.fmean(self.samples_ms) / REFERENCE_MS

    def slowdown_after(self, k: int) -> float:
        """Slowdown of the stretch between sample k and the next one.

        The host's speed drifts within a run, so a task is scaled by the
        calibrations around it rather than by the run's mean.
        """
        return statistics.fmean(self.samples_ms[k:k + 2]) / REFERENCE_MS

    def summary(self) -> dict:
        return {"slowdown": self.slowdown, "samples": len(self.samples_ms),
                "calibration_ms_min": min(self.samples_ms),
                "calibration_ms_max": max(self.samples_ms)}
