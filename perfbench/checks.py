"""Output checks of a benchmark run.

Every timed task checks what it produced.  A failed check is counted,
never raised, so a run times the same work whether checks pass or not.

Each failure is also classified.  It is *drift* when its magnitude stays
within DRIFT_RTOL of the data scale: that is the known floating-point
drift of piecewise-linear values at large m, which makes the package's
own 1e-9 membership test reject its own samples.  Any other failure is
*wrong*: a non-member accepted, a failed certificate, an unexpected exit
code, a large error, an exception.  Drift failures count in `failed`;
only wrong ones make a run incorrect.

A check is one *operation*, named by its task's key and its place in
the task.  The timed loop cycles over a fixed pool of tasks, so a run
repeats the same operations a number of times that depends on the
host's speed.  `attempted` and `failed` count distinct operations,
which makes them the same on every run of a seed that covers its pool.
An operation fails if any of its repeats fails.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

# Drift measured at m = 10^4 stays below 3e-7 of the data scale; a real
# error (a kink on the wrong side of the chord, a dropped block) is O(1).
DRIFT_RTOL = 1e-6


class Checks:
    def __init__(self) -> None:
        self.runs = 0  # checks made, repeats included
        self.outcomes: dict[tuple, tuple[str, bool, bool]] = {}  # op -> (name, ok, drift)
        self._task = None
        self._next = 0

    def begin(self, key) -> None:
        """Start the checks of the task with this key."""
        self._task, self._next = key, 0

    def record(self, name: str, ok: bool, drift: bool = False) -> None:
        """Count one check; ``drift`` says whether a failure is only drift."""
        self.runs += 1
        op = (self._task, self._next)
        self._next += 1
        prev = self.outcomes.get(op)
        if not ok:
            only_drift = prev is None or prev[1] or prev[2]
            self.outcomes[op] = (name, False, drift and only_drift)
        elif prev is None:
            self.outcomes[op] = (name, True, False)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def _failed(self, drift_only: bool) -> Counter[str]:
        return Counter(name for name, ok, drift in self.outcomes.values()
                       if not ok and (drift or not drift_only))

    @property
    def n_failed(self) -> int:
        return sum(self._failed(False).values())

    @property
    def n_wrong(self) -> int:
        return self.n_failed - sum(self._failed(True).values())

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.n_failed,
            "failed_by_check": dict(sorted(self._failed(False).items())),
            "drift_by_check": dict(sorted(self._failed(True).items())),
            "wrong": self.n_wrong,
            "checks_run": self.runs,
        }


def within_drift(magnitudes: Iterable[float], scale: float) -> bool:
    """True when every violation magnitude is drift-sized for data of this scale."""
    return all(mag <= DRIFT_RTOL * scale for mag in magnitudes)


def rel_close(values: Iterable[float], rtol: float) -> bool:
    vals = list(values)
    return max(vals) - min(vals) <= rtol * max(abs(v) for v in vals)
