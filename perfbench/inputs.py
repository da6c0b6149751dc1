"""Seeded inputs for the benchmark workloads.

The dataset recipe follows the test suite's random datasets (start x
U(-2, 2), gaps U(0.2, 1.5), start y U(-1, 1), chord slopes U(-3, 3)),
but it lives here so that a change to the tests cannot shift the
benchmark's inputs.  The package only ever sees the generated points
and the files written from them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream...) pair."""
    return np.random.default_rng([seed % 2**64, *stream])


def random_points(rng: np.random.Generator, m: int) -> list[tuple[float, float]]:
    gaps = rng.uniform(0.2, 1.5, size=m - 1)
    xs = np.concatenate([[rng.uniform(-2.0, 2.0)], gaps]).cumsum()
    slopes = rng.uniform(-3.0, 3.0, size=m - 1)
    ys = np.concatenate([[rng.uniform(-1.0, 1.0)], slopes * gaps]).cumsum()
    return list(zip(xs.tolist(), ys.tolist()))


def stratified_sizes(rng: np.random.Generator, sizes: list[int], n: int) -> list[int]:
    """n sizes where every run of len(sizes) consecutive entries holds each size once.

    A timed run covers a prefix of the task list, so stratifying keeps
    the mix of sizes in that prefix the same for every seed.
    """
    out: list[int] = []
    while len(out) < n:
        out.extend(int(v) for v in rng.permutation(sizes))
    return out[:n]


def value_scale(points: list[tuple[float, float]]) -> float:
    """max(1, |y|, |chord slope|): the scale that drift magnitudes are judged by."""
    xs, ys = np.array(points).T
    return float(max(1.0, np.abs(ys).max(), np.abs(np.diff(ys) / np.diff(xs)).max()))


def unit_lipschitz_pl(rng: np.random.Generator) -> dict:
    """A PL function on [0, 1] with Lipschitz norm exactly 1, in the JSON wire format.

    Knots sit on the 1/64 grid and slopes are multiples of 1/64 with one
    slope pinned to +-1, so every value is exact in floating point.
    """
    k = int(rng.integers(3, 7))
    interior = np.sort(rng.choice(np.arange(1, 64), size=k, replace=False)) / 64.0
    num = rng.integers(-64, 65, size=k + 1).astype(float)
    num[int(rng.integers(num.size))] = 64.0 if rng.uniform() < 0.5 else -64.0
    slopes = num / 64.0
    jumps = np.diff(slopes)
    return {
        "anchor": [0.0, 0.0],
        "left_slope": float(slopes[0]),
        "breakpoints": [[x, c] for x, c in zip(interior.tolist(), jumps.tolist()) if c != 0.0],
    }


def write_csv(path: Path, points: list[tuple[float, float]]) -> None:
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points))
