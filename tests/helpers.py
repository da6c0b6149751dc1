"""Shared generators and invariant oracles for the test suite."""

from __future__ import annotations

import numpy as np

import ridgeless as r
from ridgeless.dataset import sign_with_tol
from ridgeless.plfun import one_sided_slopes, piece_slopes_on


def random_dataset(rng: np.random.Generator, m: int | None = None,
                   slope_range: tuple[float, float] = (-3.0, 3.0)) -> r.Dataset:
    """Random dataset with m points and chord slopes drawn in slope_range."""
    if m is None:
        m = int(rng.integers(4, 13))
    gaps = rng.uniform(0.2, 1.5, size=m - 1)
    xs = np.concatenate([[rng.uniform(-2.0, 2.0)], gaps]).cumsum()
    slopes = rng.uniform(slope_range[0], slope_range[1], size=m - 1)
    ys = np.concatenate([[rng.uniform(-1.0, 1.0)], slopes * gaps]).cumsum()
    return r.make_dataset(zip(xs.tolist(), ys.tolist()))


def random_pl(rng: np.random.Generator, max_breaks: int = 8) -> r.PiecewiseLinear:
    """Random canonical PL function, possibly affine."""
    k = int(rng.integers(0, max_breaks + 1))
    locs = np.sort(rng.uniform(-5.0, 5.0, size=k))
    jumps = rng.uniform(0.2, 3.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    anchor = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
    return r.canonical(anchor, float(rng.uniform(-3, 3)), zip(locs.tolist(), jumps.tolist()))


def random_unit_lipschitz_pl(rng: np.random.Generator, max_kinks: int = 6) -> r.PiecewiseLinear:
    """Random PL function on [0,1] whose Lipschitz norm is exactly 1.

    Knots sit on the 1/64 grid and slopes are multiples of 1/64 with one
    slope pinned to +-1, so every chord slope reproduces exactly in floats
    and the norm is exactly 1.0.
    """
    while True:
        k = int(rng.integers(3, max_kinks + 1))
        interior = np.sort(rng.choice(np.arange(1, 64), size=k, replace=False)) / 64.0
        xs = np.concatenate([[0.0], interior, [1.0]])
        num = rng.integers(-64, 65, size=xs.size - 1).astype(float)
        pin = int(rng.integers(num.size))
        num[pin] = 64.0 if rng.uniform() < 0.5 else -64.0
        slopes = num / 64.0
        ys = np.concatenate([[0.0], slopes * np.diff(xs)]).cumsum()
        f = r.from_knots(list(zip(xs.tolist(), ys.tolist())), float(slopes[0]), float(slopes[-1]))
        if r.lipschitz_norm(f) == 1.0:
            return f


def evaluate_by_slope_integration(f: r.PiecewiseLinear, x: float) -> float:
    """Reference evaluation that integrates the slope from the anchor.

    Deliberately shares no code with :func:`ridgeless.plfun.evaluate`;
    used to cross-check it.
    """
    x0, v0 = f.anchor
    lo, hi = (x0, x) if x0 <= x else (x, x0)
    sign = 1.0 if x0 <= x else -1.0
    total = 0.0
    pos = lo
    # walk every piece overlapping [lo, hi]
    for xi, _ in f.breakpoints:
        if xi <= lo:
            continue
        if xi >= hi:
            break
        total += _slope_at_midpoint(f, pos, xi) * (xi - pos)
        pos = xi
    total += _slope_at_midpoint(f, pos, hi) * (hi - pos)
    return v0 + sign * total


def _slope_at_midpoint(f: r.PiecewiseLinear, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    slope = f.left_slope
    for xi, c in f.breakpoints:
        if xi < mid:
            slope += c
        else:
            break
    return slope


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` for the test; the returned list grows by one per call."""
    calls: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def is_monotone(seq, tol: float) -> bool:
    diffs = np.diff(np.asarray(seq, dtype=float))
    if diffs.size == 0:
        return True
    scale = tol * np.maximum(1.0, np.max(np.abs(seq)))
    return bool(np.all(diffs >= -scale) or np.all(diffs <= scale))


def member_invariant_failures(ch: r.Characterization, f: r.PiecewiseLinear,
                              tol: float = 1e-9) -> list[str]:
    """Check the structural member properties; returns the names that fail.

    Covered: per-gap slope monotonicity, the incoming/outgoing sign identity
    at every gap, the curvature slope sandwich at interior points, chord
    agreement on both tails, and chord agreement around zero-curvature points.
    """
    d = ch.dataset
    xs = d.xs
    s = ch.profile.slopes
    eps = ch.profile.curvatures
    m = d.m
    failures: list[str] = []

    for i in range(1, m):
        lo, hi = float(xs[i - 1]), float(xs[i])
        slopes = piece_slopes_on(f, lo, hi)
        if not is_monotone(slopes, tol):
            failures.append(f"monotone@gap{i}")
        si = s[i - 1]
        scale = tol * max(1.0, abs(si), float(np.max(np.abs(slopes))))
        _, s_out_i = one_sided_slopes(f, lo)
        s_in_next, _ = one_sided_slopes(f, hi)
        if sign_with_tol(s_in_next - si, scale) + sign_with_tol(s_out_i - si, scale) != 0:
            failures.append(f"in-out@gap{i}")

    for i in range(2, m):  # interior points
        e = eps[i - 2]
        if e == 0:
            continue
        si, s_prev = s[i - 1], s[i - 2]
        s_in, s_out = one_sided_slopes(f, float(xs[i - 1]))
        scale = tol * max(1.0, abs(s_prev), abs(si), abs(s_in), abs(s_out))
        links = (e * (s_in - s_prev), e * (s_out - s_in), e * (si - s_out))
        if any(link < -scale for link in links):
            failures.append(f"eps-sandwich@{i}")

    if not r.restriction_equal(f, ch.f_D, (-np.inf, float(xs[1])), tol):
        failures.append("ends-left")
    if not r.restriction_equal(f, ch.f_D, (float(xs[m - 2]), np.inf), tol):
        failures.append("ends-right")

    for i in range(2, m):
        if eps[i - 2] == 0 and not r.restriction_equal(
            f, ch.f_D, (float(xs[i - 2]), float(xs[i])), tol
        ):
            failures.append(f"neighbors@{i}")
    return failures


def slope_window_failures(ch: r.Characterization, f: r.PiecewiseLinear,
                          tol: float = 1e-9) -> list[str]:
    """Curvature-signed localization of member slopes by neighbor chords.

    At every interior point i and every piece slope sigma on (x_i, x_{i+1}):
    eps_i*(s_{i-1}-s_i) <= eps_i*(sigma-s_i), and eps_i*(sigma-s_i) stays
    below eps_i*(s_{i+1}-s_i) whenever that difference points the same way
    as the curvature (on curvature-flip gaps the function is pinned to the
    chord so the upper side degenerates to zero).  Slope indices clamp at
    the last gap.
    """
    d = ch.dataset
    xs = d.xs
    s = ch.profile.slopes
    eps = ch.profile.curvatures
    m = d.m
    failures: list[str] = []
    for i in range(2, m):
        e = eps[i - 2]
        si = s[i - 1]
        s_next = s[i] if i < m - 1 else s[m - 2]
        slopes = piece_slopes_on(f, float(xs[i - 1]), float(xs[i]))
        lo = e * (s[i - 2] - si)
        hi = max(0.0, e * (s_next - si))
        scale = tol * max(1.0, abs(s[i - 2]), abs(si), abs(s_next))
        mids = e * (slopes - si)
        if np.any(mids < lo - scale) or np.any(mids > hi + scale):
            failures.append(f"slope-window@{i}")
    return failures
