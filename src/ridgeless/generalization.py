"""Lipschitz-domination and worst-case recovery bounds for family members.

When the data comes from an L-Lipschitz function, every member of the
family is at most as steep as the chord interpolant, hence at most as
steep as the source, and both pass through the data.  So on [0, 1] the
sup recovery error is at most 2L times the largest distance from a point
of [0, 1] to the data; on the uniform design x_i = i/m that is the sharp
2L/m.  A localized variant bounds how far member slopes may drift from
each chord slope gap by gap, at the price of constants (7L for the norm,
14L/m for the error).

Ground truths are restricted to PL functions so Lipschitz norms are
computed exactly rather than estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characterize import Characterization, localized_slope_bounds
from .dataset import Dataset
from .plfun import PiecewiseLinear, _window, allowance, evaluate, lipschitz_norm


# slack of every bound check: allowance(BOUND_TOL, size) for the norms, absolute for the sup error
BOUND_TOL = 1e-9
# points per data point of the dense grid on [0, 1] that cross-checks the exact sup error
SUP_GRID_POINTS_PER_GAP = 100


def make_dataset_from(f_star: PiecewiseLinear, design) -> Dataset:
    """Sample the ground truth ``f_star`` on a design.

    An integer m means the uniform design x_i = i/m on [0, 1]; any other
    sequence is used as explicit abscissae.
    """
    uniform = isinstance(design, (int, np.integer))
    xs = np.arange(1, int(design) + 1) / float(design) if uniform else np.asarray(list(design), dtype=float)
    return Dataset(xs, evaluate(f_star, xs))


@dataclass(frozen=True)
class LipDominationReport:
    fd_norm: float
    members_max_norm: float
    L: float
    max_ratio: float
    worst_member: int
    passed: bool


def verify_lip_domination(
    ch: Characterization, members: Sequence[PiecewiseLinear], L: float
) -> LipDominationReport:
    """Check lip(member) <= lip(chord interpolant) <= L for every member."""
    fd_norm = lipschitz_norm(ch.f_D)
    norms = [lipschitz_norm(f) for f in members]
    worst = int(np.argmax(norms)) if norms else -1
    members_max = max(norms) if norms else 0.0
    passed = bool(members_max <= fd_norm + allowance(BOUND_TOL, fd_norm) and fd_norm <= L + allowance(BOUND_TOL, L))
    return LipDominationReport(
        fd_norm=fd_norm,
        members_max_norm=members_max,
        L=L,
        max_ratio=members_max / L if L > 0 else math.inf if members_max > 0 else 0.0,
        worst_member=worst,
        passed=passed,
    )


@dataclass(frozen=True)
class SupErrorReport:
    bound: float
    exact_max: float
    grid_max: float
    slack: float
    worst_member: int
    passed: bool


def verify_sup_error(
    f_star: PiecewiseLinear, d: Dataset, members: Sequence[PiecewiseLinear]
) -> SupErrorReport:
    """Check sup_{[0,1]} |member - f_star| <= B on any design, L = lip(f_star).

    A member and f_star both pass through the data and are both
    L-Lipschitz, so at x they part by at most 2L times the distance from x
    to the nearest data point.  On [0, 1] that distance is at most
    h = max(0, x_1, max_i (x_{i+1} - x_i) / 2, 1 - x_m), so B = 2L h; on
    x_i = i/m, B is 2L x_1, the paper's 2L/m.

    The maximum is computed exactly at the union of kinks (the difference
    of two PL functions is PL, so its extrema sit at kinks or interval
    ends) and cross-checked from below on SUP_GRID_POINTS_PER_GAP * m + 1
    evenly spaced points of [0, 1].
    """
    xs = d.xs
    h = max(0.0, float(xs[0]), float(np.max(np.diff(xs))) / 2, 1.0 - float(xs[-1]))
    bound = 2.0 * lipschitz_norm(f_star) * h
    dense = np.linspace(0.0, 1.0, SUP_GRID_POINTS_PER_GAP * d.m + 1)
    star_dense = np.atleast_1d(evaluate(f_star, dense))

    errors, grid_max = [], 0.0
    for f in members:
        errors.append(sup_error(f, f_star, 0.0, 1.0))
        gerr = float(np.max(np.abs(np.atleast_1d(evaluate(f, dense)) - star_dense)))
        grid_max = max(grid_max, gerr)
    worst = int(np.argmax(errors)) if errors else -1
    exact_max = max(errors) if errors else 0.0
    return SupErrorReport(
        bound=bound,
        exact_max=exact_max,
        grid_max=grid_max,
        slack=bound - exact_max,
        worst_member=worst,
        passed=exact_max <= bound + BOUND_TOL,
    )


def sup_error(f: PiecewiseLinear, g: PiecewiseLinear, lo: float, hi: float) -> float:
    """Exact max of |f - g| on [lo, hi], taken at the union of kinks and the ends."""
    pts = np.unique(np.concatenate(([lo, hi], f.x[_window(f, lo, hi)], g.x[_window(g, lo, hi)])))
    return float(np.max(np.abs(evaluate(f, pts) - evaluate(g, pts))))


@dataclass(frozen=True)
class LocalizedBoundReport:
    gap_bounds: tuple[float, ...]
    max_excess: float
    lip_ratio: float  # lip(member) / lip(chord), must stay <= 7
    worst_member: int
    worst_gap: int
    passed: bool


def verify_localized_bounds(
    ch: Characterization, members: Sequence[PiecewiseLinear]
) -> LocalizedBoundReport:
    """Per-gap slope drift |Df - s_i| <= B_i, plus the 7x aggregate norm check.

    The worst gap is the first strict maximum of the excess, member by
    member and gap by gap.
    """
    bounds = localized_slope_bounds(ch)
    limit = allowance(BOUND_TOL, bounds)
    fd_norm = lipschitz_norm(ch.f_D)
    xs = ch.dataset.xs
    s = ch.profile.slopes

    max_excess = -math.inf
    worst_member = worst_gap = -1
    lip_ratio = 0.0
    ok = True
    for k, f in enumerate(members):
        # the pieces of f on gap i are f.s[first[i]], ..., f.s[first[i] + n[i] - 1]
        first = f.x.searchsorted(xs[:-1], side="right")
        n = f.x.searchsorted(xs[1:], side="left") - first + 1
        start = np.cumsum(n) - n
        piece = np.arange(n.sum()) + np.repeat(first - start, n)
        drift = np.maximum.reduceat(np.abs(f.s[piece] - np.repeat(s, n)), start)
        excess = drift - bounds
        i = int(np.argmax(excess))
        if excess[i] > max_excess:
            max_excess, worst_member, worst_gap = float(excess[i]), k, i + 1
        if (excess > limit).any():
            ok = False
        norm = lipschitz_norm(f)
        ratio = norm / fd_norm if fd_norm > 0 else 0.0
        lip_ratio = max(lip_ratio, ratio)
        if norm > 7.0 * fd_norm + allowance(BOUND_TOL, fd_norm):
            ok = False
    return LocalizedBoundReport(
        gap_bounds=tuple(bounds.tolist()),
        max_excess=max_excess if members else 0.0,
        lip_ratio=lip_ratio,
        worst_member=worst_member,
        worst_gap=worst_gap,
        passed=ok,
    )
