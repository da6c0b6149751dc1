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

    The maximum is exact (a difference of PL functions peaks at a kink or an
    end): at 0, 1 and f_star's kinks in (0, 1), where f_star is evaluated once
    per call, and at each member's kinks in (0, 1), where its stored values
    ``y`` are read.  It is cross-checked on SUP_GRID_POINTS_PER_GAP * m + 1
    evenly spaced points of [0, 1] (see ``_grid_errors``), where rounding may
    read above it.
    """
    h = max(0.0, float(d.xs[0]), float(np.max(np.diff(d.xs))) / 2, 1.0 - float(d.xs[-1]))
    bound = 2.0 * lipschitz_norm(f_star) * h
    ends = np.concatenate(([0.0], f_star.x[_window(f_star, 0.0, 1.0)], [1.0]))
    star, errors = evaluate(f_star, ends), []
    for f in members:
        w = _window(f, 0.0, 1.0)
        own = np.abs(f.y[w] - evaluate(f_star, f.x[w])).max(initial=0.0)
        errors.append(float(max(np.abs(evaluate(f, ends) - star).max(), own)))
    dense = np.linspace(0.0, 1.0, SUP_GRID_POINTS_PER_GAP * d.m + 1)
    grid_max = max([0.0, *_grid_errors(members, dense, np.atleast_1d(evaluate(f_star, dense)))])
    worst, exact_max = (int(np.argmax(errors)), max(errors)) if errors else (-1, 0.0)
    return SupErrorReport(
        bound=bound,
        exact_max=exact_max,
        grid_max=grid_max,
        slack=bound - exact_max,
        worst_member=worst,
        passed=exact_max <= bound + BOUND_TOL,
    )


def _grid_errors(members: Sequence[PiecewiseLinear], dense: np.ndarray, star: np.ndarray) -> list[float]:
    """max |f - f_star| over the points ``dense`` for each member f, where ``star`` is f_star there.

    The first member is evaluated at every point and its maximum kept per
    piece: the left tail, each [x_i, x_{i+1}) between consecutive kinks, and
    the right tail from the last kink on.  ``evaluate`` reads a piece only
    through its bounding kinks (x, y) and, on a tail, its end slope (the
    other tail terms add a zero, whose sign the absolute error drops).  So
    a later member is evaluated only on the pieces where those bits differ,
    and its maximum, a maximum of the same floats, is the same float.
    """
    if not members:
        return []
    first = members[0]
    err = np.abs(np.atleast_1d(evaluate(first, dense)) - star)
    begin = np.concatenate(([0], dense.searchsorted(first.x)))  # each piece's first point
    size = np.diff(begin, append=dense.size)
    filled = size > 0
    piece_max = np.maximum.reduceat(err, begin[filled])
    errors = [float(err.max())]
    for f in members[1:]:
        shared = _shared_pieces(first, f)
        redo = filled & ~shared
        n = size[redo]
        at = np.arange(n.sum()) + np.repeat(begin[redo] - (np.cumsum(n) - n), n)
        rest = np.abs(np.atleast_1d(evaluate(f, dense[at])) - star[at])
        errors.append(float(np.concatenate((piece_max[shared[filled]], rest)).max()))
    return errors


def _shared_pieces(g: PiecewiseLinear, f: PiecewiseLinear) -> np.ndarray:
    """Which pieces of g (as in ``_grid_errors``) f has bit for bit: the bounding kinks,
    consecutive kinks of f too, and at a tail the end slope."""
    shared = np.zeros(g.x.size + 1, dtype=bool)
    if not (g.x.size and f.x.size):
        return shared
    at = np.minimum(f.x.searchsorted(g.x), f.x.size - 1)  # f's kink at each of g's, if it has one
    same = ((f.x[at].view(np.int64) == g.x.view(np.int64))
            & (f.y[at].view(np.int64) == g.y.view(np.int64)))
    ends = f.s[[0, -1]].view(np.int64) == g.s[[0, -1]].view(np.int64)
    shared[0] = same[0] & (at[0] == 0) & ends[0]
    shared[1:-1] = same[:-1] & same[1:] & (at[1:] - at[:-1] == 1)
    shared[-1] = same[-1] & (at[-1] == f.x.size - 1) & ends[1]
    return shared


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
    if not members:
        return LocalizedBoundReport(tuple(bounds.tolist()), 0.0, 0.0, -1, -1, True)
    fd_norm = lipschitz_norm(ch.f_D)
    xs = ch.dataset.xs
    s = ch.profile.slopes

    # all the members' slopes one after another; member k's pieces on gap i
    # are slopes first[k, i], ..., first[k, i] + n[k, i] - 1
    slopes = np.concatenate([f.s for f in members])
    offset = np.cumsum([0] + [f.s.size for f in members[:-1]])
    first = np.array([f.x.searchsorted(xs[:-1], side="right") for f in members])
    n = (np.array([f.x.searchsorted(xs[1:], side="left") for f in members]) - first + 1).ravel()
    start = np.cumsum(n) - n
    piece = np.arange(n.sum()) + np.repeat((first + offset[:, None]).ravel() - start, n)
    drift = np.maximum.reduceat(np.abs(slopes[piece] - np.repeat(np.tile(s, len(members)), n)), start)
    excess = drift.reshape(len(members), -1) - bounds
    worst = int(np.argmax(excess))  # the first strict maximum, member by member, then gap by gap
    norms = np.maximum.reduceat(np.abs(slopes), offset)
    ok = not ((excess > allowance(BOUND_TOL, bounds)).any()
              or (norms > 7.0 * fd_norm + allowance(BOUND_TOL, fd_norm)).any())
    return LocalizedBoundReport(
        gap_bounds=tuple(bounds.tolist()),
        max_excess=float(excess.flat[worst]),
        lip_ratio=max(0.0, *(norms / fd_norm).tolist()) if fd_norm > 0 else 0.0,
        worst_member=worst // excess.shape[1],
        worst_gap=worst % excess.shape[1] + 1,
        passed=ok,
    )
