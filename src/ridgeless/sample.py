"""Random members of the interpolant family, and counterexample generation.

Members are built per free block by drawing one tangent slope per block
knot from its admissible bracket and taking, on every subinterval, the
upper (convex block) or lower (concave block) envelope of the two knot
tangents.  The construction stays inside the family by design, takes any
tangents in the brackets (``member_from_tangents``), and is deterministic
in (seed, dataset).

No distribution on the family is canonical; the uniform-on-bracket draw
here is an artifact choice, not a derived fact.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .characterize import FREE, Characterization
from .plfun import PiecewiseLinear, allowance, evaluate, from_knots

# relative margin below which a tangent crossing collapses onto the chord
_CROSSING_MARGIN = 1e-12
# data points in all the rows of one pass of _members: a pass's largest array,
# two knot candidates of two coordinates per point, is about 1 MB at any m
_PASS_POINTS = 2**15


def tangent_brackets(ch: Characterization) -> tuple[np.ndarray, np.ndarray]:
    """Each block knot's tangent bracket (lo, hi), one entry per ``ch.blocks.knots``
    entry: the chord slopes of the two gaps that meet at the knot, in order."""
    knot, s = ch.blocks.knots, ch.profile.slopes
    s_in, s_out = s[knot - 2], s[knot - 1]
    swap = s_out < s_in
    return np.where(swap, s_out, s_in), np.where(swap, s_in, s_out)


def sample_members(ch: Characterization, seeds: Sequence[int]) -> list[PiecewiseLinear]:
    """Draw one member of the family characterized by ``ch`` per seed.

    Each seed's tangents come from one ``rng.random`` call of its own
    ``default_rng``, in knot order, as ``lo + (hi - lo) * u``: numpy's own
    ``rng.uniform(lo, hi)`` formula, so the same bits, without its per-call
    overhead.  ``hi - lo`` is a slope difference, which ``slope_profile``
    keeps finite.
    """
    if not (ch.blocks.knots.size and len(seeds)):
        return [ch.f_D] * len(seeds)
    lo, hi = tangent_brackets(ch)
    u = np.array([np.random.default_rng(int(seed) % 2**64).random(lo.size) for seed in seeds])
    t = lo + (hi - lo) * u
    return _members(ch, np.where(hi < t, hi, t))  # lo + (hi - lo) * u >= lo already


def sample_member(ch: Characterization, seed: int) -> PiecewiseLinear:
    """Draw one member of the family characterized by ``ch``: ``sample_members``' one-seed case."""
    return sample_members(ch, (seed,))[0]


def member_from_tangents(ch: Characterization, t) -> PiecewiseLinear:
    """The member whose tangent at knot ``ch.blocks.knots[k]`` has slope ``t[k]``.

    ``t`` holds one tangent per block knot, each in its closed bracket (``tangent_brackets``),
    or ``ValueError`` is raised.  Every tangent at its outgoing chord slope gives the chord;
    the same with each block's first tangent at its incoming chord slope follows the incoming
    support line until it meets the next knot's tangent, then the chords.
    """
    t, (lo, hi) = np.asarray(t, dtype=float), tangent_brackets(ch)
    if t.shape != lo.shape or not ((lo <= t) & (t <= hi)).all():
        raise ValueError(f"need {lo.size} tangents, each in its knot's bracket (tangent_brackets)")
    return _members(ch, t[None])[0]


def _rows_per_pass(m: int) -> int:
    """Rows of one pass of ``_members`` on m data points: ``_PASS_POINTS`` points, at least one row."""
    return _PASS_POINTS // m or 1


def _members(ch: Characterization, t: np.ndarray) -> list[PiecewiseLinear]:
    """The member of each row of tangents ``t``, as ``member_from_tangents`` without its check.

    The rows are built in passes of ``_rows_per_pass`` rows, so that the
    arrays of a pass do not grow with the number of rows.
    """
    d, s, knot, gap = ch.dataset, ch.profile.slopes, ch.blocks.knots, ch.gaps.free
    rows = _rows_per_pass(d.m)
    if len(t) > rows:
        return [f for i in range(0, len(t), rows) for f in _members(ch, t[i:i + rows])]
    xs, ys = d.xs, d.ys

    # Free gap j runs from knot j to knot j+1.  The two tangents cross inside it
    # unless they are parallel or cross (numerically) at an end, where the
    # envelope is just the chord.  A tangent equal to the gap's chord slope
    # crosses the other one exactly at a data point: share, the crossing's
    # fraction of the way across the gap, is then exactly 0 or 1, while the
    # rounded xi can land just inside the gap.
    j = gap - 1  # 0-based, the index of each free gap's left end and of its chord slope
    left = knot.searchsorted(gap)  # the left end in knot; the right end is the next
    rj, rk = j[None], gap[None]  # the gaps' data as rows, so that one-row passes need no broadcasting
    xj, yj, sj, tj = xs[rj], ys[rj], s[rj], t.take(left, 1)
    xk, yk, tk = xs[rk], ys[rk], t.take(left + 1, 1)
    with np.errstate(all="ignore"):
        denom = tj - tk
        xi = ((yk - yj) + tj * xj - tk * xk) / denom
        share = (sj - tk) / denom
        margin = _CROSSING_MARGIN * (xk - xj)
        flat = np.abs(denom) <= allowance(_CROSSING_MARGIN, tj, tk)
        keep = ~(flat | (xi <= xj + margin) | (xi >= xk - margin)
                 | (share <= _CROSSING_MARGIN) | (share >= 1.0 - _CROSSING_MARGIN))
        yi = yj + tj * (xi - xj)
    # Each row's candidate knots are two slots per data point: the point, then
    # the crossing of the gap it starts, if that gap is free.  A block knot is
    # a knot of the member exactly where its two pieces have different slopes:
    # the knot's tangent on a crossed gap, the chord slope on any other.  Kept
    # where the pieces agree, it would close a piece that can be short enough
    # for its slope, taken from values, to be noise.
    kept = np.zeros((len(t), d.m, 2), dtype=bool)
    kept[..., 0] = True
    kept[:, j, 1] = keep
    crossed = kept[..., 1]
    before, after = knot - 2, knot - 1  # the gaps that meet at each block knot, 0-based
    kept[:, after, 0] = (np.where(crossed.take(before, 1), t, s[before[None]])
                         != np.where(crossed.take(after, 1), t, s[after[None]]))
    slots = np.empty((len(t), d.m, 2, 2))
    slots[..., 0, 0], slots[..., 0, 1] = xs, ys
    slots[:, j, 1, 0], slots[:, j, 1, 1] = xi, yi
    return [from_knots(row.compress(k, axis=0), s[0], s[-1])
            for row, k in zip(slots.reshape(len(t), -1, 2), kept.reshape(len(t), -1))]


def perturb_to_nonmember(
    ch: Characterization, f: PiecewiseLinear, seed: int
) -> PiecewiseLinear:
    """Turn the member ``f`` into an interpolant outside the family.

    Preferred move: displace one of ``f``'s interior block kinks to just
    outside the envelope (above the chord on convex blocks, below on
    concave ones).  Members without usable kinks get a fresh kink at the
    midpoint of a gap with a float strictly inside it, a block's if one has
    such a gap; two-point datasets get a kink beyond the data range, which
    breaks the required affine tails.  ValueError if no gap has a float inside.
    """
    rng = np.random.default_rng(int(seed) % 2**64)
    d = ch.dataset
    xs, s = d.xs, ch.profile.slopes

    if d.m == 2:
        xk = max(float(xs[-1]) + 1.0, float(np.nextafter(xs[-1], np.inf)))  # past x_2 at any scale
        bump = 1.0 + float(rng.uniform(0.5, 1.5))
        knots = np.column_stack((np.append(xs, xk), np.append(d.ys, evaluate(ch.f_D, xk))))
        return from_knots(knots, s[0], s[-1] + bump)

    a, b, sign = ch.blocks.a, ch.blocks.b, ch.blocks.sign
    # f's kinks strictly inside a free gap, which are those inside a block and off the data
    j = xs[1:-1].searchsorted(f.x, side="right")  # 0-based gap of each kink, ends clamped
    inner = ((xs[j] < f.x) & (f.x < xs[j + 1]) & (ch.gaps.code[j] == FREE)).nonzero()[0]

    def bumped(x: float, sigma: int) -> float:
        cv = float(evaluate(ch.f_D, x))
        delta = (0.5 + float(rng.uniform())) * 0.5 * (1.0 + abs(cv))
        return cv + sigma * delta

    if inner.size:
        k, ex, ey = int(rng.integers(inner.size)), f.x[inner], f.y[inner]
        ey[k] = bumped(ex[k], int(sign[ch.gaps.block[j[inner[k]]]]))
    else:
        wide = (np.nextafter(xs[:-1], np.inf) < xs[1:]).nonzero()[0] + 1  # gaps with a float inside, from 1
        if not wide.size:
            raise ValueError("no gap of the data has a float strictly inside it for a new kink")
        lo, hi = wide.searchsorted(a), wide.searchsorted(b)  # block k's are wide[lo[k]:hi[k]]
        usable = (lo < hi).nonzero()[0]
        if usable.size:
            blk = int(usable[rng.integers(usable.size)])
            g, sigma = int(wide[lo[blk] + rng.integers(hi[blk] - lo[blk])]), int(sign[blk])
        else:
            g = int(wide[rng.integers(wide.size)])
            sigma = 1 if rng.uniform() < 0.5 else -1
        mid = 0.5 * (float(xs[g - 1]) + float(xs[g]))
        ex, ey = [mid], [bumped(mid, sigma)]
    knots = np.concatenate((np.column_stack((xs, d.ys)), np.column_stack((ex, ey))))
    return from_knots(knots[knots[:, 0].argsort(kind="stable")], s[0], s[-1])
