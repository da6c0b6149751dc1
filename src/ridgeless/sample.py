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

import numpy as np

from .characterize import FREE, Characterization
from .plfun import PiecewiseLinear, _insert_sorted, allowance, evaluate, from_knots

# relative margin below which a tangent crossing collapses onto the chord
_CROSSING_MARGIN = 1e-12


def tangent_brackets(ch: Characterization) -> tuple[np.ndarray, np.ndarray]:
    """Each block knot's tangent bracket (lo, hi), one entry per ``ch.blocks.knots``
    entry: the chord slopes of the two gaps that meet at the knot, in order."""
    knot, s = ch.blocks.knots, ch.profile.slopes
    s_in, s_out = s[knot - 2], s[knot - 1]
    swap = s_out < s_in
    return np.where(swap, s_out, s_in), np.where(swap, s_in, s_out)


def sample_member(ch: Characterization, seed: int) -> PiecewiseLinear:
    """Draw one member of the family characterized by ``ch``.

    Every tangent of the dataset comes from one ``rng.random`` call, in
    knot order, as ``lo + (hi - lo) * u``: numpy's own ``rng.uniform(lo, hi)``
    formula, so the same bits, without its per-call overhead.  ``hi - lo`` is
    a slope difference, which ``slope_profile`` keeps finite.
    """
    if not ch.blocks.knots.size:
        return ch.f_D
    rng = np.random.default_rng(int(seed) % 2**64)
    lo, hi = tangent_brackets(ch)
    t = lo + (hi - lo) * rng.random(lo.size)
    return _member(ch, np.where(hi < t, hi, t))  # lo + (hi - lo) * u >= lo already


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
    return _member(ch, t)


def _member(ch: Characterization, t: np.ndarray) -> PiecewiseLinear:
    """``member_from_tangents`` without its check of ``t``."""
    d = ch.dataset
    xs, ys = d.xs, d.ys
    s = ch.profile.slopes
    knot = ch.blocks.knots
    tangent = np.empty(d.m + 1)
    tangent[knot] = t

    # Free gap j runs from knot j to knot j+1.  The two tangents cross inside it
    # unless they are parallel or cross (numerically) at an end, where the
    # envelope is just the chord.  A tangent equal to the gap's chord slope
    # crosses the other one exactly at a data point: share, the crossing's
    # fraction of the way across the gap, is then exactly 0 or 1, while the
    # rounded xi can land just inside the gap.
    gap = ch.gaps.free
    xj, yj, tj = xs[gap - 1], ys[gap - 1], tangent[gap]
    xk, yk, tk = xs[gap], ys[gap], tangent[gap + 1]
    with np.errstate(all="ignore"):
        denom = tj - tk
        xi = ((yk - yj) + tj * xj - tk * xk) / denom
        share = (s[gap - 1] - tk) / denom
        margin = _CROSSING_MARGIN * (xk - xj)
        flat = np.abs(denom) <= allowance(_CROSSING_MARGIN, tj, tk)
        keep = ~(flat | (xi <= xj + margin) | (xi >= xk - margin)
                 | (share <= _CROSSING_MARGIN) | (share >= 1.0 - _CROSSING_MARGIN))
        yi = yj + tj * (xi - xj)
    # The crossing of gap j goes between data points j and j+1.  A block knot is
    # a knot of the member exactly where its two pieces have different slopes:
    # the knot's tangent on a crossed gap, the chord slope on any other.  Kept
    # where the pieces agree, it would close a piece that can be short enough
    # for its slope, taken from values, to be noise.
    crossed = gap[keep]
    on = np.zeros(d.m + 1, dtype=bool)  # on[j]: gap j is crossed
    on[crossed] = True
    slope = tangent[knot]
    data = np.ones(d.m, dtype=bool)  # the data points that stay knots
    data[knot - 1] = np.where(on[knot - 1], slope, s[knot - 2]) != np.where(on[knot], slope, s[knot - 1])
    knots = _insert_sorted(np.array((xs, ys)).T[data], data.cumsum()[crossed - 1],
                           np.array((xi[keep], yi[keep])).T)
    return from_knots(knots, s[0], s[-1])


def perturb_to_nonmember(
    ch: Characterization, f: PiecewiseLinear, seed: int
) -> PiecewiseLinear:
    """Turn the member ``f`` into an interpolant outside the family.

    Preferred move: displace one of ``f``'s interior block kinks to just
    outside the envelope (above the chord on convex blocks, below on
    concave ones).  Members without usable kinks get a fresh kink at a
    gap midpoint; two-point datasets get a kink beyond the data range,
    which breaks the required affine tails.
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
        k = int(rng.integers(inner.size))
        at, ex, ey = j[inner] + 1, f.x[inner], f.y[inner]
        ey[k] = bumped(ex[k], int(sign[ch.gaps.block[j[inner[k]]]]))
    else:
        if a.size:
            blk = int(rng.integers(a.size))
            g = int(rng.integers(int(a[blk]), int(b[blk])))
            sigma = int(sign[blk])
        else:
            g = int(rng.integers(1, d.m))
            sigma = 1 if rng.uniform() < 0.5 else -1
        mid = 0.5 * (float(xs[g - 1]) + float(xs[g]))
        at, ex, ey = np.array([g]), [mid], [bumped(mid, sigma)]
    knots = _insert_sorted(np.array((xs, d.ys)).T, at, np.array((ex, ey)).T)
    return from_knots(knots, s[0], s[-1])
