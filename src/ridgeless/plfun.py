"""Continuous piecewise-linear functions on the real line, in breakpoint form.

A function is stored as an anchor point ``(x0, v0)``, the slope of its
leftmost affine piece, and a sorted tuple of breakpoints ``(xi, c)`` where
``c`` is the slope jump (outgoing minus incoming slope) at ``xi``.  The
distributional second derivative is then the atomic measure with weight
``c_j`` at each ``xi_j``, and the total variation of the first derivative
is ``sum |c_j|``.  This makes the jumps the primitive objects: total
variation, Lipschitz norm and ReLU-network synthesis all read them
directly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

# Jumps at or below this relative size are merged away during canonicalization.
JUMP_MERGE_RTOL = 1e-12

_location = itemgetter(0)  # of a (location, jump) breakpoint


@dataclass(frozen=True)
class PiecewiseLinear:
    """Canonical continuous PL function.

    Invariants (enforced at construction): breakpoint locations strictly
    increasing, all jumps nonzero, everything finite.  Use
    :func:`canonical` or :func:`from_knots` to build instances from
    unnormalized data.
    """

    anchor: tuple[float, float]
    left_slope: float
    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        x0, v0 = self.anchor
        if not (math.isfinite(x0) and math.isfinite(v0) and math.isfinite(self.left_slope)):
            raise ValueError("anchor and left slope must be finite")
        prev = -math.inf
        for xi, c in self.breakpoints:
            if not (math.isfinite(xi) and math.isfinite(c)):
                raise ValueError("breakpoints must be finite")
            if xi <= prev:
                raise ValueError(f"breakpoint locations not strictly increasing at {xi}")
            if c == 0.0:
                raise ValueError(f"zero jump at {xi}; canonicalize first")
            prev = xi

    @cached_property
    def _locations(self) -> np.ndarray:
        return np.array([xi for xi, _ in self.breakpoints], dtype=float)

    @cached_property
    def _jumps(self) -> np.ndarray:
        return np.array([c for _, c in self.breakpoints], dtype=float)

    @cached_property
    def _piece_slopes(self) -> np.ndarray:
        # slope on (-inf, xi_1), then after each breakpoint; length k+1
        return np.concatenate([[self.left_slope], self.left_slope + np.cumsum(self._jumps)])

    @cached_property
    def _values(self) -> np.ndarray:
        """Values at the breakpoint locations, consistent with the anchor."""
        loc = self._locations
        if loc.size == 0:
            return loc
        rel = np.concatenate([[0.0], np.cumsum(self._piece_slopes[1:-1] * np.diff(loc))])
        x0, v0 = self.anchor
        offset = v0 - _eval_from(loc, self._piece_slopes, rel, np.asarray(x0))
        return rel + offset

    def __call__(self, x):
        return evaluate(self, x)

    def to_dict(self) -> dict:
        return {
            "anchor": [self.anchor[0], self.anchor[1]],
            "left_slope": self.left_slope,
            "breakpoints": [[xi, c] for xi, c in self.breakpoints],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewiseLinear":
        anchor = (float(d["anchor"][0]), float(d["anchor"][1]))
        bps = [(float(xi), float(c)) for xi, c in d["breakpoints"]]
        return canonical(anchor, float(d["left_slope"]), bps)


def _eval_from(loc: np.ndarray, slopes: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate relative to breakpoint values ``vals`` (no anchor offset)."""
    idx = np.searchsorted(loc, x, side="right")
    ref = np.clip(idx - 1, 0, None)
    return vals[ref] + slopes[idx] * (x - loc[ref])


def evaluate(f: PiecewiseLinear, x):
    """Exact PL evaluation at a scalar or array of points."""
    xs = np.asarray(x, dtype=float)
    if f._locations.size == 0:
        out = f.anchor[1] + f.left_slope * (xs - f.anchor[0])
    else:
        out = _eval_from(f._locations, f._piece_slopes, f._values, xs)
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


def one_sided_slopes(f: PiecewiseLinear, x: float) -> tuple[float, float]:
    """Incoming and outgoing derivative at ``x``; equal off the breakpoints."""
    loc = f._locations
    slopes = f._piece_slopes
    s_in = slopes[int(np.searchsorted(loc, x, side="left"))]
    s_out = slopes[int(np.searchsorted(loc, x, side="right"))]
    return float(s_in), float(s_out)


def piece_slopes_on(f: PiecewiseLinear, lo: float, hi: float) -> np.ndarray:
    """Slopes of the pieces of ``f`` restricted to the open interval (lo, hi).

    The first entry is the outgoing slope at ``lo``; subsequent entries follow
    each breakpoint strictly inside the interval.
    """
    if not lo < hi:
        raise ValueError("empty interval")
    w = _window(f, lo, hi)
    return f._piece_slopes[w.start : w.stop + 1]


def breakpoints_in(f: PiecewiseLinear, lo: float, hi: float) -> list[tuple[float, float]]:
    """Breakpoints of ``f`` strictly inside (lo, hi)."""
    return list(f.breakpoints[_window(f, lo, hi)])


def _window(f: PiecewiseLinear, lo: float, hi: float) -> slice:
    """Index slice of the breakpoints strictly inside (lo, hi); empty unless lo < hi.

    Two binary searches over the breakpoint tuple, as ``searchsorted``
    with side="right" on lo and side="left" on hi; ``bisect`` skips
    numpy's per-call overhead, which dominates at a handful of breakpoints.
    """
    return slice(bisect_right(f.breakpoints, lo, key=_location),
                 bisect_left(f.breakpoints, hi, key=_location))


def tv_of_derivative(f: PiecewiseLinear) -> float:
    """Total variation of the derivative: the sum of absolute slope jumps."""
    return float(np.abs(f._jumps).sum()) if f.breakpoints else 0.0


def lipschitz_norm(f: PiecewiseLinear) -> float:
    return float(np.abs(f._piece_slopes).max())


def canonical(
    anchor: tuple[float, float],
    left_slope: float,
    breakpoints: Iterable[tuple[float, float]],
) -> PiecewiseLinear:
    """Build a canonical PL function from possibly unsorted/degenerate jumps.

    Breakpoints are sorted, jumps at identical locations are summed, and
    jumps that are negligible relative to the largest one are dropped.
    The drop threshold carries a 1e-12 absolute floor so that slope
    dither on near-affine data reads as affine; data whose genuine slope
    jumps all sit below that floor should be rescaled first.  A
    non-finite location or (summed) jump raises ValueError, since an
    infinite jump would make every other jump fall below the threshold.
    """
    merged: dict[float, float] = {}
    for xi, c in breakpoints:
        merged[xi] = merged.get(xi, 0.0) + c
    if not (all(map(math.isfinite, merged)) and all(map(math.isfinite, merged.values()))):
        raise ValueError("breakpoint locations and jumps must be finite")
    if merged:
        cmax = max(abs(c) for c in merged.values())
        tol = JUMP_MERGE_RTOL * (1.0 + cmax)
        kept = tuple(sorted((xi, c) for xi, c in merged.items() if abs(c) > tol))
    else:
        kept = ()
    return PiecewiseLinear(anchor=(float(anchor[0]), float(anchor[1])),
                           left_slope=float(left_slope), breakpoints=kept)


def canonicalize(f: PiecewiseLinear) -> PiecewiseLinear:
    return canonical(f.anchor, f.left_slope, f.breakpoints)


def from_knots(
    knots: Sequence[tuple[float, float]],
    left_slope: float,
    right_slope: float,
) -> PiecewiseLinear:
    """PL interpolant of the knots, affine with the given slopes outside them.

    Knot abscissae must be strictly increasing; a single knot yields the
    two-slope wedge (or a line when the slopes coincide).
    """
    if len(knots) < 1:
        raise ValueError("need at least one knot")
    xs = [float(x) for x, _ in knots]
    ys = [float(y) for _, y in knots]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("knot abscissae must be strictly increasing")
    chord = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    slope_seq = [float(left_slope)] + chord + [float(right_slope)]
    bps = [(xs[i], slope_seq[i + 1] - slope_seq[i]) for i in range(len(xs))]
    return canonical((xs[0], ys[0]), left_slope, bps)


def restriction_equal(
    f: PiecewiseLinear,
    g: PiecewiseLinear,
    interval: tuple[float, float],
    tol: float,
) -> bool:
    """True iff f and g agree as functions on the open interval, up to tol.

    Compared structurally: the jump patterns inside the interval must match
    and value plus one-sided slopes must match at one probe point.  Either
    endpoint may be infinite.
    """
    return not restriction_mismatches(f, g, interval, tol)


def restriction_mismatches(
    f: PiecewiseLinear,
    g: PiecewiseLinear,
    interval: tuple[float, float],
    tol: float,
) -> list[tuple[float, float]]:
    """Structural disagreements of f and g on the open interval.

    Returns (location, magnitude) pairs; empty means the restrictions agree.
    """
    lo, hi = interval
    if not lo < hi:
        raise ValueError("interval must be nonempty")
    bad: list[tuple[float, float]] = []

    fb = breakpoints_in(f, lo, hi)
    gb = breakpoints_in(g, lo, hi)
    i = j = 0
    while i < len(fb) or j < len(gb):
        if j >= len(gb):
            (loc, cf), cg = fb[i], 0.0
            i += 1
        elif i >= len(fb):
            (loc, cg), cf = gb[j], 0.0
            j += 1
        else:
            xf, cf = fb[i]
            xg, cg = gb[j]
            if abs(xf - xg) <= tol * max(1.0, abs(xf), abs(xg)):
                loc = xf
                i += 1
                j += 1
            elif xf < xg:
                loc, cg = xf, 0.0
                i += 1
            else:
                loc, cf = xg, 0.0
                j += 1
        gap = abs(cf - cg)
        if gap > tol * max(1.0, abs(cf), abs(cg)):
            bad.append((loc, gap))

    t0 = _probe_point(fb, gb, lo, hi)
    dv = abs(evaluate(f, t0) - evaluate(g, t0))
    if dv > tol * max(1.0, abs(evaluate(g, t0))):
        bad.append((t0, dv))
    fi, fo = one_sided_slopes(f, t0)
    gi, go = one_sided_slopes(g, t0)
    for df in (abs(fi - gi), abs(fo - go)):
        if df > tol * max(1.0, abs(gi), abs(go)):
            bad.append((t0, df))
            break
    return bad


def _probe_point(fb, gb, lo: float, hi: float) -> float:
    for xi, _ in fb + gb:
        return xi
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return 0.5 * (lo + hi)


def structurally_equal(f: PiecewiseLinear, g: PiecewiseLinear, rtol: float = 1e-12) -> bool:
    """Whole-line structural equality of two canonical PL functions."""
    if len(f.breakpoints) != len(g.breakpoints):
        return False
    if abs(f.left_slope - g.left_slope) > rtol * max(1.0, abs(f.left_slope), abs(g.left_slope)):
        return False
    for (xf, cf), (xg, cg) in zip(f.breakpoints, g.breakpoints):
        if abs(xf - xg) > rtol * max(1.0, abs(xf), abs(xg)):
            return False
        if abs(cf - cg) > rtol * max(1.0, abs(cf), abs(cg)):
            return False
    x0 = f.anchor[0]
    va, vb = evaluate(f, x0), evaluate(g, x0)
    return abs(va - vb) <= rtol * max(1.0, abs(va), abs(vb))


def to_json(f: PiecewiseLinear) -> str:
    return json.dumps(f.to_dict())


def from_json(text: str) -> PiecewiseLinear:
    return PiecewiseLinear.from_dict(json.loads(text))
