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
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

# canonical and from_knots drop every jump |c| <= JUMP_MERGE_RTOL * (1 + max |c|).
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
                raise ValueError(f"zero jump at {xi}; build through canonical or from_knots")
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
        check_json_numbers(d["anchor"], (d["left_slope"],), *d["breakpoints"])
        anchor = (float(d["anchor"][0]), float(d["anchor"][1]))
        bps = [(float(xi), float(c)) for xi, c in d["breakpoints"]]
        return canonical(anchor, float(d["left_slope"]), bps)


def check_json_numbers(*rows) -> None:
    """Raise TypeError unless each value in the rows is a JSON number (int or float, not bool)."""
    if not {int, float}.issuperset(map(type, chain.from_iterable(rows))):
        raise TypeError("expected only JSON numbers (ints or floats) as values")


def _eval_from(loc: np.ndarray, slopes: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate relative to breakpoint values ``vals`` (no anchor offset)."""
    idx = loc.searchsorted(x, side="right")
    ref = np.maximum(idx - 1, 0)
    return vals[ref] + slopes[idx] * (x - loc[ref])


def evaluate(f: PiecewiseLinear, x):
    """Exact PL evaluation at a scalar or array of points."""
    xs = np.asarray(x, dtype=float)
    if f._locations.size == 0:
        out = f.anchor[1] + f.left_slope * (xs - f.anchor[0])
    else:
        out = _eval_from(f._locations, f._piece_slopes, f._values, xs)
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


def one_sided_slopes(f: PiecewiseLinear, x):
    """Incoming and outgoing derivative at ``x``; equal off the breakpoints.

    A scalar ``x`` gives two floats, an array gives two arrays.
    """
    xs = np.asarray(x, dtype=float)
    s_in = f._piece_slopes[f._locations.searchsorted(xs, side="left")]
    s_out = f._piece_slopes[f._locations.searchsorted(xs, side="right")]
    if xs.ndim == 0:
        return float(s_in), float(s_out)
    return s_in, s_out


def breakpoint_arrays(f: PiecewiseLinear) -> tuple[np.ndarray, np.ndarray]:
    """Locations and slope jumps of the breakpoints of ``f``, as arrays."""
    return f._locations, f._jumps


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


def from_knots(
    knots: Sequence[tuple[float, float]] | np.ndarray,
    left_slope: float,
    right_slope: float,
) -> PiecewiseLinear:
    """PL interpolant of the knots, affine with the given slopes outside them.

    ``knots`` is a sequence of (x, y) pairs or an (n, 2) array.  Knot
    abscissae must be strictly increasing; a single knot yields the
    two-slope wedge (or a line when the slopes coincide).  Jumps are
    dropped and checked as :func:`canonical` does.
    """
    if len(knots) < 1:
        raise ValueError("need at least one knot")
    k = np.asarray(knots, dtype=float)
    xs, ys = k[:, 0], k[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        dx = xs[1:] - xs[:-1]
        if (dx <= 0).any():
            raise ValueError("knot abscissae must be strictly increasing")
        slopes = np.concatenate(([left_slope], (ys[1:] - ys[:-1]) / dx, [right_slope]))
        jumps = slopes[1:] - slopes[:-1]
    if not (np.isfinite(xs).all() and np.isfinite(jumps).all()):
        raise ValueError("breakpoint locations and jumps must be finite")
    size = np.abs(jumps)
    keep = size > JUMP_MERGE_RTOL * (1.0 + size.max())
    # via a list: tuple(zip(...)) resizes its result while filling it, and over many
    # small calls that kept the resident memory growing
    breakpoints = tuple(list(zip(xs[keep].tolist(), jumps[keep].tolist())))
    return PiecewiseLinear(anchor=(float(xs[0]), float(ys[0])), left_slope=float(left_slope),
                           breakpoints=breakpoints)


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
