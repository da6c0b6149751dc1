"""Continuous piecewise-linear functions on the real line, in knot-array form.

A function with k kinks is stored as four read-only arrays built once at
construction: the kink locations ``x`` (strictly increasing), the slope
jumps ``c`` (outgoing minus incoming slope, all nonzero), the values ``y``
at the kinks and the k + 1 piece slopes ``s``, the left slope first, plus
an anchor point ``(x0, v0)`` on the graph.  The distributional second
derivative is the atomic measure with weight ``c_j`` at ``x_j``, so total
variation, ReLU-network synthesis and the JSON form read the jumps;
evaluation interpolates the values, exact at every kink, and its tails,
the one-sided slopes and the Lipschitz norm read the slopes.

Each constructor keeps the quantity it is given and derives the others
once: :func:`from_knots` keeps knot values and takes the chord slopes and
jumps from value differences, :func:`canonical` keeps jumps and takes the
slopes by compensated prefix sums and the values by prefix sums from the
anchor.  :func:`from_knots` drops a knot whose jump is negligible together
with its value and takes the slopes and jumps of the knots kept again, so
no later slope absorbs a dropped jump.  :func:`to_json` is the one writer
of the JSON form, ``{"anchor": [x0, v0], "left_slope": s_0, "breakpoints":
[[x_1, c_1], ...]}`` with each float as its repr, the bytes ``json.dumps``
gives; :func:`from_json` is its one reader.  ``sample`` formats f_D's
numbers once and reuses their text in each member.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Callable, Sequence

import numpy as np

# canonical drops each jump, and from_knots each knot with its jump, where
# |c| <= JUMP_MERGE_RTOL * (1 + max |c|) (see _kept).
JUMP_MERGE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Canonical continuous PL function.

    Invariants (enforced at construction): kink locations strictly
    increasing, all jumps nonzero, everything finite, ``x``, ``c`` and
    ``y`` of one length and ``s`` one longer.  Use :func:`canonical` or
    :func:`from_knots` to build instances from unnormalized data.
    """

    anchor: tuple[float, float]
    x: np.ndarray  # kink locations
    c: np.ndarray  # slope jumps at the kinks
    y: np.ndarray  # values at the kinks
    s: np.ndarray  # piece slopes: on (-inf, x_1), then after each kink

    def __post_init__(self) -> None:
        x0, v0 = self.anchor
        if not (math.isfinite(x0) and math.isfinite(v0)):
            raise ValueError("anchor must be finite")
        # one read-only block whose rows are x, c and y, and the slope row;
        # count_nonzero is the cheapest reduction at a handful of kinks
        shapes = "kink locations, jumps and values must be 1-D and of one length, and the slopes one longer"
        xcy = float_rows((self.x, self.c, self.y), np.size(self.x), shapes)
        s = float_rows((self.s,), xcy.shape[1] + 1, shapes)[0]
        xcy.flags.writeable = s.flags.writeable = False
        x, c = xcy[0], xcy[1]
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "y", xcy[2])
        object.__setattr__(self, "s", s)
        if np.count_nonzero(np.isfinite(xcy)) + np.count_nonzero(np.isfinite(s)) < xcy.size + s.size:
            raise ValueError("breakpoints and slopes must be finite")
        if np.count_nonzero(x[1:] <= x[:-1]):
            raise ValueError("breakpoint locations not strictly increasing")
        if np.count_nonzero(c) < c.size:
            raise ValueError("zero jump; build through canonical or from_knots")

    @property
    def left_slope(self) -> float:
        """Slope of the leftmost piece, ``s[0]``."""
        return float(self.s[0])

    @cached_property
    def breakpoints(self) -> tuple[tuple[float, float], ...]:
        """The (location, jump) pairs, built on first access."""
        return tuple(zip(self.x.tolist(), self.c.tolist()))


def json_numbers(*rows) -> bool:
    """Whether each value in the rows is a JSON number (int or float, not bool)."""
    return {int, float}.issuperset(map(type, chain.from_iterable(rows)))


def json_fields(text: str, **depths: int) -> list:
    """The fields of the JSON object ``text``, in the order given: a field of depth 0 is a JSON
    number, of depth 1 a list of numbers and of depth 2 a list of such lists.  ValueError names
    the first field that is missing or of another form."""
    d = json.loads(text)
    if type(d) is not dict:
        raise ValueError(f"expected a JSON object with the fields {', '.join(depths)}")
    for name, depth in depths.items():
        rows = [[d.get(name)]] if depth == 0 else [d.get(name)] if depth == 1 else d.get(name)
        if not (type(rows) is list and set(map(type, rows)) <= {list} and json_numbers(*rows)):
            form = ("a number", "a list of numbers", "a list of lists of numbers")[depth]
            raise ValueError(f"{'bad' if name in d else 'missing'} field {name!r}: it must be {form}")
    return [d[name] for name in depths]


def float_rows(rows, width: int, message: str) -> np.ndarray:
    """``rows`` (an array or a sequence of rows) as a new (n, width) float array, else ValueError."""
    try:
        a = np.array(rows if len(rows) else np.empty((0, width)), dtype=float)
    except ValueError as e:  # ragged rows, or a value that does not convert
        raise ValueError(message) from e
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(message)
    return a


def evaluate(f: PiecewiseLinear, x):
    """Exact PL evaluation at a scalar or array of points."""
    xs = np.asarray(x, dtype=float)
    s = f.s
    if f.x.size:
        out = (np.interp(xs, f.x, f.y) + s[0] * np.minimum(xs - f.x[0], 0.0)
               + s[-1] * np.maximum(xs - f.x[-1], 0.0))
    else:
        out = f.anchor[1] + s[0] * (xs - f.anchor[0])
    return float(out) if xs.ndim == 0 else out


def one_sided_slopes(f: PiecewiseLinear, x):
    """Incoming and outgoing derivative at ``x``; equal off the kinks.

    A scalar ``x`` gives two floats, an array gives two arrays.
    """
    xs = np.asarray(x, dtype=float)
    s_in = f.s[f.x.searchsorted(xs, side="left")]
    s_out = f.s[f.x.searchsorted(xs, side="right")]
    if xs.ndim == 0:
        return float(s_in), float(s_out)
    return s_in, s_out


def _window(f: PiecewiseLinear, lo: float, hi: float) -> slice:
    """Index slice of the kinks strictly inside (lo, hi); empty unless lo < hi."""
    return slice(f.x.searchsorted(lo, side="right"), f.x.searchsorted(hi, side="left"))


def tv_of_derivative(f: PiecewiseLinear) -> float:
    """Total variation of the derivative: the sum of absolute slope jumps."""
    return float(np.abs(f.c).sum())


def lipschitz_norm(f: PiecewiseLinear) -> float:
    return float(np.abs(f.s).max())


def canonical(
    anchor: tuple[float, float],
    left_slope: float,
    breakpoints: Sequence[tuple[float, float]] | np.ndarray,
) -> PiecewiseLinear:
    """Build a canonical PL function from possibly unsorted/degenerate jumps.

    ``breakpoints`` is an (n, 2) array or a sequence of (location, jump)
    pairs.  They are sorted stably, jumps at one location are summed in
    input order (at the first one's location, sign of zero included), and
    jumps negligible relative to the largest one are dropped.
    The drop threshold carries a 1e-12 absolute floor so that slope
    dither on near-affine data reads as affine; data whose genuine slope
    jumps all sit below that floor should be rescaled first.  A
    non-finite location or (summed) jump raises ValueError, since an
    infinite jump would make every other jump fall below the threshold.
    The piece slopes follow from the left slope by compensated prefix
    sums of the jumps, and the values at the kinks from the anchor by
    prefix sums of the slopes.
    """
    rows = float_rows(breakpoints, 2, "breakpoints must be (location, jump) rows")
    x, c = rows[:, 0], rows[:, 1]
    if np.count_nonzero(x[1:] <= x[:-1]):  # unsorted, or rows that share a location
        locs, jumps = rows[x.argsort(kind="stable")].T
        first = np.concatenate(([True], locs[1:] != locs[:-1]))  # the first row at each location
        x, c = locs[first], jumps[first]
        if x.size < locs.size:  # the other rows, added in input order: add.at takes them in turn
            with np.errstate(over="ignore", invalid="ignore"):
                np.add.at(c, np.cumsum(first)[~first] - 1, jumps[~first])
    keep = _kept(x, c)
    x, c = x[keep], c[keep]
    x0, v0 = float(anchor[0]), float(anchor[1])
    y = x
    # finite input that overflows is left to PiecewiseLinear's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        s = _prefix_sums(np.concatenate(([left_slope], c)))  # slope on each piece
        if x.size:
            # values by prefix sums from the first kink, then shifted through the anchor
            rel = np.add.accumulate(np.concatenate(([0.0], s[1:-1] * (x[1:] - x[:-1]))))
            i = int(x.searchsorted(x0, side="right"))
            ref = max(i - 1, 0)
            y = rel + (v0 - (rel[ref] + s[i] * (x0 - x[ref])))
    return PiecewiseLinear((x0, v0), x, c, y, s)


def _kept(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Mask of the kinks kept, |c| > JUMP_MERGE_RTOL * (1 + max |c|); ValueError if one is not finite."""
    if np.count_nonzero(np.isfinite(x)) + np.count_nonzero(np.isfinite(c)) < x.size + c.size:
        raise ValueError("breakpoint locations and jumps must be finite")
    size = np.abs(c)
    return size > JUMP_MERGE_RTOL * (1.0 + size.max(initial=0.0))


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """Prefix sums of ``a`` with the rounding error of each step added back.

    The error of each addition is exact (TwoSum), so the slopes that the
    values integrate do not drift with the number of kinks; the first sum
    is ``a[0]`` itself, sign of zero included.
    """
    s = np.add.accumulate(a)
    prev, b = s[:-1], s[1:] - s[:-1]
    s[1:] += np.add.accumulate((prev - (s[1:] - b)) + (a[1:] - b))
    return s


def _knot_jumps(x: np.ndarray, y: np.ndarray, left_slope: float,
                right_slope: float) -> tuple[np.ndarray, np.ndarray]:
    """Piece slopes of the interpolant with the given tail slopes, and its jumps at the knots."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.concatenate(([left_slope], (y[1:] - y[:-1]) / (x[1:] - x[:-1]), [right_slope]))
        return s, s[1:] - s[:-1]


def from_knots(
    knots: Sequence[tuple[float, float]] | np.ndarray,
    left_slope: float,
    right_slope: float,
) -> PiecewiseLinear:
    """PL interpolant of the knots, affine with the given slopes outside them.

    ``knots`` is a sequence of (x, y) pairs or an (n, 2) array.  Knot
    abscissae must be strictly increasing; a single knot yields the
    two-slope wedge (or a line when the slopes coincide).  Non-finite
    input raises as in :func:`canonical`.  A knot whose jump falls under
    canonical's drop threshold is dropped with its value, and unless all
    dropped jumps were zero the jumps of the knots kept are taken again
    from their values, until no jump is under the threshold; so no later
    slope absorbs a dropped jump.
    """
    x, y = float_rows(knots, 2, "knots must be (x, y) rows").T
    if not x.size:
        raise ValueError("need at least one knot")
    if np.count_nonzero(x[1:] <= x[:-1]):
        raise ValueError("knot abscissae must be strictly increasing")
    s, c = _knot_jumps(x, y, left_slope, right_slope)
    anchor = (float(x[0]), float(y[0]))
    while True:
        keep = _kept(x, c)
        if np.count_nonzero(keep) == keep.size:
            break
        x, y, c, dropped = x[keep], y[keep], c[keep], c[~keep]
        if not (x.size and np.count_nonzero(dropped)):
            # affine, or only zero jumps dropped (no other jump absorbs them), each with the piece after it
            s = s[np.concatenate(([True], keep))]
            break
        s, c = _knot_jumps(x, y, left_slope, right_slope)
    return PiecewiseLinear(anchor, x, c, y, s)


def allowance(rtol: float, *scales):
    """``rtol * max(1, |scale|, ...)`` elementwise, the slack of every floored relative test.

    Scalar scales give a numpy scalar, so a flag compared against it needs ``bool``.
    """
    return rtol * reduce(np.maximum, map(np.abs, scales), 1.0)


def structurally_equal(f: PiecewiseLinear, g: PiecewiseLinear, rtol: float = 1e-12) -> bool:
    """Whole-line structural equality of two canonical PL functions."""
    if f.x.size != g.x.size:
        return False
    x0 = f.anchor[0]
    a = np.concatenate(([f.left_slope, evaluate(f, x0)], f.x, f.c))
    b = np.concatenate(([g.left_slope, evaluate(g, x0)], g.x, g.c))
    return not np.count_nonzero(np.abs(a - b) > allowance(rtol, a, b))


def to_json(f: PiecewiseLinear) -> str:
    return _json(f, _text(np.column_stack((f.x, f.c))))


def _text(a: np.ndarray) -> list[str]:
    """The numbers of ``a``, row by row, each as json writes a finite float: its repr."""
    return list(map(repr, a.ravel().tolist()))


def _json(f: PiecewiseLinear, text: list[str]) -> str:
    """f's JSON form, as ``json.dumps`` writes it, with ``text`` for each kink's location and jump."""
    head = json.dumps({"anchor": [f.anchor[0], f.anchor[1]], "left_slope": f.left_slope})[:-1]
    pairs = "], [".join(map(", ".join, zip(text[0::2], text[1::2])))
    return head + (f', "breakpoints": [[{pairs}]]}}' if text else ', "breakpoints": []}')


def _json_like(g: PiecewiseLinear) -> Callable[[PiecewiseLinear], str]:
    """A ``to_json`` that formats g's numbers once: each number of f with the bits of g's at
    the kink where f's sorts into ``g.x`` (-0.0 is not 0.0) takes g's text."""
    g_xc = np.vstack((np.column_stack((g.x, g.c)), (np.nan, np.nan)))  # a last row no number matches
    g_text, g_bits = np.array(_text(g_xc), dtype=object).reshape(g_xc.shape), g_xc.view(np.int64)

    def write(f: PiecewiseLinear) -> str:
        at, xc = g.x.searchsorted(f.x), np.column_stack((f.x, f.c))
        text, new = g_text[at], xc.view(np.int64) != g_bits[at]
        text[new] = _text(xc[new])
        return _json(f, text.ravel().tolist())

    return write


def from_json(text: str) -> PiecewiseLinear:
    anchor, left_slope, rows = json_fields(text, anchor=1, left_slope=0, breakpoints=2)
    if len(anchor) != 2:
        raise ValueError(f"bad field 'anchor': it must be [x0, v0], two numbers, not {len(anchor)}")
    return canonical((float(anchor[0]), float(anchor[1])), float(left_slope), rows)
