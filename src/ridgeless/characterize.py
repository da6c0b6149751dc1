"""Geometric characterization of the minimal-TV interpolant family.

Given a dataset, every gap between consecutive points is classified as
either *forced* (the interpolant must follow the connect-the-dots chord
there) or *free* (any convex-or-concave deviation between the chord and
the tangent support lines is allowed).  ``characterize`` returns the
classification as read-only arrays, ``ch.gaps`` and ``ch.blocks``.  It is
driven by the discrete curvature signs, and each gap gets a class code:

  - END: the two outermost gaps are always forced ("1a");
  - FLAT: a gap next to a point of zero curvature is forced ("1b");
  - FLIP: a gap whose endpoints disagree on curvature sign is forced ("1c");
  - FREE: remaining gaps, where both endpoints share a strict curvature
    sign, are free, and maximal runs of them form free blocks.

A function belongs to the family iff it interpolates, matches the chords
on every forced gap, and on each free block stays convex (concave) between
the chord and the two support lines.  Equivalently, it interpolates with
the minimal possible total variation of its derivative.  Both tests are
implemented; their agreement is exercised heavily in the test suite.

Indices follow the 1-based convention used throughout: points are
numbered 1..m, gap i is (x_i, x_{i+1}), slope s_i belongs to gap i and
curvature eps_i to point i.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dataset import Dataset, SlopeProfile, slope_profile
from .plfun import PiecewiseLinear, allowance, evaluate, from_knots, one_sided_slopes, tv_of_derivative

DEFAULT_MEMBERSHIP_RTOL = 1e-9
TV_FORMULA_RTOL = 1e-9  # characterize warns when its two TV sums differ by more than this, relatively

# Tags of conditions checked by the direct (geometric) membership test.
DIRECT_TAGS = frozenset(
    {"interp", "forced-1a", "forced-1b", "forced-1c",
     "block-monotone", "block-envelope", "block-boundary-slope"}
)

# Gap classes, as codes into REASONS: why a gap of each class is forced.
FREE, END, FLAT, FLIP = 0, 1, 2, 3
REASONS = (None, "1a", "1b", "1c")


@dataclass(frozen=True, eq=False)
class Gaps:
    """The class of every gap 1..m-1, and the forced and free gaps, as read-only arrays."""

    code: np.ndarray
    forced: np.ndarray
    free: np.ndarray


@dataclass(frozen=True, eq=False)
class Blocks:
    """The free blocks as read-only arrays: block k spans knots a[k]..b[k]
    (numbered from 1) and is convex for sign[k] = +1, concave for -1."""

    a: np.ndarray
    b: np.ndarray
    sign: np.ndarray
    knots: np.ndarray  # every block knot, block by block

    def __len__(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class Characterization:
    """The family of one dataset; ``gaps`` and ``blocks`` classify its gaps."""

    dataset: Dataset
    profile: SlopeProfile
    gaps: Gaps
    blocks: Blocks
    inflection_set: tuple[int, ...]
    minimal_tv: float
    f_D: PiecewiseLinear

    def to_dict(self) -> dict:
        code = self.gaps.code.tolist()
        a, b = self.blocks.a, self.blocks.b
        block = (a.searchsorted(np.arange(1, len(code) + 1), side="right") - 1).tolist()
        xs, ys, s = self.dataset.xs, self.dataset.ys, self.profile.slopes
        return {
            "verdicts": [
                {"index": j, "kind": "free" if c == FREE else "forced", "reason": REASONS[c],
                 "block": k if c == FREE else None}
                for j, c, k in zip(range(1, len(code) + 1), code, block)
            ],
            "blocks": [
                {"knot_range": [ak, bk], "sign": sk,
                 "lower_support": {"through": [xa, ya], "slope": sa},
                 "upper_support": {"through": [xb, yb], "slope": sb}}
                for ak, bk, sk, xa, ya, sa, xb, yb, sb in zip(
                    a.tolist(), b.tolist(), self.blocks.sign.tolist(),
                    xs[a - 1].tolist(), ys[a - 1].tolist(), s[a - 2].tolist(),
                    xs[b - 1].tolist(), ys[b - 1].tolist(), s[b - 1].tolist(),
                )
            ],
            "inflection_set": list(self.inflection_set),
            "minimal_tv": self.minimal_tv,
        }


@dataclass(frozen=True, slots=True)
class Violation:
    tag: str
    location: float | int | None
    magnitude: float


@dataclass(frozen=True)
class MembershipReport:
    is_member: bool
    direct_pass: bool
    tv_pass: bool
    tv_value: float
    minimal_tv: float
    violations: tuple[Violation, ...]


def connect_the_dots(d: Dataset) -> PiecewiseLinear:
    """Chord interpolant, extended by the first and last chord slopes."""
    return _chord_interpolant(d, slope_profile(d))


def _chord_interpolant(d: Dataset, prof: SlopeProfile) -> PiecewiseLinear:
    return from_knots(np.column_stack((d.xs, d.ys)), prof.slopes[0], prof.slopes[-1])


def _inflection_indices(eps: np.ndarray) -> np.ndarray:
    """1, m-1 and every interior gap whose end curvatures differ (1-based)."""
    mask = np.ones(len(eps) + 1, dtype=bool)
    mask[1:-1] = eps[:-1] != eps[1:]
    return np.flatnonzero(mask) + 1


def _classify(eps: np.ndarray) -> tuple[Gaps, Blocks]:
    """Classify the gaps from the curvatures eps_2..eps_{m-1}; find the blocks.

    Gap j (2 <= j <= m-2) has curvatures eps_j and eps_{j+1} at its ends.
    A block is a maximal run of free gaps j0..j1; it spans knots
    a = j0 .. b = j1 + 1 and takes the sign of eps_a.
    """
    left, right = eps[:-1], eps[1:]
    code = np.full(len(eps) + 1, END)
    code[1:-1] = np.where((left == 0) | (right == 0), FLAT, np.where(left == right, FREE, FLIP))
    is_free = code == FREE
    padded = np.concatenate(([False], is_free, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]) + 1
    a, b = edges[0::2], edges[1::2]
    knots = np.flatnonzero(padded[:-1] | padded[1:]) + 1  # knot j borders free gap j-1 or j
    gaps = Gaps(code, np.flatnonzero(~is_free) + 1, np.flatnonzero(is_free) + 1)
    blocks = Blocks(a, b, eps[a - 2], knots)
    # read-only, since sampling and membership trust them
    for array in (*vars(gaps).values(), *vars(blocks).values()):
        array.flags.writeable = False
    return gaps, blocks


def _abs_differences(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Floats whose exact sum is the exact sum of |hi - lo|.

    TwoSum splits hi - lo into its rounded value d and the exact error e;
    |hi - lo| = |d| + sign(d) * e exactly, since |e| is below half an ulp
    of d.  ``math.fsum`` of these terms is the correctly rounded sum.
    """
    d = hi - lo
    z = d - hi
    e = (hi - (d - z)) - (lo + z)
    return np.concatenate((np.abs(d), np.sign(d) * e))


def _insert_sorted(a: np.ndarray, at: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.insert(a, at, b)`` for nondecreasing ``at``, without a sort."""
    pos = at + np.arange(len(b))
    out = np.empty((len(a) + len(b),) + a.shape[1:])
    rest = np.ones(len(out), dtype=bool)
    rest[pos] = False
    out[pos], out[rest] = b, a
    return out


def characterize(d: Dataset) -> Characterization:
    prof = slope_profile(d)
    s = prof.slopes
    inflection_set = _inflection_indices(prof.curvatures)
    adjacent = _abs_differences(s[1:], s[:-1])
    minimal_tv = math.fsum(adjacent.tolist())
    inflect = _abs_differences(s[inflection_set[1:] - 1], s[inflection_set[:-1] - 1])
    disagreement = math.fsum(np.concatenate((adjacent, -inflect)).tolist())
    # Sub-tolerance slope wiggles (dithered collinear data) make the two sums
    # differ by a few ulps, which is expected; anything larger is a real
    # inconsistency.  The adjacent-gap sum is the true TV of the chord
    # interpolant either way.
    if abs(disagreement) > allowance(TV_FORMULA_RTOL, minimal_tv):
        warnings.warn("TV formulas disagree by %.3g on this dataset" % disagreement, RuntimeWarning)

    gaps, blocks = _classify(prof.curvatures)
    return Characterization(
        dataset=d,
        profile=prof,
        gaps=gaps,
        blocks=blocks,
        inflection_set=tuple(inflection_set.tolist()),
        minimal_tv=minimal_tv,
        f_D=_chord_interpolant(d, prof),
    )


def check_membership_against(
    ch: Characterization, f: PiecewiseLinear, tol: float = DEFAULT_MEMBERSHIP_RTOL
) -> MembershipReport:
    """Run both membership tests and collect per-condition diagnostics.

    The direct test checks interpolation, chord agreement on forced gaps,
    and the convexity/envelope conditions on free blocks.  The TV test
    checks interpolation plus minimality of the derivative's total
    variation.  All failures are recorded as data, never raised.
    Violations come in the order: interpolation by data point, then per
    forced gap, then per block, then the TV mismatch.
    """
    if not tol >= 0:  # also rejects nan, under which every comparison would pass
        raise ValueError("tolerance must be nonnegative")
    xs, ys = ch.dataset.xs, ch.dataset.ys

    err = np.abs(evaluate(f, xs) - ys)
    bad = err > allowance(tol, ys)
    violations = list(map(Violation, repeat("interp"), xs[bad].tolist(), err[bad].tolist()))
    interp_ok = not violations
    violations += _forced_violations(ch, f, tol)
    violations += _block_violations(ch, f, tol)

    tv_value = tv_of_derivative(f)
    tv_gap = abs(tv_value - ch.minimal_tv)
    tv_close = bool(tv_gap <= allowance(tol, ch.minimal_tv))
    if not tv_close:
        violations.append(Violation("tv-mismatch", None, tv_gap))

    direct_pass = not any(v.tag in DIRECT_TAGS for v in violations)
    return MembershipReport(
        is_member=direct_pass,
        direct_pass=direct_pass,
        tv_pass=interp_ok and tv_close,
        tv_value=tv_value,
        minimal_tv=ch.minimal_tv,
        violations=tuple(violations),
    )


def _in_order(keys, locations, magnitudes, tags) -> list[Violation]:
    """Violations from parallel lists of arrays, stably sorted by key.

    ``tags`` maps the sorted keys to the violation tags.
    """
    key = np.concatenate(keys)
    if not key.size:
        return []
    order = np.argsort(key, kind="stable")
    return list(map(Violation, tags(key[order]), np.concatenate(locations)[order].tolist(),
                    np.concatenate(magnitudes)[order].tolist()))


def _forced_violations(ch: Characterization, f: PiecewiseLinear, tol: float) -> list[Violation]:
    """f against the chord on every forced gap at once.

    Gap 1 reaches to -inf and gap m-1 to +inf.  f_D has kinks only at
    interior data points, which lie in no open gap, so on each gap the
    mismatches are f's own kinks there, by location, then the value at
    one probe point, then its one-sided slopes.  The probe is f's first
    kink in the gap, else a point inside it.
    """
    xs, m = ch.dataset.xs, ch.dataset.m
    code, forced = ch.gaps.code, ch.gaps.forced
    loc = f.x
    left, right = xs.searchsorted(loc, side="left"), xs.searchsorted(loc, side="right")
    gap = np.minimum(np.maximum(right, 1), m - 1)  # of each kink, unless on an interior data point
    kink = ((left == right) | (right == 1) | (right == m)) & (code[gap - 1] != FREE)
    gap, loc, size = gap[kink], loc[kink], np.abs(f.c[kink])
    mismatch = size > allowance(tol, size)

    lo, hi = xs[forced - 1], xs[forced]
    probe = 0.5 * (lo + hi)
    # gaps 1 and m-1, both forced: one unit out, or one ulp where |x| is so large the unit rounds away
    probe[0] = min(hi[0] - 1.0, np.nextafter(hi[0], -np.inf))
    probe[-1] = max(lo[-1] + 1.0, np.nextafter(lo[-1], np.inf))
    if m == 2:
        probe[0] = 0.0
    at = gap.searchsorted(forced)
    has_kink = at < gap.searchsorted(forced, side="right")
    probe[has_kink] = loc[at[has_kink]]

    fv, gv = evaluate(f, probe), evaluate(ch.f_D, probe)
    dv = np.abs(fv - gv)
    bad_value = dv > allowance(tol, gv)
    (fi, fo), (gi, go) = one_sided_slopes(f, probe), one_sided_slopes(ch.f_D, probe)
    d_in, d_out = np.abs(fi - gi), np.abs(fo - go)
    scale = allowance(tol, gi, go)
    bad_in = d_in > scale
    bad_slope = bad_in | (d_out > scale)
    d_slope = np.where(bad_in, d_in, d_out)

    return _in_order(
        [3 * gap[mismatch], 3 * forced[bad_value] + 1, 3 * forced[bad_slope] + 2],
        [loc[mismatch], probe[bad_value], probe[bad_slope]],
        [size[mismatch], dv[bad_value], d_slope[bad_slope]],
        lambda key: [f"forced-{REASONS[c]}" for c in code[key // 3 - 1].tolist()],
    )


def _block_violations(ch: Characterization, f: PiecewiseLinear, tol: float) -> list[Violation]:
    """The free-block conditions on every block at once, in block order.

    Per block: slope monotonicity at each of f's kinks inside it, the
    boundary slopes against the flanking chord slopes, then the envelope
    between the support lines and the chord.
    """
    a, b, knots = ch.blocks.a, ch.blocks.b, ch.blocks.knots
    if not a.size:
        return []
    xs, s = ch.dataset.xs, ch.profile.slopes
    xa, xb = xs[a - 1], xs[b - 1]
    sigma = ch.blocks.sign.astype(float)

    # slope monotonicity inside each block: non-decreasing for convex blocks
    loc = f.x
    blk = xa.searchsorted(loc, side="left") - 1  # last block starting left of the kink
    inside = (blk >= 0) & (loc < xb[blk])
    blk, loc = blk[inside], loc[inside]
    s_before, s_after = one_sided_slopes(f, loc)
    drop = sigma[blk] * (s_after - s_before)
    bad_drop = drop < -allowance(tol, s_before, s_after)

    # boundary slopes must respect the flanking chord slopes
    s_first, s_last = one_sided_slopes(f, xa)[1], one_sided_slopes(f, xb)[0]
    s_enter, s_exit = s[a - 2], s[b - 1]
    gap_in = sigma * (s_first - s_enter)
    bad_in = gap_in < -allowance(tol, s_first, s_enter)
    gap_out = sigma * (s_exit - s_last)
    bad_out = gap_out < -allowance(tol, s_last, s_exit)

    # envelope: between the support lines and the chord.  PL-vs-PL bounds are
    # decided at the union of kinks, so checking f's breakpoints and the block
    # knots is exact up to tolerance.
    knot_x = xs[knots - 1]
    at = knot_x.searchsorted(loc)
    off_knots = knot_x[at] != loc  # every kink here lies below its block's last knot
    pts = _insert_sorted(knot_x, at[off_knots], loc[off_knots])
    pb = xa.searchsorted(pts, side="right") - 1
    fv, cv = evaluate(f, pts), evaluate(ch.f_D, pts)
    lv = support_envelope(ch, pb, pts)
    below = sigma[pb] * (fv - lv)  # must be >= 0: above support lines (convex case)
    above = sigma[pb] * (cv - fv)  # must be >= 0: below the chord (convex case)
    worst = np.minimum(below, above)
    bad_env = worst < -allowance(tol, cv, lv)

    ids = np.arange(a.size)
    tags = ("block-monotone", "block-boundary-slope", "block-boundary-slope", "block-envelope")
    return _in_order(
        [4 * blk[bad_drop], 4 * ids[bad_in] + 1, 4 * ids[bad_out] + 2, 4 * pb[bad_env] + 3],
        [loc[bad_drop], xa[bad_in], xb[bad_out], pts[bad_env]],
        [-drop[bad_drop], -gap_in[bad_in], -gap_out[bad_out], -worst[bad_env]],
        lambda key: [tags[r] for r in (key % 4).tolist()],
    )


def support_envelope(ch: Characterization, block: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The envelope of the two support lines of each ``block`` at ``x``.

    Block k's support lines pass through its knots a and b with the
    flanking chord slopes s_{a-1} and s_b; the envelope is the higher line
    on a convex block and the lower on a concave one.  ``block`` holds
    block ids and broadcasts against ``x``.
    """
    a, b = ch.blocks.a[block], ch.blocks.b[block]
    xs, ys, s = ch.dataset.xs, ch.dataset.ys, ch.profile.slopes
    lower = (x - xs[a - 1]) * s[a - 2] + ys[a - 1]
    upper = (x - xs[b - 1]) * s[b - 1] + ys[b - 1]
    return np.where(ch.blocks.sign[block] > 0, np.maximum(lower, upper), np.minimum(lower, upper))


def localized_slope_bounds(ch: Characterization) -> np.ndarray:
    """Per-gap bound on how far a member's slopes may drift from the chord.

    Gap i gets |s_{i+1}-s_i| + |s_i-s_{i-1}| + |s_{i-1}-s_{i-2}| with the
    slope index clamped to the valid range at both ends, so a difference
    that reaches past either end counts as zero.
    """
    pad = np.concatenate([[0.0, 0.0], np.abs(np.diff(ch.profile.slopes)), [0.0]])
    return pad[2:] + pad[1:-1] + pad[:-2]
