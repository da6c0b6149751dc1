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
``check_membership_against`` runs both in one pass: it evaluates f and
f_D once each over all its query points, and builds violation records
only for the conditions that failed.  What it needs of the data alone,
block ids, forced-gap probe points and support lines, ``characterize``
computes once and keeps in ``ch.gaps`` and ``ch.blocks``.

Indices follow the 1-based convention used throughout: points are
numbered 1..m, gap i is (x_i, x_{i+1}), slope s_i belongs to gap i and
curvature eps_i to point i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, SlopeProfile, slope_profile
from .plfun import PiecewiseLinear, allowance, evaluate, from_knots, one_sided_slopes, tv_of_derivative

DEFAULT_MEMBERSHIP_RTOL = 1e-9

# Tags of conditions checked by the direct (geometric) membership test; a
# forced gap's tag sits at its class code.
DIRECT_TAGS = ("interp", "forced-1a", "forced-1b", "forced-1c",
               "block-monotone", "block-boundary-slope", "block-envelope")

# Gap classes, as codes into REASONS: why a gap of each class is forced.
FREE, END, FLAT, FLIP = 0, 1, 2, 3
REASONS = (None, "1a", "1b", "1c")

# Per segment of the direct test's conditions (interpolation, forced-gap kinks,
# probe values, probe slopes, block slopes, entry and exit slopes, envelope):
# the step of its sort key per group, and its tag code (-1: the gap's class).
_SEGMENTS, _KEY_STEP, _SEGMENT_TAG = np.array((range(8), (0, 3, 3, 3, 4, 4, 4, 4), (0, -1, -1, -1, 4, 5, 5, 6)))


@dataclass(frozen=True, eq=False)
class Gaps:
    """The class of every gap 1..m-1, and the forced and free gaps, as read-only arrays."""

    code: np.ndarray
    forced: np.ndarray
    free: np.ndarray
    block: np.ndarray  # the block of every gap, -1 on forced gaps
    probe: np.ndarray  # a point inside each forced gap (see _classify)


@dataclass(frozen=True, eq=False)
class Blocks:
    """The free blocks as read-only arrays: block k spans knots a[k]..b[k]
    (numbered from 1) and is convex for sign[k] = +1, concave for -1.  Its
    support lines pass through (x_a, y_a) with slope s_{a-1} and through
    (x_b, y_b) with slope s_b: the columns of ``lower_support`` and
    ``upper_support``, whose rows are x, y and slope."""

    a: np.ndarray
    b: np.ndarray
    sign: np.ndarray
    knots: np.ndarray  # every block knot, block by block
    knot_block: np.ndarray  # the block of each of ``knots``
    lower_support: np.ndarray
    upper_support: np.ndarray

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
    shortfall: float  # the slope differences at zero curvature, which the inflection set skips
    f_D: PiecewiseLinear

    def to_dict(self) -> dict:
        blocks = self.blocks
        return {
            "verdicts": [
                {"index": j, "kind": "free" if c == FREE else "forced", "reason": REASONS[c],
                 "block": k if c == FREE else None}
                for j, (c, k) in enumerate(zip(self.gaps.code.tolist(), self.gaps.block.tolist()), 1)
            ],
            "blocks": [
                {"knot_range": [ak, bk], "sign": sk,
                 "lower_support": {"through": [xa, ya], "slope": sa},
                 "upper_support": {"through": [xb, yb], "slope": sb}}
                for ak, bk, sk, (xa, ya, sa), (xb, yb, sb) in zip(
                    blocks.a.tolist(), blocks.b.tolist(), blocks.sign.tolist(),
                    blocks.lower_support.T.tolist(), blocks.upper_support.T.tolist())
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


def _classify(d: Dataset, prof: SlopeProfile) -> tuple[Gaps, Blocks, tuple[int, ...]]:
    """Classify the gaps from the curvatures eps_2..eps_{m-1}; find the blocks
    and the inflection set (see ``characterize``).

    Gap j (2 <= j <= m-2) has curvatures eps_j and eps_{j+1} at its ends.
    A block is a maximal run of free gaps j0..j1; it spans knots
    a = j0 .. b = j1 + 1 and takes the sign of eps_a.  A forced gap's probe
    is its midpoint, and on gaps 1 and m-1, which reach to -inf and +inf,
    one unit beyond the data (one ulp where |x| is so large the unit rounds
    away); 0 when m = 2.
    """
    xs, ys, s, eps = d.xs, d.ys, prof.slopes, prof.curvatures
    left, right = eps[:-1], eps[1:]
    inflects = np.ones(len(eps) + 1, dtype=bool)
    inflects[1:-1] = left != right
    code = np.full(len(eps) + 1, END)
    code[1:-1] = np.where((left == 0) | (right == 0), FLAT, np.where(inflects[1:-1], FLIP, FREE))
    is_free = code == FREE
    padded = np.concatenate(([False], is_free, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]) + 1
    a, b = edges[0::2], edges[1::2]
    knots = np.flatnonzero(padded[:-1] | padded[1:]) + 1  # knot j borders free gap j-1 or j
    ids, free, forced = np.arange(a.size), np.flatnonzero(is_free) + 1, np.flatnonzero(~is_free) + 1
    block = np.full(d.m - 1, -1)
    block[free - 1] = np.repeat(ids, b - a)  # block k's gaps are a[k]..b[k]-1
    lo, hi = xs[forced - 1], xs[forced]
    probe = 0.5 * (lo + hi)
    probe[0] = min(hi[0] - 1.0, np.nextafter(hi[0], -np.inf))
    probe[-1] = max(lo[-1] + 1.0, np.nextafter(lo[-1], np.inf))
    if d.m == 2:
        probe[0] = 0.0
    gaps = Gaps(code, forced, free, block, probe)
    blocks = Blocks(a, b, eps[a - 2], knots, np.repeat(ids, b - a + 1),
                    np.array((xs[a - 1], ys[a - 1], s[a - 2])), np.array((xs[b - 1], ys[b - 1], s[b - 1])))
    # read-only, since sampling and membership trust them
    for array in (*vars(gaps).values(), *vars(blocks).values()):
        array.flags.writeable = False
    return gaps, blocks, tuple((np.flatnonzero(inflects) + 1).tolist())


def _abs_differences(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Two rows of floats whose exact column sums are the exact |hi - lo|.

    TwoSum splits hi - lo into its rounded value d and the exact error e;
    |hi - lo| = |d| + sign(d) * e exactly, since |e| is below half an ulp
    of d.  ``math.fsum`` of any set of columns is their correctly rounded sum.
    """
    d = hi - lo
    z = d - hi
    e = (hi - (d - z)) - (lo + z)
    return np.array((np.abs(d), np.sign(d) * e))


def characterize(d: Dataset) -> Characterization:
    """The gap classes, free blocks, inflection set, C* and f_D of ``d``.

    C* (``minimal_tv``) is the correctly rounded sum of |s_i - s_{i-1}| over
    the interior points, and ``shortfall`` that of the same terms where
    eps_i = 0.  The inflection set is gaps 1 and m-1 and every gap whose end
    curvatures differ; when m = 2 those are one gap, so it is (1,), and C*
    and the shortfall are 0.  Its sum of |s_b - s_a| over consecutive gaps
    a < b falls below C* by at most the shortfall: the terms telescope on
    each run of one strict curvature sign.
    """
    prof = slope_profile(d)
    s = prof.slopes
    terms = _abs_differences(s[1:], s[:-1])
    gaps, blocks, inflection_set = _classify(d, prof)
    return Characterization(
        dataset=d,
        profile=prof,
        gaps=gaps,
        blocks=blocks,
        inflection_set=inflection_set,
        minimal_tv=math.fsum(terms.ravel().tolist()),
        shortfall=math.fsum(terms[:, prof.curvatures == 0].ravel().tolist()),
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

    One pass: f's kinks are located against the data once, and f and f_D
    are each evaluated once, and their one-sided slopes taken once, at the
    query points of every condition together.  Every condition of the
    direct test is an excess that fails above ``allowance(tol, scales)``;
    those with one scale are decided in one comparison, and those with two
    in another.  Violation records are built only for the conditions that
    failed, in the order: interpolation by data point, then per forced gap,
    then per block, then the TV mismatch.
    """
    if not 0 <= tol < math.inf:  # nan or inf would let every comparison pass
        raise ValueError("tolerance must be nonnegative and finite")
    xs, ys, m = ch.dataset.xs, ch.dataset.ys, ch.dataset.m
    code, forced, of_gap = ch.gaps.code, ch.gaps.forced, ch.gaps.block
    knots, sigma, nb = ch.blocks.knots, ch.blocks.sign, len(ch.blocks)
    lower, upper = ch.blocks.lower_support, ch.blocks.upper_support
    xa, xb, s_enter, s_exit = lower[0], upper[0], lower[2], upper[2]

    # f's kinks against the interior data points: right is each kink's gap
    # (0-based; the end gaps reach to -inf and +inf, so x_1 and x_m lie in
    # them), and on an interior data point left != right is the gap before it
    loc = f.x
    left, right = xs[1:-1].searchsorted(loc, side="left"), xs[1:-1].searchsorted(loc, side="right")
    off_data = left == right
    blk = of_gap[right]  # -1 in a forced gap
    # Forced gaps.  f_D has kinks only at interior data points, which lie in no
    # open gap, so on each gap the mismatches are f's own kinks there, by
    # location, then the value at one probe point, then its one-sided slopes.
    # The probe is f's first kink in the gap, else the gap's own probe point.
    kink = off_data & (blk < 0)
    # Blocks: f's kinks strictly between a block's first and last knot, where
    # both gaps beside the kink are free (one gap, off the data).  PL-vs-PL
    # bounds are decided at the union of kinks, so the envelope is checked at
    # the block knots and at the kinks off the data, which is exact up to
    # tolerance.
    inside = np.minimum(of_gap[left], blk) >= 0
    gap, kink_x, size = right[kink] + 1, loc[kink], np.abs(f.c[kink])
    probe = ch.gaps.probe.copy()
    at = gap.searchsorted(forced)
    has_kink = at < gap.searchsorted(forced, side="right")
    probe[has_kink] = kink_x[at[has_kink]]
    blk, block_x, off_knots = blk[inside], loc[inside], off_data[inside]
    off_x = block_x[off_knots]
    env_x = np.concatenate((xs[knots - 1], off_x))
    env_blk = np.concatenate((ch.blocks.knot_block, blk[off_knots]))

    # every value and one-sided slope that the conditions read, f and f_D each in one call
    n, k = forced.size, block_x.size
    fv = evaluate(f, np.concatenate((xs, probe, off_x)))
    f_data, f_probe, f_env = fv[:m], fv[m:m + n], np.concatenate((fv[knots - 1], fv[m + n:]))
    gv = evaluate(ch.f_D, np.concatenate((probe, env_x)))
    g_probe, g_env = gv[:n], gv[n:]
    f_in, f_out = one_sided_slopes(f, np.concatenate((probe, block_x, xa, xb)))
    g_in, g_out = one_sided_slopes(ch.f_D, probe)
    s_before, s_after = f_in[n:n + k], f_out[n:n + k]
    s_first, s_last = f_out[n + k:n + k + nb], f_in[n + k + nb:]
    lv = support_envelope(ch, env_blk, env_x)

    # Each condition's excess, positive where f breaks it, fails above
    # allowance(tol, its scales).  One scale: interpolation, forced-gap kinks
    # and probe values.  Two: the probe slopes (the larger side), then, on a
    # convex block (signs flip on a concave one), a slope that drops at a kink,
    # starts below the chord slope entering the block or ends above the one
    # leaving it, and f below the support lines or above the chord.  The
    # allowances come first, while the fewest large arrays are alive.
    allow_two = allowance(tol, np.concatenate((g_in, s_before, s_first, s_last, g_env)),
                          np.concatenate((g_out, s_after, s_enter, s_exit, lv)))
    allow_one = allowance(tol, np.concatenate((ys, size, g_probe)))
    d_in, d_out = np.abs(f_in[:n] - g_in), np.abs(f_out[:n] - g_out)
    s_env = sigma[env_blk]
    one = np.concatenate((np.abs(f_data - ys), size, np.abs(f_probe - g_probe)))
    two = np.concatenate((np.maximum(d_in, d_out), sigma[blk] * (s_before - s_after),
                          sigma * (s_enter - s_first), sigma * (s_last - s_exit),
                          np.maximum(s_env * (lv - f_env), s_env * (f_env - g_env))))
    failed = np.concatenate((one > allow_one, two > allow_two))
    direct_pass = not np.count_nonzero(failed)
    violations = []
    if not direct_pass:
        two[:n] = np.where(d_in > allow_two[:n], d_in, d_out)  # a probe's incoming side, if that fails
        # Failures sort by key = step * group + offset, then by location: the
        # groups are forced gaps, then blocks after every forced gap's key (3m),
        # and a block's knots and kinks off them interleave by location.
        base = 3 * m
        seg = np.repeat(_SEGMENTS, (m, gap.size, n, n, k, nb, nb, env_x.size))[failed]
        group = np.concatenate((np.zeros(m, int), gap, forced, forced, blk,
                                np.arange(nb), np.arange(nb), env_blk))[failed]
        key = _KEY_STEP[seg] * group + np.array((0, 0, 1, 2, base, base + 1, base + 2, base + 3))[seg]
        tag = np.where(_SEGMENT_TAG[seg] < 0, code[group - 1], _SEGMENT_TAG[seg])
        where = np.concatenate((xs, kink_x, probe, probe, block_x, xa, xb, env_x))[failed]
        magnitude = np.concatenate((one, two))[failed]
        order = np.lexsort((where, key))
        violations = list(map(Violation, map(DIRECT_TAGS.__getitem__, tag[order].tolist()),
                              where[order].tolist(), magnitude[order].tolist()))

    tv_value = tv_of_derivative(f)
    tv_gap = abs(tv_value - ch.minimal_tv)
    tv_close = bool(tv_gap <= allowance(tol, ch.minimal_tv))
    if not tv_close:
        violations.append(Violation("tv-mismatch", None, tv_gap))

    return MembershipReport(
        is_member=direct_pass,
        direct_pass=direct_pass,
        tv_pass=not np.count_nonzero(failed[:m]) and tv_close,
        tv_value=tv_value,
        minimal_tv=ch.minimal_tv,
        violations=tuple(violations),
    )


def support_envelope(ch: Characterization, block: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The envelope of the two support lines of each ``block`` at ``x``.

    Block k's support lines pass through its knots a and b with the
    flanking chord slopes s_{a-1} and s_b; the envelope is the higher line
    on a convex block and the lower on a concave one.  ``block`` holds
    block ids and broadcasts against ``x``.
    """
    xa, ya, sa = ch.blocks.lower_support.take(block, axis=1)
    xb, yb, sb = ch.blocks.upper_support.take(block, axis=1)
    lower = (x - xa) * sa + ya
    upper = (x - xb) * sb + yb
    return np.where(ch.blocks.sign[block] > 0, np.maximum(lower, upper), np.minimum(lower, upper))


def localized_slope_bounds(ch: Characterization) -> np.ndarray:
    """Per-gap bound on how far a member's slopes may drift from the chord.

    Gap i gets |s_{i+1}-s_i| + |s_i-s_{i-1}| + |s_{i-1}-s_{i-2}| with the
    slope index clamped to the valid range at both ends, so a difference
    that reaches past either end counts as zero.
    """
    pad = np.concatenate([[0.0, 0.0], np.abs(np.diff(ch.profile.slopes)), [0.0]])
    return pad[2:] + pad[1:-1] + pad[:-2]
