"""Geometric characterization of the minimal-TV interpolant family.

Given a dataset, every gap between consecutive points is classified as
either *forced* (the interpolant must follow the connect-the-dots chord
there) or *free* (any convex-or-concave deviation between the chord and
the tangent support lines is allowed).  The classification is driven by
the discrete curvature signs:

  - the two outermost gaps are always forced ("1a");
  - a gap next to a point of zero curvature is forced ("1b");
  - a gap whose endpoints disagree on curvature sign is forced ("1c");
  - remaining gaps, where both endpoints share a strict curvature sign,
    are free, and maximal runs of them form free blocks.

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
from fractions import Fraction

import numpy as np

from .dataset import CURVATURE_RTOL, Dataset, SlopeProfile, slope_profile
from .plfun import (
    PiecewiseLinear,
    breakpoints_in,
    evaluate,
    from_knots,
    piece_slopes_on,
    restriction_mismatches,
    tv_of_derivative,
)

DEFAULT_MEMBERSHIP_RTOL = 1e-9

# Tags of conditions checked by the direct (geometric) membership test.
DIRECT_TAGS = frozenset(
    {"interp", "forced-1a", "forced-1b", "forced-1c",
     "block-monotone", "block-envelope", "block-boundary-slope"}
)


@dataclass(frozen=True)
class SupportLine:
    """Line through a data point; tangent bound for a free block."""

    through: tuple[float, float]
    slope: float

    def __call__(self, x):
        x0, y0 = self.through
        return (np.asarray(x, dtype=float) - x0) * self.slope + y0


@dataclass(frozen=True)
class IntervalVerdict:
    index: int
    kind: str  # "forced" | "free"
    reason: str | None = None  # "1a" | "1b" | "1c" for forced gaps
    block_id: int | None = None


@dataclass(frozen=True)
class FreeBlock:
    block_id: int
    knot_range: tuple[int, int]  # 1-based point indices (a, b); spans (x_a, x_b)
    sign: int  # +1 convex block, -1 concave block
    lower_support: SupportLine  # incoming tangent, slope s_{a-1}
    upper_support: SupportLine  # outgoing tangent, slope s_b

    def to_dict(self) -> dict:
        return {
            "knot_range": list(self.knot_range),
            "sign": self.sign,
            "lower_support": {"through": list(self.lower_support.through),
                              "slope": self.lower_support.slope},
            "upper_support": {"through": list(self.upper_support.through),
                              "slope": self.upper_support.slope},
        }


@dataclass(frozen=True)
class Characterization:
    dataset: Dataset
    profile: SlopeProfile
    verdicts: tuple[IntervalVerdict, ...]
    blocks: tuple[FreeBlock, ...]
    inflection_set: tuple[int, ...]
    minimal_tv: float
    f_D: PiecewiseLinear

    def to_dict(self) -> dict:
        return {
            "verdicts": [
                {"index": v.index, "kind": v.kind, "reason": v.reason, "block": v.block_id}
                for v in self.verdicts
            ],
            "blocks": [b.to_dict() for b in self.blocks],
            "inflection_set": list(self.inflection_set),
            "minimal_tv": self.minimal_tv,
        }


@dataclass(frozen=True)
class Violation:
    tag: str
    location: float | int | None
    magnitude: float

    def to_dict(self) -> dict:
        return {"tag": self.tag, "location": self.location, "magnitude": self.magnitude}


@dataclass(frozen=True)
class MembershipReport:
    is_member: bool
    direct_pass: bool
    tv_pass: bool
    tv_value: float
    minimal_tv: float
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {
            "is_member": self.is_member,
            "direct_pass": self.direct_pass,
            "tv_pass": self.tv_pass,
            "tv_value": self.tv_value,
            "minimal_tv": self.minimal_tv,
            "violations": [v.to_dict() for v in self.violations],
        }


def connect_the_dots(d: Dataset) -> PiecewiseLinear:
    """Chord interpolant, extended by the first and last chord slopes."""
    return _chord_interpolant(d, slope_profile(d))


def _chord_interpolant(d: Dataset, prof: SlopeProfile) -> PiecewiseLinear:
    return from_knots(d.points, prof.slopes[0], prof.slopes[-1])


def tv_formula_pair(d: Dataset, curvature_tol: float = CURVATURE_RTOL) -> tuple[Fraction, Fraction]:
    """Minimal TV by adjacent slope gaps and by inflection-set gaps.

    Both sums are evaluated in exact rational arithmetic over the float
    slope values, so equal results compare equal with no rounding slack.
    """
    prof = slope_profile(d, curvature_tol)
    return _tv_sums(prof.slopes, _inflection_indices(d.m, prof.curvatures))


def _tv_sums(slopes: tuple[float, ...], idx: list[int]) -> tuple[Fraction, Fraction]:
    s = [Fraction(v) for v in slopes]
    adjacent = sum((abs(s[i] - s[i - 1]) for i in range(1, len(s))), Fraction(0))
    inflect = sum((abs(s[b - 1] - s[a - 1]) for a, b in zip(idx, idx[1:])), Fraction(0))
    return adjacent, inflect


def _inflection_indices(m: int, curvatures: tuple[int, ...]) -> list[int]:
    interior = [i for i in range(2, m - 1) if curvatures[i - 2] != curvatures[i - 1]]
    return sorted({1, m - 1, *interior})


def characterize(d: Dataset, curvature_tol: float = CURVATURE_RTOL) -> Characterization:
    prof = slope_profile(d, curvature_tol)
    m = d.m
    xs, ys = d.xs, d.ys
    s = prof.slopes

    def eps(i: int) -> int:  # curvature at point i, 2 <= i <= m-1
        return prof.curvatures[i - 2]

    kinds: list[tuple[str, str | None]] = []
    for j in range(1, m):
        if j == 1 or j == m - 1:
            kinds.append(("forced", "1a"))
        elif eps(j) == 0 or eps(j + 1) == 0:
            kinds.append(("forced", "1b"))
        elif eps(j) * eps(j + 1) == -1:
            kinds.append(("forced", "1c"))
        else:
            kinds.append(("free", None))

    blocks: list[FreeBlock] = []
    block_of_interval: dict[int, int] = {}
    j = 1
    while j <= m - 1:
        if kinds[j - 1][0] != "free":
            j += 1
            continue
        j0 = j
        while j <= m - 1 and kinds[j - 1][0] == "free":
            block_of_interval[j] = len(blocks)
            j += 1
        a, b = j0, j  # knots a..b, spanning intervals j0..j-1
        sigma = eps(a)
        blocks.append(
            FreeBlock(
                block_id=len(blocks),
                knot_range=(a, b),
                sign=sigma,
                lower_support=SupportLine((float(xs[a - 1]), float(ys[a - 1])), s[a - 2]),
                upper_support=SupportLine((float(xs[b - 1]), float(ys[b - 1])), s[b - 1]),
            )
        )

    verdicts = tuple(
        IntervalVerdict(index=j, kind=kind, reason=reason, block_id=block_of_interval.get(j))
        for j, (kind, reason) in enumerate(kinds, start=1)
    )

    inflection_set = _inflection_indices(m, prof.curvatures)
    adjacent, inflect = _tv_sums(s, inflection_set)
    # Sub-tolerance slope wiggles (dithered collinear data) make the two sums
    # differ by a few ulps, which is expected; anything larger is a real
    # inconsistency.  The adjacent-gap sum is the true TV of the chord
    # interpolant either way.
    if abs(adjacent - inflect) > Fraction(1, 10**9) * max(Fraction(1), adjacent):
        warnings.warn(
            "TV formulas disagree by %.3g on this dataset" % float(adjacent - inflect),
            RuntimeWarning,
        )

    return Characterization(
        dataset=d,
        profile=prof,
        verdicts=verdicts,
        blocks=tuple(blocks),
        inflection_set=tuple(inflection_set),
        minimal_tv=float(adjacent),
        f_D=_chord_interpolant(d, prof),
    )


def check_membership(d: Dataset, f: PiecewiseLinear, tol: float = DEFAULT_MEMBERSHIP_RTOL) -> MembershipReport:
    return check_membership_against(characterize(d), f, tol)


def check_membership_against(
    ch: Characterization, f: PiecewiseLinear, tol: float = DEFAULT_MEMBERSHIP_RTOL
) -> MembershipReport:
    """Run both membership tests and collect per-condition diagnostics.

    The direct test checks interpolation, chord agreement on forced gaps,
    and the convexity/envelope conditions on free blocks.  The TV test
    checks interpolation plus minimality of the derivative's total
    variation.  All failures are recorded as data, never raised.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    d = ch.dataset
    m = d.m
    xs, ys = d.xs, d.ys
    violations: list[Violation] = []

    fvals = np.atleast_1d(evaluate(f, xs))
    for i in range(m):
        err = abs(float(fvals[i]) - float(ys[i]))
        if err > tol * max(1.0, abs(float(ys[i]))):
            violations.append(Violation("interp", float(xs[i]), err))
    interp_ok = not violations

    for v in ch.verdicts:
        if v.kind != "forced":
            continue
        lo = -math.inf if v.index == 1 else float(xs[v.index - 1])
        hi = math.inf if v.index == m - 1 else float(xs[v.index])
        for loc, gap in restriction_mismatches(f, ch.f_D, (lo, hi), tol):
            violations.append(Violation(f"forced-{v.reason}", loc, gap))

    for blk in ch.blocks:
        violations.extend(_block_violations(ch, blk, f, tol))

    tv_value = tv_of_derivative(f)
    tv_gap = abs(tv_value - ch.minimal_tv)
    tv_close = tv_gap <= tol * max(1.0, ch.minimal_tv)
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


def _block_violations(
    ch: Characterization, blk: FreeBlock, f: PiecewiseLinear, tol: float
) -> list[Violation]:
    d = ch.dataset
    xs = d.xs
    s = ch.profile.slopes
    a, b = blk.knot_range
    xa, xb = float(xs[a - 1]), float(xs[b - 1])
    sigma = blk.sign
    out: list[Violation] = []

    # slope monotonicity inside the block: non-decreasing for convex blocks
    slopes = piece_slopes_on(f, xa, xb)
    kink_locs = [xi for xi, _ in breakpoints_in(f, xa, xb)]
    for k in range(len(slopes) - 1):
        drop = sigma * (slopes[k + 1] - slopes[k])
        if drop < -tol * max(1.0, abs(slopes[k]), abs(slopes[k + 1])):
            out.append(Violation("block-monotone", kink_locs[k], float(-drop)))

    # boundary slopes must respect the flanking chord slopes
    s_enter, s_exit = s[a - 2], s[b - 1]
    gap_in = sigma * (slopes[0] - s_enter)
    if gap_in < -tol * max(1.0, abs(slopes[0]), abs(s_enter)):
        out.append(Violation("block-boundary-slope", xa, float(-gap_in)))
    gap_out = sigma * (s_exit - slopes[-1])
    if gap_out < -tol * max(1.0, abs(slopes[-1]), abs(s_exit)):
        out.append(Violation("block-boundary-slope", xb, float(-gap_out)))

    # envelope: between the support lines and the chord.  PL-vs-PL bounds are
    # decided at the union of kinks, so checking f's breakpoints and the block
    # knots is exact up to tolerance.
    pts = np.array(sorted(set(kink_locs) | {float(x) for x in xs[a - 1 : b]}))
    fv = np.atleast_1d(evaluate(f, pts))
    chordv = np.atleast_1d(evaluate(ch.f_D, pts))
    line_lo = np.asarray(blk.lower_support(pts))
    line_hi = np.asarray(blk.upper_support(pts))
    linev = np.maximum(line_lo, line_hi) if sigma > 0 else np.minimum(line_lo, line_hi)
    for p, fp, cp, lp in zip(pts, fv, chordv, linev):
        scale = tol * max(1.0, abs(cp), abs(lp))
        below = sigma * (fp - lp)  # must be >= 0: above support lines (convex case)
        above = sigma * (cp - fp)  # must be >= 0: below the chord (convex case)
        worst = min(below, above)
        if worst < -scale:
            out.append(Violation("block-envelope", float(p), float(-worst)))
    return out


def localized_slope_bounds(d: Dataset) -> np.ndarray:
    """Per-gap bound on how far a member's slopes may drift from the chord.

    Gap i gets |s_{i+1}-s_i| + |s_i-s_{i-1}| + |s_{i-1}-s_{i-2}| with the
    slope index clamped to the valid range at both ends.
    """
    prof = slope_profile(d)
    s = prof.slopes
    n = len(s)  # = m - 1

    def sp(i: int) -> float:
        return s[min(max(i, 1), n) - 1]

    return np.array(
        [abs(sp(i + 1) - sp(i)) + abs(sp(i) - sp(i - 1)) + abs(sp(i - 1) - sp(i - 2))
         for i in range(1, n + 1)]
    )
