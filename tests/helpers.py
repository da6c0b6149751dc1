"""Shared generators, invariant oracles and loop references for the test suite."""

from __future__ import annotations

import json
import math
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import numpy as np

import ridgeless as r
from ridgeless.characterize import (
    DIRECT_TAGS,
    FREE,
    REASONS,
    Characterization,
    MembershipReport,
    Violation,
)
from ridgeless.cli import fmt
from ridgeless.dataset import CURVATURE_RTOL, SlopeProfile
from ridgeless.generalization import SUP_GRID_POINTS_PER_GAP, LocalizedBoundReport, SupErrorReport
from ridgeless.plfun import (JUMP_MERGE_RTOL, _prefix_sums, allowance, evaluate, one_sided_slopes,
                             tv_of_derivative)
from ridgeless.sample import _CROSSING_MARGIN


_location = itemgetter(0)  # of a (location, jump) breakpoint


def random_dataset(rng: np.random.Generator, m: int | None = None,
                   slope_range: tuple[float, float] = (-3.0, 3.0)) -> r.Dataset:
    """Random dataset with m points and chord slopes drawn in slope_range."""
    if m is None:
        m = int(rng.integers(4, 13))
    gaps = rng.uniform(0.2, 1.5, size=m - 1)
    xs = np.concatenate([[rng.uniform(-2.0, 2.0)], gaps]).cumsum()
    slopes = rng.uniform(slope_range[0], slope_range[1], size=m - 1)
    ys = np.concatenate([[rng.uniform(-1.0, 1.0)], slopes * gaps]).cumsum()
    return r.make_dataset(zip(xs.tolist(), ys.tolist()))


def random_pl(rng: np.random.Generator, max_breaks: int = 8) -> r.PiecewiseLinear:
    """Random canonical PL function, possibly affine."""
    k = int(rng.integers(0, max_breaks + 1))
    locs = np.sort(rng.uniform(-5.0, 5.0, size=k))
    jumps = rng.uniform(0.2, 3.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    anchor = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
    return r.canonical(anchor, float(rng.uniform(-3, 3)), np.column_stack((locs, jumps)))


def pl_to_dict(f: r.PiecewiseLinear) -> dict:
    """f's JSON form as a dict: ``plfun.to_json`` must write the bytes ``json.dumps`` gives for it."""
    return {
        "anchor": [f.anchor[0], f.anchor[1]],
        "left_slope": f.left_slope,
        "breakpoints": np.column_stack((f.x, f.c)).tolist(),
    }


def loads_dataset(text: str, format: str = "csv") -> r.Dataset:
    """A dataset parsed from ``text``, as ``load_dataset`` reads it from a ``data.<format>`` file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"data.{format}"
        path.write_text(text, encoding="utf-8")
        return r.load_dataset(path)


def points_of(d: r.Dataset) -> tuple[tuple[float, float], ...]:
    """The dataset's (x, y) pairs as Python floats."""
    return tuple(zip(d.xs.tolist(), d.ys.tolist()))


def chord_tangents(ch: Characterization) -> np.ndarray:
    """One tangent per block knot, each at its outgoing chord slope:
    ``member_from_tangents`` then builds the chord."""
    return ch.profile.slopes[ch.blocks.knots - 1]


def support_tangents(ch: Characterization) -> np.ndarray:
    """``chord_tangents`` with each block's first tangent at its incoming chord
    slope: ``member_from_tangents`` then follows the incoming support line
    until it meets the next knot's tangent, then the chords.  That is the
    support-line envelope only on a one-gap block."""
    knots, t = ch.blocks.knots, chord_tangents(ch)
    first = knots.searchsorted(ch.blocks.a)
    t[first] = ch.profile.slopes[ch.blocks.a - 2]
    return t


def random_unit_lipschitz_pl(rng: np.random.Generator, max_kinks: int = 6) -> r.PiecewiseLinear:
    """Random PL function on [0,1] whose Lipschitz norm is exactly 1.

    Knots sit on the 1/64 grid and slopes are multiples of 1/64 with one
    slope pinned to +-1, so every chord slope reproduces exactly in floats
    and the norm is exactly 1.0.
    """
    while True:
        k = int(rng.integers(3, max_kinks + 1))
        interior = np.sort(rng.choice(np.arange(1, 64), size=k, replace=False)) / 64.0
        xs = np.concatenate([[0.0], interior, [1.0]])
        num = rng.integers(-64, 65, size=xs.size - 1).astype(float)
        pin = int(rng.integers(num.size))
        num[pin] = 64.0 if rng.uniform() < 0.5 else -64.0
        slopes = num / 64.0
        ys = np.concatenate([[0.0], slopes * np.diff(xs)]).cumsum()
        f = r.from_knots(list(zip(xs.tolist(), ys.tolist())), float(slopes[0]), float(slopes[-1]))
        if r.lipschitz_norm(f) == 1.0:
            return f


def evaluate_by_slope_integration(f: r.PiecewiseLinear, x: float) -> float:
    """Reference evaluation that integrates the slope from the anchor.

    Deliberately shares no code with :func:`ridgeless.plfun.evaluate`;
    used to cross-check it.
    """
    x0, v0 = f.anchor
    lo, hi = (x0, x) if x0 <= x else (x, x0)
    sign = 1.0 if x0 <= x else -1.0
    total = 0.0
    pos = lo
    # walk every piece overlapping [lo, hi]
    for xi, _ in f.breakpoints:
        if xi <= lo:
            continue
        if xi >= hi:
            break
        total += _slope_at_midpoint(f, pos, xi) * (xi - pos)
        pos = xi
    total += _slope_at_midpoint(f, pos, hi) * (hi - pos)
    return v0 + sign * total


def evaluate_network_reference(net: r.ReluNetwork, x):
    """The network at ``x``, adding one unit at a time in unit order (the loop form)."""
    xs = np.asarray(x, dtype=float)
    out = net.a * xs + net.b
    for w1, b1, w2 in net.units.tolist():
        out = out + w2 * np.maximum(0.0, w1 * xs + b1)
    return float(out) if xs.ndim == 0 else out


def _slope_at_midpoint(f: r.PiecewiseLinear, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    slope = f.left_slope
    for xi, c in f.breakpoints:
        if xi < mid:
            slope += c
        else:
            break
    return slope


def breakpoints_in_reference(f: r.PiecewiseLinear, lo: float, hi: float) -> list:
    """Breakpoints of ``f`` strictly inside (lo, hi), by a scan of every breakpoint."""
    return [(xi, c) for xi, c in f.breakpoints if lo < xi < hi]


def breakpoints_between(f: r.PiecewiseLinear, lo: float, hi: float) -> list:
    """Breakpoints of ``f`` strictly inside (lo, hi), by two bisections of the public view.

    The same set as :func:`breakpoints_in_reference` in O(log k), for the
    per-gap loop references below.
    """
    bps = f.breakpoints
    return list(bps[bisect_right(bps, lo, key=_location) : bisect_left(bps, hi, key=_location)])


def localized_slope_bounds_reference(slopes) -> np.ndarray:
    """Per-gap drift bounds by a loop that clamps slope indices to 1..n."""
    n = len(slopes)

    def sp(i: int) -> float:
        return slopes[min(max(i, 1), n) - 1]

    return np.array(
        [abs(sp(i + 1) - sp(i)) + abs(sp(i) - sp(i - 1)) + abs(sp(i - 1) - sp(i - 2))
         for i in range(1, n + 1)]
    )


# PL restriction checks that only the tests use.


def piece_slopes_on(f: r.PiecewiseLinear, lo: float, hi: float) -> np.ndarray:
    """Slopes of the pieces of ``f`` restricted to the open interval (lo, hi).

    The first entry is the outgoing slope at ``lo``; subsequent entries follow
    each breakpoint strictly inside the interval.
    """
    if not lo < hi:
        raise ValueError("empty interval")
    return one_sided_slopes(f, np.array([lo, *(xi for xi, _ in breakpoints_between(f, lo, hi))]))[1]


def canonicalize(f: r.PiecewiseLinear) -> r.PiecewiseLinear:
    return r.canonical(f.anchor, f.left_slope, f.breakpoints)


def restriction_equal(
    f: r.PiecewiseLinear,
    g: r.PiecewiseLinear,
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
    f: r.PiecewiseLinear,
    g: r.PiecewiseLinear,
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

    fb = breakpoints_between(f, lo, hi)
    gb = breakpoints_between(g, lo, hi)
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
            if abs(xf - xg) <= allowance(tol, xf, xg):
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
        if gap > allowance(tol, cf, cg):
            bad.append((loc, gap))

    t0 = _probe_point(fb, gb, lo, hi)
    g0 = evaluate(g, t0)
    dv = abs(evaluate(f, t0) - g0)
    if dv > allowance(tol, g0):
        bad.append((t0, dv))
    fi, fo = one_sided_slopes(f, t0)
    gi, go = one_sided_slopes(g, t0)
    for df in (abs(fi - gi), abs(fo - go)):
        if df > allowance(tol, gi, go):
            bad.append((t0, df))
            break
    return bad


def _probe_point(fb, gb, lo: float, hi: float) -> float:
    for xi, _ in fb + gb:
        return xi
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):  # one unit out, or one ulp where the unit rounds away
        return min(hi - 1.0, math.nextafter(hi, -math.inf))
    if math.isinf(hi):
        return max(lo + 1.0, math.nextafter(lo, math.inf))
    return 0.5 * (lo + hi)


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` for the test; the returned list grows by one per call."""
    calls: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def is_monotone(seq, tol: float) -> bool:
    diffs = np.diff(np.asarray(seq, dtype=float))
    if diffs.size == 0:
        return True
    scale = allowance(tol, np.max(np.abs(seq)))
    return bool(np.all(diffs >= -scale) or np.all(diffs <= scale))


def member_invariant_failures(ch: r.Characterization, f: r.PiecewiseLinear,
                              tol: float = 1e-9) -> list[str]:
    """Check the structural member properties; returns the names that fail.

    Covered: per-gap slope monotonicity, the incoming/outgoing sign identity
    at every gap, the curvature slope sandwich at interior points, chord
    agreement on both tails, and chord agreement around zero-curvature points.
    """
    d = ch.dataset
    xs = d.xs
    s = ch.profile.slopes
    eps = ch.profile.curvatures
    m = d.m
    failures: list[str] = []

    for i in range(1, m):
        lo, hi = float(xs[i - 1]), float(xs[i])
        slopes = piece_slopes_on(f, lo, hi)
        if not is_monotone(slopes, tol):
            failures.append(f"monotone@gap{i}")
        si = s[i - 1]
        scale = allowance(tol, si, np.max(np.abs(slopes)))
        _, s_out_i = one_sided_slopes(f, lo)
        s_in_next, _ = one_sided_slopes(f, hi)
        if sign_with_tol(s_in_next - si, scale) + sign_with_tol(s_out_i - si, scale) != 0:
            failures.append(f"in-out@gap{i}")

    for i in range(2, m):  # interior points
        e = eps[i - 2]
        if e == 0:
            continue
        si, s_prev = s[i - 1], s[i - 2]
        s_in, s_out = one_sided_slopes(f, float(xs[i - 1]))
        scale = allowance(tol, s_prev, si, s_in, s_out)
        links = (e * (s_in - s_prev), e * (s_out - s_in), e * (si - s_out))
        if any(link < -scale for link in links):
            failures.append(f"eps-sandwich@{i}")

    if not restriction_equal(f, ch.f_D, (-np.inf, float(xs[1])), tol):
        failures.append("ends-left")
    if not restriction_equal(f, ch.f_D, (float(xs[m - 2]), np.inf), tol):
        failures.append("ends-right")

    for i in range(2, m):
        if eps[i - 2] == 0 and not restriction_equal(
            f, ch.f_D, (float(xs[i - 2]), float(xs[i])), tol
        ):
            failures.append(f"neighbors@{i}")
    return failures


def slope_window_failures(ch: r.Characterization, f: r.PiecewiseLinear,
                          tol: float = 1e-9) -> list[str]:
    """Curvature-signed localization of member slopes by neighbor chords.

    At every interior point i and every piece slope sigma on (x_i, x_{i+1}):
    eps_i*(s_{i-1}-s_i) <= eps_i*(sigma-s_i), and eps_i*(sigma-s_i) stays
    below eps_i*(s_{i+1}-s_i) whenever that difference points the same way
    as the curvature (on curvature-flip gaps the function is pinned to the
    chord so the upper side degenerates to zero).  Slope indices clamp at
    the last gap.
    """
    d = ch.dataset
    xs = d.xs
    s = ch.profile.slopes
    eps = ch.profile.curvatures
    m = d.m
    failures: list[str] = []
    for i in range(2, m):
        e = eps[i - 2]
        si = s[i - 1]
        s_next = s[i] if i < m - 1 else s[m - 2]
        slopes = piece_slopes_on(f, float(xs[i - 1]), float(xs[i]))
        lo = e * (s[i - 2] - si)
        hi = max(0.0, e * (s_next - si))
        scale = allowance(tol, s[i - 2], si, s_next)
        mids = e * (slopes - si)
        if np.any(mids < lo - scale) or np.any(mids > hi + scale):
            failures.append(f"slope-window@{i}")
    return failures


# Loop references.  The package computes each of these with array passes; the
# per-gap and per-knot loops it replaced are kept here to check that the
# outputs did not change.


def sign_with_tol(delta: float, tol: float) -> int:
    if abs(delta) <= tol:
        return 0
    return 1 if delta > 0 else -1


def slope_profile_reference(d: r.Dataset, curvature_tol: float = CURVATURE_RTOL) -> SlopeProfile:
    s = np.diff(d.ys) / np.diff(d.xs)
    eps = [sign_with_tol(s[i] - s[i - 1], allowance(curvature_tol, s[i], s[i - 1]))
           for i in range(1, len(s))]
    return SlopeProfile(slopes=s, curvatures=np.array(eps, dtype=int))


def inflection_set_reference(curvatures) -> list[int]:
    """1, m-1 and every interior gap whose end curvatures differ, by a loop."""
    m = len(curvatures) + 2
    interior = [i for i in range(2, m - 1) if curvatures[i - 2] != curvatures[i - 1]]
    return sorted({1, m - 1, *interior})


def tv_sums_exact(slopes, inflection_set) -> tuple[Fraction, Fraction]:
    """Minimal TV by adjacent slope gaps and by inflection-set gaps.

    Both sums are evaluated in exact rational arithmetic over the float
    slope values, so equal results compare equal with no rounding slack.
    """
    s = [Fraction(v) for v in slopes]
    adjacent = sum((abs(s[i] - s[i - 1]) for i in range(1, len(s))), Fraction(0))
    inflect = sum((abs(s[b - 1] - s[a - 1]) for a, b in zip(inflection_set, inflection_set[1:])),
                  Fraction(0))
    return adjacent, inflect


def tv_formula_pair(d: r.Dataset) -> tuple[Fraction, Fraction]:
    """The two exact sums for ``d``, from the loop references of the slope
    profile and the inflection set, so they share no code with ``characterize``."""
    prof = slope_profile_reference(d)
    return tv_sums_exact(prof.slopes, inflection_set_reference(prof.curvatures))


def merge_threshold(jumps) -> float:
    """The jump size at or under which ``plfun`` drops a kink: ``_kept``'s rule
    JUMP_MERGE_RTOL * (1 + max |c|), for the loop references below."""
    return JUMP_MERGE_RTOL * (1.0 + max(map(abs, jumps), default=0.0))


def from_knots_reference(knots, left_slope: float, right_slope: float) -> r.PiecewiseLinear:
    """``from_knots`` by Python lists: drop every knot whose jump is under the
    threshold and, unless all dropped jumps were zero, take the slopes and
    jumps of the rest again; repeat until none is under it."""
    xs = [float(x) for x, _ in knots]
    ys = [float(y) for _, y in knots]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("knot abscissae must be strictly increasing")
    xs0, ys0 = xs[0], ys[0]
    jumps: list[float] = []
    while xs:
        chord = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
        slope_seq = [float(left_slope)] + chord + [float(right_slope)]
        jumps = [slope_seq[i + 1] - slope_seq[i] for i in range(len(xs))]
        tol = merge_threshold(jumps)
        kept = [i for i, c in enumerate(jumps) if abs(c) > tol]
        if len(kept) == len(xs):
            break
        dropped_nonzero = any(c != 0.0 for c in jumps if abs(c) <= tol)
        xs, ys, jumps = [xs[i] for i in kept], [ys[i] for i in kept], [jumps[i] for i in kept]
        # the left slope and the slope after each knot kept
        slope_seq = [slope_seq[0]] + [slope_seq[i + 1] for i in kept]
        if not dropped_nonzero:
            break
    return r.PiecewiseLinear((xs0, ys0), xs, jumps, ys, slope_seq)


def canonical_reference(anchor, left_slope: float, breakpoints) -> r.PiecewiseLinear:
    """``canonical`` by a dict merge over the (location, jump) pairs.

    A location's jumps add in input order from 0.0 under the first row's key
    (so -0.0 and 0.0 merge under whichever came first); then the finite
    check, the drop threshold, and the values as ``canonical`` takes them.
    """
    merged: dict[float, float] = {}
    for xi, c in breakpoints:
        merged[xi] = merged.get(xi, 0.0) + c
    if not (all(map(math.isfinite, merged)) and all(map(math.isfinite, merged.values()))):
        raise ValueError("breakpoint locations and jumps must be finite")
    tol = merge_threshold(merged.values())
    locs = sorted(xi for xi, c in merged.items() if abs(c) > tol)
    x, c = np.array(locs, dtype=float), np.array([merged[xi] for xi in locs], dtype=float)
    x0, v0 = float(anchor[0]), float(anchor[1])
    y = x
    s = _prefix_sums(np.concatenate(([left_slope], c)))  # slope on each piece
    if x.size:
        # values by prefix sums from the first kink, then shifted through the anchor
        rel = np.add.accumulate(np.concatenate(([0.0], s[1:-1] * (x[1:] - x[:-1]))))
        i = int(x.searchsorted(x0, side="right"))
        ref = max(i - 1, 0)
        y = rel + (v0 - (rel[ref] + s[i] * (x0 - x[ref])))
    return r.PiecewiseLinear((x0, v0), x, c, y, s)


@dataclass(frozen=True, slots=True)
class SupportLine:
    """Line through a data point; tangent bound for a free block."""

    through: tuple[float, float]
    slope: float

    def __call__(self, x):
        x0, y0 = self.through
        return (np.asarray(x, dtype=float) - x0) * self.slope + y0


@dataclass(frozen=True, slots=True)
class IntervalVerdict:
    index: int
    kind: str  # "forced" | "free"
    reason: str | None = None  # "1a" | "1b" | "1c" for forced gaps
    block_id: int | None = None


@dataclass(frozen=True, slots=True)
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
class CharacterizationReference:
    """A characterization with its verdicts and blocks built eagerly, as objects."""

    dataset: r.Dataset
    profile: SlopeProfile
    verdicts: tuple[IntervalVerdict, ...]
    blocks: tuple[FreeBlock, ...]
    inflection_set: tuple[int, ...]
    minimal_tv: float
    shortfall: float
    f_D: r.PiecewiseLinear

    def to_dict(self) -> dict:
        """:meth:`Characterization.to_dict`, built from the objects."""
        return {
            "verdicts": [
                {"index": v.index, "kind": v.kind, "reason": v.reason, "block": v.block_id}
                for v in self.verdicts
            ],
            "blocks": [b.to_dict() for b in self.blocks],
            "inflection_set": list(self.inflection_set),
            "minimal_tv": self.minimal_tv,
        }


def verdicts_of(ch) -> tuple[IntervalVerdict, ...]:
    """One verdict object per gap: a reference's own, or rebuilt from ``ch.gaps``."""
    if isinstance(ch, CharacterizationReference):
        return ch.verdicts
    code = ch.gaps.code
    starts = np.zeros(code.size, dtype=int)
    starts[ch.blocks.a - 1] = 1
    block_of = np.cumsum(starts) - 1  # the block id on free gaps
    return tuple(
        IntervalVerdict(j, "free" if c == FREE else "forced", REASONS[c], k if c == FREE else None)
        for j, c, k in zip(range(1, code.size + 1), code.tolist(), block_of.tolist())
    )


def blocks_of(ch) -> tuple[FreeBlock, ...]:
    """One block object per free block: a reference's own, or rebuilt from ``ch.blocks``."""
    if isinstance(ch, CharacterizationReference):
        return ch.blocks
    a, b = ch.blocks.a, ch.blocks.b
    xs, ys, s = ch.dataset.xs, ch.dataset.ys, ch.profile.slopes
    return tuple(
        FreeBlock(k, (ak, bk), sk, SupportLine((xa, ya), sa), SupportLine((xb, yb), sb))
        for k, (ak, bk, sk, xa, ya, sa, xb, yb, sb) in enumerate(zip(
            a.tolist(), b.tolist(), ch.blocks.sign.tolist(),
            xs[a - 1].tolist(), ys[a - 1].tolist(), s[a - 2].tolist(),
            xs[b - 1].tolist(), ys[b - 1].tolist(), s[b - 1].tolist(),
        ))
    )


def characterize_printout_reference(ch) -> str:
    """The stdout of ``ridgeless characterize`` without ``--json``, built from the objects."""
    xs = ch.dataset.xs
    lines = []
    for v in verdicts_of(ch):
        span = f"({fmt(xs[v.index - 1])}, {fmt(xs[v.index])})"
        if v.kind == "forced":
            lines.append(f"interval {v.index} {span}: forced ({v.reason})")
        else:
            lines.append(f"interval {v.index} {span}: free (block {v.block_id})")
    for b in blocks_of(ch):
        a, bb = b.knot_range
        lines.append(
            f"block {b.block_id}: knots {a}..{bb} sign {b.sign:+d} "
            f"support slopes {fmt(b.lower_support.slope)} {fmt(b.upper_support.slope)}"
        )
    lines.append(f"inflection set: {' '.join(str(i) for i in ch.inflection_set)}")
    lines.append(f"minimal TV: {fmt(ch.minimal_tv)}")
    return "".join(line + "\n" for line in lines)


def characterize_reference(d: r.Dataset,
                           curvature_tol: float = CURVATURE_RTOL) -> CharacterizationReference:
    """Gap classification by a loop over the gaps, C* and the shortfall as exact Fraction sums."""
    prof = slope_profile_reference(d, curvature_tol)
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
        blocks.append(
            FreeBlock(
                block_id=len(blocks),
                knot_range=(a, b),
                sign=int(eps(a)),
                lower_support=SupportLine((float(xs[a - 1]), float(ys[a - 1])), s[a - 2]),
                upper_support=SupportLine((float(xs[b - 1]), float(ys[b - 1])), s[b - 1]),
            )
        )

    verdicts = tuple(
        IntervalVerdict(index=j, kind=kind, reason=reason, block_id=block_of_interval.get(j))
        for j, (kind, reason) in enumerate(kinds, start=1)
    )
    inflection_set = inflection_set_reference(prof.curvatures)
    adjacent, _ = tv_sums_exact(s, inflection_set)
    shortfall = sum((abs(Fraction(s[i - 1]) - Fraction(s[i - 2])) for i in range(2, m) if eps(i) == 0),
                    Fraction(0))
    return CharacterizationReference(
        dataset=d,
        profile=prof,
        verdicts=verdicts,
        blocks=tuple(blocks),
        inflection_set=tuple(inflection_set),
        minimal_tv=float(adjacent),
        shortfall=float(shortfall),
        f_D=from_knots_reference(points_of(d), s[0], s[-1]),
    )


def check_membership_reference(ch: Characterization, f: r.PiecewiseLinear,
                               tol: float = 1e-9) -> MembershipReport:
    """Membership by a loop over the forced gaps (one ``restriction_mismatches``
    each) and over the blocks."""
    d = ch.dataset
    m = d.m
    xs, ys = d.xs, d.ys
    violations: list[Violation] = []

    fvals = np.atleast_1d(evaluate(f, xs))
    for i in range(m):
        err = abs(float(fvals[i]) - float(ys[i]))
        if err > allowance(tol, ys[i]):
            violations.append(Violation("interp", float(xs[i]), err))
    interp_ok = not violations

    for v in verdicts_of(ch):
        if v.kind != "forced":
            continue
        lo = -math.inf if v.index == 1 else float(xs[v.index - 1])
        hi = math.inf if v.index == m - 1 else float(xs[v.index])
        for loc, gap in restriction_mismatches(f, ch.f_D, (lo, hi), tol):
            violations.append(Violation(f"forced-{v.reason}", loc, gap))

    for blk in blocks_of(ch):
        violations.extend(_block_violations_reference(ch, blk, f, tol))

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


def _block_violations_reference(ch, blk, f, tol) -> list[Violation]:
    xs = ch.dataset.xs
    s = ch.profile.slopes
    a, b = blk.knot_range
    xa, xb = float(xs[a - 1]), float(xs[b - 1])
    sigma = blk.sign
    out: list[Violation] = []

    slopes = piece_slopes_on(f, xa, xb)
    kink_locs = [xi for xi, _ in breakpoints_between(f, xa, xb)]
    for k in range(len(slopes) - 1):
        drop = sigma * (slopes[k + 1] - slopes[k])
        if drop < -allowance(tol, slopes[k], slopes[k + 1]):
            out.append(Violation("block-monotone", kink_locs[k], float(-drop)))

    s_enter, s_exit = s[a - 2], s[b - 1]
    gap_in = sigma * (slopes[0] - s_enter)
    if gap_in < -allowance(tol, slopes[0], s_enter):
        out.append(Violation("block-boundary-slope", xa, float(-gap_in)))
    gap_out = sigma * (s_exit - slopes[-1])
    if gap_out < -allowance(tol, slopes[-1], s_exit):
        out.append(Violation("block-boundary-slope", xb, float(-gap_out)))

    pts = np.array(sorted(set(kink_locs) | {float(x) for x in xs[a - 1 : b]}))
    fv = np.atleast_1d(evaluate(f, pts))
    chordv = np.atleast_1d(evaluate(ch.f_D, pts))
    line_lo = np.asarray(blk.lower_support(pts))
    line_hi = np.asarray(blk.upper_support(pts))
    linev = np.maximum(line_lo, line_hi) if sigma > 0 else np.minimum(line_lo, line_hi)
    for p, fp, cp, lp in zip(pts, fv, chordv, linev):
        scale = allowance(tol, cp, lp)
        below = sigma * (fp - lp)
        above = sigma * (cp - fp)
        worst = min(below, above)
        if worst < -scale:
            out.append(Violation("block-envelope", float(p), float(-worst)))
    return out


def sample_member_reference(ch: Characterization, seed: int, pin: str | None = None,
                            draw=None) -> r.PiecewiseLinear:
    """The sampler as a loop over blocks and knots, one scalar draw per knot.

    ``pin="chord"`` puts every tangent at its outgoing chord slope (the
    chord); ``pin="support"`` also puts each block's first tangent at its
    incoming chord slope (the incoming support line until it meets the next
    knot's tangent, then the chords).  Otherwise ``draw(rng, knot, lo, hi)``
    gives each tangent, clipped to [lo, hi]; the default is
    ``rng.uniform(lo, hi)``.  A block knot is a knot of the member exactly
    where its two pieces have different slopes: the knot's tangent on a
    crossed gap, the gap's chord slope otherwise.
    """
    rng = np.random.default_rng(int(seed) % 2**64)
    draw = draw or (lambda rng, knot, lo, hi: float(rng.uniform(lo, hi)))
    d = ch.dataset
    s = ch.profile.slopes
    xs, ys = d.xs, d.ys
    blocks = blocks_of(ch)
    if not blocks:
        return ch.f_D

    knots: list[tuple[float, float]] = []
    crossed: set[int] = set()
    tangents: dict[int, float] = {}
    for blk in blocks:
        a, b = blk.knot_range
        for j in range(a, b + 1):
            lo, hi = sorted((s[j - 2], s[j - 1]))
            if pin == "chord":
                t = s[j - 1]
            elif pin == "support":
                t = s[a - 2] if j == a else s[j - 1]
            else:
                t = min(max(draw(rng, j, lo, hi), lo), hi)
            tangents[j] = t
        for j in range(a, b):
            knot = _tangent_crossing_reference(
                float(xs[j - 1]), float(ys[j - 1]), tangents[j],
                float(xs[j]), float(ys[j]), tangents[j + 1], s[j - 1],
            )
            if knot is not None:
                knots.append(knot)
                crossed.add(j)

    def piece_slope(i: int, gap: int) -> float:
        """The member's slope on ``gap`` next to block knot i."""
        return tangents[i] if gap in crossed else s[gap - 1]

    # data point i lies between gaps i-1 and i
    knots += [p for i, p in enumerate(points_of(d), start=1)
              if i not in tangents or piece_slope(i, i - 1) != piece_slope(i, i)]
    knots.sort()
    return from_knots_reference(knots, s[0], s[-1])


def _tangent_crossing_reference(xj, yj, tj, xk, yk, tk, chord):
    """Where the tangents at (xj, yj) and (xk, yk) cross strictly inside the gap,
    or None; a tangent equal to the gap's chord slope crosses at a data point."""
    denom = tj - tk
    if abs(denom) <= allowance(_CROSSING_MARGIN, tj, tk):
        return None
    xi = ((yk - yj) + tj * xj - tk * xk) / denom
    share = (chord - tk) / denom
    margin = _CROSSING_MARGIN * (xk - xj)
    if (xi <= xj + margin or xi >= xk - margin
            or share <= _CROSSING_MARGIN or share >= 1.0 - _CROSSING_MARGIN):
        return None
    return (xi, yj + tj * (xi - xj))


def perturb_to_nonmember_reference(ch: Characterization, f: r.PiecewiseLinear,
                                   seed: int) -> r.PiecewiseLinear:
    """``perturb_to_nonmember`` as a loop over the blocks: one window of kinks
    per block and one scalar ``evaluate`` per kink."""
    rng = np.random.default_rng(int(seed) % 2**64)
    d = ch.dataset
    xs, s = d.xs, ch.profile.slopes

    if d.m == 2:
        xk = float(xs[-1]) + 1.0
        bump = 1.0 + float(rng.uniform(0.5, 1.5))
        knots = list(points_of(d)) + [(xk, float(evaluate(ch.f_D, xk)))]
        return from_knots_reference(knots, s[0], s[-1] + bump)

    blocks = [(*blk.knot_range, blk.sign) for blk in blocks_of(ch)]
    inner: list[tuple[float, float, int]] = []  # (xi, value, block sign)
    for a, b, sign in blocks:
        data_x = set(float(x) for x in xs[a - 1 : b])
        for xi, _ in breakpoints_between(f, float(xs[a - 1]), float(xs[b - 1])):
            if xi not in data_x:
                inner.append((xi, float(evaluate(f, xi)), sign))

    def bumped(x: float, sigma: int) -> tuple[float, float]:
        cv = float(evaluate(ch.f_D, x))
        delta = (0.5 + float(rng.uniform())) * 0.5 * (1.0 + abs(cv))
        return (x, cv + sigma * delta)

    if inner:
        pick = int(rng.integers(len(inner)))
        knots = list(points_of(d))
        for k, (xi, v, sigma) in enumerate(inner):
            knots.append(bumped(xi, sigma) if k == pick else (xi, v))
    elif blocks:
        a, b, sign = blocks[int(rng.integers(len(blocks)))]
        j = int(rng.integers(a, b))
        mid = 0.5 * (float(xs[j - 1]) + float(xs[j]))
        knots = list(points_of(d)) + [bumped(mid, sign)]
    else:
        j = int(rng.integers(1, d.m))
        mid = 0.5 * (float(xs[j - 1]) + float(xs[j]))
        sigma = 1 if rng.uniform() < 0.5 else -1
        knots = list(points_of(d)) + [bumped(mid, sigma)]
    knots.sort()
    return from_knots_reference(knots, s[0], s[-1])


def sup_error_reference(f_star: r.PiecewiseLinear, d: r.Dataset, members,
                        tol: float = 1e-9) -> SupErrorReport:
    """The sup-error check member by member: the exact error at the union of the member's
    and f_star's kinks in (0, 1) and the ends, and the member on the whole dense grid."""
    xs = d.xs
    h = max(0.0, float(xs[0]), float(np.max(np.diff(xs))) / 2, 1.0 - float(xs[-1]))
    bound = 2.0 * r.lipschitz_norm(f_star) * h
    dense = np.linspace(0.0, 1.0, SUP_GRID_POINTS_PER_GAP * d.m + 1)
    star_dense = np.atleast_1d(evaluate(f_star, dense))
    errors, grid_max = [], 0.0
    for f in members:
        pts = np.unique(np.concatenate(([0.0, 1.0], f.x[(0.0 < f.x) & (f.x < 1.0)],
                                        f_star.x[(0.0 < f_star.x) & (f_star.x < 1.0)])))
        errors.append(float(np.max(np.abs(evaluate(f, pts) - evaluate(f_star, pts)))))
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
        passed=exact_max <= bound + tol,
    )


def verify_localized_bounds_reference(ch: Characterization, members,
                                      tol: float = 1e-9) -> LocalizedBoundReport:
    """Localized bounds by a loop over members and gaps."""
    d = ch.dataset
    bounds = r.localized_slope_bounds(ch)
    fd_norm = r.lipschitz_norm(ch.f_D)
    xs = d.xs
    s = ch.profile.slopes

    max_excess = -math.inf
    worst_member = worst_gap = -1
    lip_ratio = 0.0
    ok = True
    for k, f in enumerate(members):
        for i in range(1, d.m):
            slopes = piece_slopes_on(f, float(xs[i - 1]), float(xs[i]))
            drift = float(np.max(np.abs(slopes - s[i - 1])))
            excess = drift - float(bounds[i - 1])
            if excess > max_excess:
                max_excess, worst_member, worst_gap = excess, k, i
            if excess > allowance(tol, bounds[i - 1]):
                ok = False
        norm = r.lipschitz_norm(f)
        ratio = norm / fd_norm if fd_norm > 0 else 0.0
        lip_ratio = max(lip_ratio, ratio)
        if norm > 7.0 * fd_norm + allowance(tol, fd_norm):
            ok = False
    return LocalizedBoundReport(
        gap_bounds=tuple(float(b) for b in bounds),
        max_excess=max_excess if members else 0.0,
        lip_ratio=lip_ratio,
        worst_member=worst_member,
        worst_gap=worst_gap,
        passed=ok,
    )


def grid_tv_minimize_reference(d: r.Dataset, grid_points_per_gap: int, tol: float = 1e-6,
                               max_iters: int = 200_000) -> tuple[float, r.PiecewiseLinear]:
    """The grid LP over node values: u free, u = y at the data, and one slack with
    two inequality rows per interior node bounding |second difference|.

    The epigraph form that ``oracle.grid_tv_minimize`` replaced with its kink form.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    xs, ys = d.xs, d.ys
    g = int(grid_points_per_gap)
    segments = [np.linspace(xs[i], xs[i + 1], g + 1)[:-1] for i in range(d.m - 1)]
    nodes = np.concatenate(segments + [xs[-1:]])
    n = nodes.size
    data_idx = np.arange(d.m) * g
    h = np.diff(nodes)

    n_slack = n - 2
    cvec = np.concatenate([np.zeros(n), np.ones(n_slack)])
    a_eq = sparse.csr_matrix(
        (np.ones(d.m), (np.arange(d.m), data_idx)), shape=(d.m, n + n_slack)
    )
    if n_slack > 0:
        k = np.arange(1, n - 1)
        rows = np.repeat(np.arange(n_slack), 3)
        cols = np.stack([k - 1, k, k + 1], axis=1).ravel()
        inv_l, inv_r = 1.0 / h[k - 1], 1.0 / h[k]
        coef = np.stack([inv_l, -(inv_l + inv_r), inv_r], axis=1).ravel()
        second_diff = sparse.csr_matrix((coef, (rows, cols)), shape=(n_slack, n))
        eye = sparse.identity(n_slack, format="csr")
        a_ub = sparse.vstack(
            [sparse.hstack([second_diff, -eye]), sparse.hstack([-second_diff, -eye])],
            format="csr",
        )
        b_ub = np.zeros(2 * n_slack)
    else:
        a_ub, b_ub = None, None

    bounds = [(None, None)] * n + [(0, None)] * n_slack
    res = linprog(cvec, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=ys, bounds=bounds,
                  method="highs",
                  options={"maxiter": int(max_iters), "primal_feasibility_tolerance": tol,
                           "dual_feasibility_tolerance": tol})
    assert res.status == 0, res.message
    u = res.x[:n]
    left, right = (u[1] - u[0]) / h[0], (u[-1] - u[-2]) / h[-1]
    return float(res.fun), r.from_knots(list(zip(nodes.tolist(), u.tolist())), left, right)


def kink_lp_matrix_reference(d: r.Dataset, grid_points_per_gap: int):
    """The grid nodes and the equality matrix of the kink-form grid LP, built from COO
    triplets through ``scipy.sparse.csc_array``: ``oracle.grid_tv_minimize``'s former
    build, which its CSC arrays must equal bit for bit; returns (nodes, a_eq).
    """
    from scipy import sparse

    xs = d.xs
    g = int(grid_points_per_gap)
    w = np.diff(xs)
    # the same float operations as np.linspace(xs[i], xs[i + 1], g + 1)[:-1] on each gap
    nodes = np.append(np.arange(g) * (w / g)[:, None] + xs[:-1, None], xs[-1])
    n = nodes.size

    # Unknowns: sigma_0, then p and q at the interior nodes 1..n-2.  Node k lies in
    # gap j = k // g; it enters row j with the falling side of the hat at x_j (for
    # j = 0, its weight in gap 0's mean slope) and row j + 1 with the rising side of
    # the hat at x_{j+1}, which is 0 at a data node and has no row on the last gap.
    k = np.arange(1, n - 1)
    j, t = k // g, nodes[1:-1]
    row, col = np.concatenate([j, j + 1]), np.concatenate([k, k])
    coef = np.concatenate([(xs[j + 1] - t) / w[j], (t - xs[j]) / w[j]])
    keep = (row < d.m - 1) & (coef != 0.0)
    row, col, coef = row[keep], col[keep], coef[keep]
    a_eq = sparse.csc_array(
        (np.concatenate([[1.0], coef, -coef]),
         (np.concatenate([[0], row, row]), np.concatenate([[0], col, col + n - 2]))),
        shape=(d.m - 1, 2 * n - 3),
    )
    return nodes, a_eq


def kink_lp_highslp_reference(d: r.Dataset, grid_points_per_gap: int, tol: float = 1e-6,
                              max_iters: int = 200_000) -> tuple[float, r.PiecewiseLinear, int]:
    """The kink-form grid LP of ``oracle.grid_tv_minimize`` filled into a ``HighsLp`` through
    its attribute setters from ``kink_lp_matrix_reference``, and solved on a new ``_Highs``
    with the package's options, each set by name; returns (min_tv, minimizer, iterations).

    ``linprog`` cannot be this reference: its wrapper drops options it does not know,
    ``simplex_scale_strategy`` among them.
    """
    from ridgeless.oracle import _highs_core

    core = _highs_core()
    s = np.diff(d.ys) / np.diff(d.xs)
    b_eq = np.concatenate([s[:1], np.diff(s)])
    nodes, a_eq = kink_lp_matrix_reference(d, grid_points_per_gap)
    n_rows, n_vars = a_eq.shape
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_ = a_eq.indptr, a_eq.indices
    lp.a_matrix_.value_ = a_eq.data
    lp.col_cost_ = np.concatenate([[0.0], np.ones(n_vars - 1)])
    lp.col_lower_ = np.concatenate([[-np.inf], np.zeros(n_vars - 1)])
    lp.col_upper_ = np.full(n_vars, np.inf)
    lp.row_lower_ = lp.row_upper_ = b_eq
    highs = core._Highs()
    options = {"presolve": "off", "output_flag": False, "log_to_console": False,
               "simplex_strategy": 1,  # dual
               "simplex_scale_strategy": 0,  # off
               "simplex_iteration_limit": int(max_iters), "ipm_iteration_limit": int(max_iters),
               "primal_feasibility_tolerance": tol, "dual_feasibility_tolerance": tol}
    for name, value in options.items():
        assert highs.setOptionValue(name, value) == core.HighsStatus.kOk, name
    assert highs.passModel(lp) == core.HighsStatus.kOk
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        raise r.OracleError(f"grid TV minimization did not converge "
                            f"({highs.modelStatusToString(status)})")
    info = highs.getInfo()
    minimizer = _kink_minimizer(d, nodes, np.array(highs.getSolution().col_value))
    return float(info.objective_function_value), minimizer, int(info.simplex_iteration_count)


def kink_lp_linprog_reference(d: r.Dataset, grid_points_per_gap: int, tol: float = 1e-6,
                              max_iters: int = 200_000) -> tuple[float, r.PiecewiseLinear, int]:
    """The kink-form grid LP of ``oracle.grid_tv_minimize`` solved through ``linprog``,
    with HiGHS's scaling left on: the package's other options; returns (min_tv, minimizer,
    iterations).
    """
    from scipy.optimize import linprog

    s = np.diff(d.ys) / np.diff(d.xs)
    nodes, a_eq = kink_lp_matrix_reference(d, grid_points_per_gap)
    n_vars = a_eq.shape[1]
    cost = np.ones(n_vars)
    cost[0] = 0.0
    bounds = np.tile([0.0, np.inf], (n_vars, 1))
    bounds[0, 0] = -np.inf
    res = linprog(
        cost,
        A_eq=a_eq,
        b_eq=np.concatenate([s[:1], np.diff(s)]),
        bounds=bounds,
        method="highs",
        # presolve solves this LP outright in 0 iterations, where maxiter cannot bind
        options={
            "presolve": False,
            "maxiter": int(max_iters),
            "primal_feasibility_tolerance": tol,
            "dual_feasibility_tolerance": tol,
        },
    )
    if res.status != 0:
        raise r.OracleError(
            f"grid TV minimization did not converge (status {res.status}: {res.message}); "
            f"objective so far {getattr(res, 'fun', None)!r}"
        )
    return float(res.fun), _kink_minimizer(d, nodes, res.x), int(res.nit)


def _kink_minimizer(d: r.Dataset, nodes: np.ndarray, x: np.ndarray) -> r.PiecewiseLinear:
    """The grid function of a kink-form solution x: sigma_0, then the p and then the q parts."""
    n, h = nodes.size, np.diff(nodes)
    jumps = x[1 : n - 1] - x[n - 1 :]
    slopes = x[0] + np.concatenate([[0.0], np.cumsum(jumps)])
    u = d.ys[0] + np.concatenate([[0.0], np.cumsum(slopes * h)])
    left, right = (u[1] - u[0]) / h[0], (u[-1] - u[-2]) / h[-1]
    return r.from_knots(np.column_stack([nodes, u]), left, right)


def _curve_points_reference(f: r.PiecewiseLinear, lo: float, hi: float):
    xs = np.unique(np.concatenate(([lo, hi], f.x[r.plfun._window(f, lo, hi)])))
    return xs, evaluate(f, xs)


def render_svg_reference(ch: Characterization, members) -> str:
    """The SVG of :func:`ridgeless.cli.render_svg`, built block by block from the block objects."""
    width, height = 800, 500  # pixels
    d = ch.dataset
    xs, ys = d.xs, d.ys
    pad = 0.08 * (xs[-1] - xs[0])
    lo, hi = float(xs[0] - pad), float(xs[-1] + pad)

    curves = [_curve_points_reference(ch.f_D, lo, hi)]
    member_curves = [_curve_points_reference(f, lo, hi) for f in members]
    curves.extend(member_curves)
    support_curves = []
    blocks = blocks_of(ch)
    for blk in blocks:
        a, b = blk.knot_range
        xa, xb = float(xs[a - 1]), float(xs[b - 1])
        grid = np.linspace(xa, xb, 65)
        line = (np.maximum if blk.sign > 0 else np.minimum)(
            blk.lower_support(grid), blk.upper_support(grid)
        )
        support_curves.append((grid, line))
    curves.extend(support_curves)

    all_y = np.concatenate([y for _, y in curves] + [ys])
    ymin, ymax = float(all_y.min()), float(all_y.max())
    if ymax - ymin < 1e-12:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    ypad = 0.08 * (ymax - ymin)
    ymin, ymax = ymin - ypad, ymax + ypad
    margin = 40.0

    def pixels(template: str, x, y) -> map:
        px = margin + (x - lo) / (hi - lo) * (width - 2 * margin)
        py = height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)
        return map(template.format, px.tolist(), py.tolist())

    def pts(curve) -> str:
        return " ".join(pixels("{:.3f},{:.3f}", *curve))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<metadata>{json.dumps({'minimal_tv': ch.minimal_tv})}</metadata>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for blk, (sx, sy) in zip(blocks, support_curves):
        a, b = blk.knot_range
        cx, cy = _curve_points_reference(ch.f_D, float(xs[a - 1]), float(xs[b - 1]))
        ring = pts((np.concatenate((cx, sx[::-1])), np.concatenate((cy, sy[::-1]))))
        parts.append(f'<polygon points="{ring}" fill="#cfe8ff" stroke="none" opacity="0.7"/>')
    for curve in member_curves:
        parts.append(
            f'<polyline points="{pts(curve)}" fill="none" stroke="#999999" stroke-width="1"/>'
        )
    for sup in support_curves:
        parts.append(
            f'<polyline points="{pts(sup)}" fill="none" stroke="#2a7fff" '
            f'stroke-width="1" stroke-dasharray="5,4"/>'
        )
    parts.append(
        f'<polyline points="{pts(curves[0])}" fill="none" stroke="#d62728" stroke-width="2"/>'
    )
    parts.extend(pixels('<circle cx="{:.3f}" cy="{:.3f}" r="4" fill="black"/>', xs, ys))
    parts.append(
        f'<text x="{margin:.0f}" y="{margin - 12:.0f}" font-family="monospace" '
        f'font-size="14">minimal TV = {fmt(ch.minimal_tv)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
