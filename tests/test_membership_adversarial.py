"""Checker stress tests: members richer than the sampler ever produces,
non-members at margins straddling the tolerance, and tolerance consistency
of the two membership routes."""

import numpy as np
import pytest

import ridgeless as r
from helpers import blocks_of, member_invariant_failures, points_of, random_dataset
from ridgeless.plfun import evaluate, from_knots


def upper_envelope_knots(lines, lo, hi):
    """Vertices of max(lines) on [lo, hi]; each line is (slope, intercept).

    Classic convex-hull-of-lines sweep: sort by slope, drop lines that
    never win, then walk the crossing points left to right.
    """
    lines = sorted(set(lines))
    hull: list[tuple[float, float]] = []
    for m2, b2 in lines:
        while hull:
            m1, b1 = hull[-1]
            if m1 == m2:  # parallel: keep the higher one
                if b2 <= b1:
                    break
                hull.pop()
                continue
            # crossing with the previous hull line
            x12 = (b2 - b1) / (m1 - m2)
            if len(hull) >= 2:
                m0, b0 = hull[-2]
                x01 = (b1 - b0) / (m0 - m1)
                if x12 <= x01:  # middle line never on top
                    hull.pop()
                    continue
            break
        if not hull or hull[-1][0] != m2 or hull[-1][1] < b2:
            hull.append((m2, b2))
    xs = [lo]
    for (m1, b1), (m2, b2) in zip(hull, hull[1:]):
        x = (b2 - b1) / (m1 - m2)
        if lo < x < hi:
            xs.append(x)
    xs.append(hi)
    return [(x, max(m * x + b for m, b in hull)) for x in sorted(set(xs))]


def rich_member(ch, rng):
    """Member built per block as the envelope of one tangent line per knot.

    Unlike the pairwise sampler this can activate any subset of the
    tangents, producing several kinks per gap or kinks at the knots.
    """
    d = ch.dataset
    s = ch.profile.slopes
    xs, ys = d.xs, d.ys
    knots = list(points_of(d))
    for blk in blocks_of(ch):
        a, b = blk.knot_range
        sigma = blk.sign
        lines = []
        for j in range(a, b + 1):
            lo_t, hi_t = sorted((s[j - 2], s[j - 1]))
            t = float(rng.uniform(lo_t, hi_t))
            lines.append((sigma * t, sigma * (ys[j - 1] - t * xs[j - 1])))
        pts = upper_envelope_knots(lines, float(xs[a - 1]), float(xs[b - 1]))
        knots.extend((x, sigma * v) for x, v in pts
                     if min(abs(x - float(q)) for q in xs[a - 1 : b]) > 1e-9)
    knots.sort()
    return from_knots(knots, s[0], s[-1])


class TestRichMembers:
    def test_envelope_of_many_tangents_is_member(self):
        rng = np.random.default_rng(60)
        accepted = 0
        for _ in range(40):
            d = random_dataset(rng)
            ch = r.characterize(d)
            if not blocks_of(ch):
                continue
            for k in range(5):
                f = rich_member(ch, rng)
                rep = r.check_membership_against(ch, f)
                assert rep.is_member and rep.tv_pass, rep.violations[:4]
                assert member_invariant_failures(ch, f) == []
                accepted += 1
        assert accepted >= 50

    def test_member_with_kink_at_interior_block_knot(self):
        # chords on the first block gap, tangent pair on the second: the
        # member then has a genuine convex kink exactly at the middle knot
        d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3), (4, 6), (5, 10)])
        ch = r.characterize(d)
        (blk,) = blocks_of(ch)
        assert blk.knot_range == (2, 5)
        f = from_knots(
            [(0, 0), (1, 0), (2, 1), (3, 3), (3.5, 4.375), (4, 6), (5, 10)],
            0.0, 4.0)
        # kink at x=3: slope jumps from 2 (chord) to 2.75 within [s_2, s_3]
        rep = r.check_membership_against(ch, f)
        assert rep.is_member and rep.tv_pass, rep.violations
        assert member_invariant_failures(ch, f) == []

    def test_member_flat_against_support_then_chord(self, dataset_a):
        # rides the incoming support line, then jumps to the chord
        ch = r.characterize(dataset_a)
        f = from_knots([(0, 0), (1, 0), (1.25, 0.0), (2, 1), (3, 3)], 0.0, 2.0)
        # slopes in the block: 0 then 4/3; 0 >= s_1 = 0, 4/3 <= s_3 = 2
        rep = r.check_membership_against(ch, f)
        assert rep.is_member and rep.tv_pass, rep.violations


class TestMarginSweep:
    @pytest.mark.parametrize("delta", [1e-6, 1e-4, 1e-2, 1.0])
    def test_above_tolerance_bumps_fail_both_tests(self, delta):
        rng = np.random.default_rng(61)
        failed_checked = 0
        for _ in range(20):
            d = random_dataset(rng)
            ch = r.characterize(d)
            if not blocks_of(ch):
                continue
            blk = blocks_of(ch)[0]
            a, b = blk.knot_range
            j = a  # first gap of the block
            mid = 0.5 * (float(d.xs[j - 1]) + float(d.xs[j]))
            g = from_knots(
                sorted(list(points_of(d)) + [(mid, evaluate(ch.f_D, mid) + blk.sign * delta)]),
                ch.profile.slopes[0], ch.profile.slopes[-1])
            rep = r.check_membership_against(ch, g)
            assert not rep.direct_pass and not rep.tv_pass, (delta, rep.violations[:3])
            failed_checked += 1
        assert failed_checked >= 10

    def test_sub_tolerance_bumps_pass_both_tests(self):
        """Deviations far below the tolerance count as members either way."""
        rng = np.random.default_rng(62)
        checked = 0
        for _ in range(20):
            d = random_dataset(rng)
            ch = r.characterize(d)
            if not blocks_of(ch):
                continue
            blk = blocks_of(ch)[0]
            j = blk.knot_range[0]
            mid = 0.5 * (float(d.xs[j - 1]) + float(d.xs[j]))
            g = from_knots(
                sorted(list(points_of(d)) + [(mid, evaluate(ch.f_D, mid) + blk.sign * 1e-13)]),
                ch.profile.slopes[0], ch.profile.slopes[-1])
            rep = r.check_membership_against(ch, g)
            assert rep.direct_pass and rep.tv_pass, rep.violations[:3]
            checked += 1
        assert checked >= 10

    def test_two_routes_agree_across_margins(self):
        """direct and TV verdicts stay equal as a bump sweeps the tolerance."""
        d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3)])
        ch = r.characterize(d)
        for delta in [1e-13, 1e-12, 1e-11, 1e-8, 1e-6, 1e-3, 0.1, 0.4]:
            g = from_knots([(0, 0), (1, 0), (1.5, 0.5 + delta), (2, 1), (3, 3)], 0.0, 2.0)
            rep = r.check_membership_against(ch, g)
            assert rep.direct_pass == rep.tv_pass, (delta, rep.violations)


class TestOracleConditioning:
    def test_wildly_uneven_gaps(self):
        d = r.make_dataset([(0.0, 0.0), (1e-3, 0.5), (1.0, 0.4), (1.001, 0.9), (101.0, 2.0)])
        ch = r.characterize(d)
        rep = r.certify(d, ch, tol=1e-2, grid_points_per_gap=32)
        assert rep.passed, (rep.achieved, rep.target)

    def test_steep_and_flat_mix(self):
        d = r.make_dataset([(0, 0), (0.01, 100.0), (0.02, 100.0), (10.0, 100.5), (10.01, 0.0)])
        ch = r.characterize(d)
        rep = r.certify(d, ch, tol=1e-2, grid_points_per_gap=32)
        assert rep.passed, (rep.achieved, rep.target)
