import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import ridgeless as r
from helpers import (
    chord_tangents,
    points_of,
    random_dataset,
    random_unit_lipschitz_pl,
    slope_window_failures,
    support_tangents,
)
from ridgeless.plfun import canonical, from_knots, lipschitz_norm


def identity_pl():
    return from_knots([(0.0, 0.0), (1.0, 1.0)], 1.0, 1.0)


class TestMakeDataset:
    def test_uniform_identity(self):
        d = r.make_dataset_from(identity_pl(), 4)
        assert points_of(d) == ((0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (1.0, 1.0))

    def test_uniform_vee(self):
        vee = from_knots([(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)], -1.0, 1.0)
        d = r.make_dataset_from(vee, 3)
        xs = [p[0] for p in points_of(d)]
        ys = [p[1] for p in points_of(d)]
        assert xs == pytest.approx([1 / 3, 2 / 3, 1.0], abs=0)
        assert ys == pytest.approx([1 / 6, 1 / 6, 1 / 2], abs=1e-15)

    def test_explicit_abscissae_pass_through(self):
        f_star = identity_pl()
        d = r.make_dataset_from(f_star, [0.1, 0.4, 0.9])
        assert [p[0] for p in points_of(d)] == [0.1, 0.4, 0.9]

    def test_m1_rejected(self):
        for design in (1, 0, [0.5]):
            with pytest.raises(ValueError):
                r.make_dataset_from(identity_pl(), design)


class TestLipDomination:
    def test_collinear_exact(self):
        line = canonical((0.0, 1.0), 2.0, [])
        d = r.make_dataset_from(line, [0.0, 0.5, 1.0])
        ch = r.characterize(d)
        members = [r.sample_member(ch, s) for s in range(5)]
        rep = r.verify_lip_domination(ch, members, lipschitz_norm(line))
        assert rep.passed and rep.members_max_norm == 2.0 and rep.fd_norm == 2.0

    def test_convex_fixture_bounded_by_two(self, dataset_a):
        ch = r.characterize(dataset_a)
        members = [r.sample_member(ch, s) for s in range(50)]
        rep = r.verify_lip_domination(ch, members, L=2.0)
        assert rep.passed and rep.members_max_norm <= 2.0

    def test_structural_domination_by_fd(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = random_dataset(rng)
            ch = r.characterize(d)
            fd_norm = lipschitz_norm(ch.f_D)
            for seed in range(5):
                assert lipschitz_norm(r.sample_member(ch, seed)) <= fd_norm + 1e-12

    def test_fd_norm_is_the_steepest_chord_bit_for_bit(self):
        # f_D keeps the chord slopes it was built from, and no member, whose forced
        # pieces carry the same chord slopes, reads steeper than the steepest of them
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(100):
            d = random_dataset(rng, int(rng.integers(3, 400)))
            ch = r.characterize(d)
            if not np.array_equal(ch.f_D.x, d.xs[1:-1]):
                continue  # a knot dropped: the chords of the knots kept are taken again
            steepest = float(np.abs(r.slope_profile(d).slopes).max())
            assert lipschitz_norm(ch.f_D) == steepest
            for seed in range(3):
                assert lipschitz_norm(r.sample_member(ch, seed)) <= steepest
            checked += 1
        assert checked >= 90


class TestSupError:
    def test_affine_truth_zero_error(self):
        f_star = identity_pl()
        d = r.make_dataset_from(f_star, 5)
        ch = r.characterize(d)
        members = [r.sample_member(ch, s) for s in range(5)]
        rep = r.verify_sup_error(f_star, d, members)
        assert rep.passed and rep.exact_max == pytest.approx(0.0, abs=1e-12)

    def test_worst_member_is_minus_one_only_without_members(self):
        f_star = identity_pl()
        d = r.make_dataset_from(f_star, 5)
        ch = r.characterize(d)
        members = [ch.f_D, r.sample_member(ch, 0)]
        rep = r.verify_sup_error(f_star, d, members)
        assert rep.exact_max == 0.0 and rep.worst_member == 0
        assert r.verify_lip_domination(ch, members, 1.0).worst_member == 0
        empty = r.verify_sup_error(f_star, d, [])
        assert (empty.exact_max, empty.worst_member) == (0.0, -1)

    def test_random_truth_m10(self):
        rng = np.random.default_rng(44)
        f_star = random_unit_lipschitz_pl(rng)
        d = r.make_dataset_from(f_star, 10)
        ch = r.characterize(d)
        members = [r.sample_member(ch, s) for s in range(100)]
        rep = r.verify_sup_error(f_star, d, members)
        assert rep.passed
        assert rep.exact_max <= 2.0 * lipschitz_norm(f_star) / 10 + 1e-9
        assert rep.grid_max <= rep.exact_max + 1e-12  # kink-union max dominates

    def test_larger_m_tightens_bound(self):
        rng = np.random.default_rng(45)
        f_star = random_unit_lipschitz_pl(rng)
        for m in (10, 100):
            d = r.make_dataset_from(f_star, m)
            ch = r.characterize(d)
            members = [r.sample_member(ch, s) for s in range(50)]
            rep = r.verify_sup_error(f_star, d, members)
            assert rep.passed and rep.bound == pytest.approx(2.0 / m)

    def test_bound_from_the_design(self):
        vee = from_knots([(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)], -1.0, 1.0)
        cases = (
            ([0.1, 0.5, 1.0], 0.5),  # the second gap, w = 0.5: L w
            ([0.3, 0.4, 0.6], 0.8),  # the right tail, 1 - x_m = 0.4: 2 L (1 - x_m)
            ([0.35, 0.5, 0.9], 0.7),  # the left tail, x_1 = 0.35: 2 L x_1
            ([-0.5, 0.25, 1.5], 1.25),  # past both ends: only the gaps count
        )
        for design, bound in cases:
            d = r.make_dataset_from(vee, design)
            ch = r.characterize(d)
            rep = r.verify_sup_error(vee, d, [r.sample_member(ch, s) for s in range(5)])
            assert rep.bound == pytest.approx(bound, rel=1e-15, abs=0)
            assert rep.passed is True and type(rep.bound) is float
            json.dumps(asdict(rep))  # no numpy scalar in the report

    def test_uniform_design_bound_is_2L_x1(self):
        """On x_i = i/m the bound is that of the float design, 2 L x_1, one ulp
        at most from 2 L / m."""
        differ = 0
        for slope in (1.0, 0.3, 3.7, 1000.0 / 7.0):
            line = canonical((0.0, 0.0), slope, [])
            for m in range(2, 60):
                d = r.make_dataset_from(line, m)
                rep = r.verify_sup_error(line, d, [])
                assert rep.bound == 2.0 * slope * float(d.xs[0])
                assert abs(rep.bound - 2.0 * slope / m) <= math.ulp(2.0 * slope / m)
                differ += rep.bound != 2.0 * slope / m
        assert differ  # the float design's bound is not always 2 L / m

    @pytest.mark.parametrize("design", ["iid-uniform", "beta-0.3", "past-both-ends"])
    def test_members_within_design_bound(self, design):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(25):
            f_star = random_unit_lipschitz_pl(rng)
            m = int(rng.integers(3, 60))
            while True:
                if design == "iid-uniform":
                    xs = rng.uniform(0.0, 1.0, size=m)
                elif design == "beta-0.3":
                    xs = rng.beta(0.3, 0.3, size=m)
                else:
                    xs = rng.uniform(-0.5, 1.5, size=m)
                xs = np.unique(xs)
                if xs.size == m:
                    break
            d = r.make_dataset_from(f_star, xs)
            ch = r.characterize(d)
            members = [r.sample_member(ch, int(rng.integers(2**31))) for _ in range(10)]
            members += [r.member_from_tangents(ch, t(ch)) for t in (chord_tangents, support_tangents)]
            rep = r.verify_sup_error(f_star, d, members)
            assert rep.passed and rep.exact_max <= rep.bound, (design, m)
            assert rep.grid_max <= rep.exact_max + 1e-12
            worst = max(worst, rep.exact_max / rep.bound)
        assert worst > 0.1  # the bound is not vacuous on these designs


class TestLocalizedBounds:
    def test_collinear_all_zero_slack(self, dataset_collinear):
        ch = r.characterize(dataset_collinear)
        members = [r.sample_member(ch, s) for s in range(3)]
        rep = r.verify_localized_bounds(ch, members)
        assert rep.passed and rep.max_excess <= 0.0
        assert rep.gap_bounds == (0.0, 0.0)

    def test_convex_fixture_gap_bound(self, dataset_a):
        ch = r.characterize(dataset_a)
        members = [r.sample_member(ch, s) for s in range(50)]
        rep = r.verify_localized_bounds(ch, members)
        assert rep.passed
        assert rep.gap_bounds[1] == 2.0  # drift on the free gap capped by 2
        assert rep.lip_ratio <= 7.0

    def test_random_batch(self):
        rng = np.random.default_rng(46)
        for _ in range(15):
            d = random_dataset(rng)
            ch = r.characterize(d)
            members = [r.sample_member(ch, s) for s in range(10)]
            rep = r.verify_localized_bounds(ch, members)
            assert rep.passed

    def test_sharp_bound_implies_localized(self):
        """Anything within 2L/m is automatically within 14L/m."""
        rng = np.random.default_rng(47)
        f_star = random_unit_lipschitz_pl(rng)
        d = r.make_dataset_from(f_star, 10)
        ch = r.characterize(d)
        members = [r.sample_member(ch, s) for s in range(50)]
        sup = r.verify_sup_error(f_star, d, members)
        assert sup.passed
        assert sup.exact_max <= 14.0 * lipschitz_norm(f_star) / 10 + 1e-9


class TestSlopeWindow:
    def test_members_stay_in_curvature_window(self):
        rng = np.random.default_rng(48)
        for _ in range(25):
            d = random_dataset(rng)
            ch = r.characterize(d)
            for seed in range(8):
                f = r.sample_member(ch, seed)
                assert slope_window_failures(ch, f) == []

    def test_window_on_forced_flip_gap(self, dataset_zigzag):
        ch = r.characterize(dataset_zigzag)
        assert slope_window_failures(ch, ch.f_D) == []
