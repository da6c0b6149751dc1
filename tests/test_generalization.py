import numpy as np
import pytest

import ridgeless as r
from helpers import (
    random_dataset,
    random_unit_lipschitz_pl,
    slope_window_failures,
)
from ridgeless.generalization import NonUniformDesignError, is_uniform_design
from ridgeless.plfun import canonical, from_knots, lipschitz_norm


def identity_pl():
    return from_knots([(0.0, 0.0), (1.0, 1.0)], 1.0, 1.0)


class TestGroundTruth:
    def test_norm_computed(self):
        gt = r.GroundTruth.of(identity_pl())
        assert gt.L == 1.0

    def test_mismatched_norm_rejected(self):
        with pytest.raises(ValueError):
            r.GroundTruth(f_star=identity_pl(), L=2.0)


class TestMakeDataset:
    def test_uniform_identity(self):
        d = r.make_dataset_from(r.GroundTruth.of(identity_pl()), 4)
        assert d.points == ((0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (1.0, 1.0))

    def test_uniform_vee(self):
        vee = from_knots([(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)], -1.0, 1.0)
        d = r.make_dataset_from(r.GroundTruth.of(vee), 3)
        xs = [p[0] for p in d.points]
        ys = [p[1] for p in d.points]
        assert xs == pytest.approx([1 / 3, 2 / 3, 1.0], abs=0)
        assert ys == pytest.approx([1 / 6, 1 / 6, 1 / 2], abs=1e-15)

    def test_explicit_abscissae_pass_through(self):
        gt = r.GroundTruth.of(identity_pl())
        d = r.make_dataset_from(gt, [0.1, 0.4, 0.9])
        assert [p[0] for p in d.points] == [0.1, 0.4, 0.9]
        assert is_uniform_design(d) is False

    def test_m1_rejected(self):
        with pytest.raises(ValueError):
            r.make_dataset_from(r.GroundTruth.of(identity_pl()), 1)


class TestLipDomination:
    def test_collinear_exact(self):
        line = canonical((0.0, 1.0), 2.0, [])
        gt = r.GroundTruth.of(line)
        d = r.make_dataset_from(gt, [0.0, 0.5, 1.0])
        ch = r.characterize(d)
        members = [r.sample_member(ch, s) for s in range(5)]
        rep = r.verify_lip_domination(ch, members, gt.L)
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


class TestSupError:
    def test_affine_truth_zero_error(self):
        gt = r.GroundTruth.of(identity_pl())
        d = r.make_dataset_from(gt, 5)
        ch = r.characterize(d)
        members = [r.sample_member(ch, s) for s in range(5)]
        rep = r.verify_sup_error(gt, d, members)
        assert rep.passed and rep.exact_max == pytest.approx(0.0, abs=1e-12)

    def test_random_truth_m10(self):
        rng = np.random.default_rng(44)
        gt = r.GroundTruth.of(random_unit_lipschitz_pl(rng))
        d = r.make_dataset_from(gt, 10)
        ch = r.characterize(d)
        members = [r.sample_member(ch, s) for s in range(100)]
        rep = r.verify_sup_error(gt, d, members)
        assert rep.passed
        assert rep.exact_max <= 2.0 * gt.L / 10 + 1e-9
        assert rep.grid_max <= rep.exact_max + 1e-12  # kink-union max dominates

    def test_larger_m_tightens_bound(self):
        rng = np.random.default_rng(45)
        gt = r.GroundTruth.of(random_unit_lipschitz_pl(rng))
        for m in (10, 100):
            d = r.make_dataset_from(gt, m)
            ch = r.characterize(d)
            members = [r.sample_member(ch, s) for s in range(50)]
            rep = r.verify_sup_error(gt, d, members)
            assert rep.passed and rep.bound == pytest.approx(2.0 / m)

    def test_non_uniform_design_rejected(self):
        gt = r.GroundTruth.of(identity_pl())
        d = r.make_dataset_from(gt, [0.1, 0.5, 1.0])
        with pytest.raises(NonUniformDesignError):
            r.verify_sup_error(gt, d, [])


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
        gt = r.GroundTruth.of(random_unit_lipschitz_pl(rng))
        d = r.make_dataset_from(gt, 10)
        ch = r.characterize(d)
        members = [r.sample_member(ch, s) for s in range(50)]
        sup = r.verify_sup_error(gt, d, members)
        assert sup.passed
        assert sup.exact_max <= 14.0 * gt.L / 10 + 1e-9


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


class TestRandomDesignProbe:
    def test_reports_without_threshold(self):
        rng = np.random.default_rng(49)
        gt = r.GroundTruth.of(random_unit_lipschitz_pl(rng))
        out = r.random_design_probe(gt, m=30, seed=5, n_members=10)
        assert out["m"] == 30
        assert out["measured_sup_error"] >= 0.0
        assert "log_scale_reference" in out and "ratio" in out
