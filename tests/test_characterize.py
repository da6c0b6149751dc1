import importlib
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import ridgeless as r
from helpers import (
    blocks_of,
    count_calls,
    localized_slope_bounds_reference,
    random_dataset,
    random_unit_lipschitz_pl,
    tv_formula_pair,
    verdicts_of,
)
from ridgeless.plfun import evaluate, from_knots


class TestConnectTheDots:
    def test_two_points_is_affine(self):
        f = r.connect_the_dots(r.make_dataset([(0, 0), (1, 1)]))
        assert f.breakpoints == ()
        assert evaluate(f, -3.0) == -3.0 and evaluate(f, 7.0) == 7.0

    def test_fixture_structure(self, dataset_a):
        f = r.connect_the_dots(dataset_a)
        assert f.left_slope == 0.0
        assert f.breakpoints == ((1.0, 1.0), (2.0, 1.0))
        assert evaluate(f, -5.0) == 0.0  # slope 0 left tail
        assert evaluate(f, 4.0) == 5.0  # slope 2 right tail

    def test_collinear_no_breakpoints(self, dataset_collinear):
        f = r.connect_the_dots(dataset_collinear)
        assert f.breakpoints == ()


class TestCharacterizeFixtures:
    def test_convex_block_dataset(self, dataset_a):
        ch = r.characterize(dataset_a)
        assert [(v.index, v.kind, v.reason) for v in verdicts_of(ch)] == [
            (1, "forced", "1a"), (2, "free", None), (3, "forced", "1a")]
        assert ch.minimal_tv == 2.0
        assert ch.inflection_set == (1, 3)
        (blk,) = blocks_of(ch)
        assert blk.knot_range == (2, 3) and blk.sign == 1
        assert blk.lower_support.through == (1.0, 0.0) and blk.lower_support.slope == 0.0
        assert blk.upper_support.through == (2.0, 1.0) and blk.upper_support.slope == 2.0
        # chord over the block is the segment y = x - 1 on (1, 2)
        assert evaluate(ch.f_D, 1.5) == 0.5

    def test_zigzag_all_forced(self, dataset_zigzag):
        ch = r.characterize(dataset_zigzag)
        assert [(v.kind, v.reason) for v in verdicts_of(ch)] == [
            ("forced", "1a"), ("forced", "1c"), ("forced", "1a")]
        assert blocks_of(ch) == ()
        assert ch.minimal_tv == 4.0
        assert ch.inflection_set == (1, 2, 3)

    def test_collinear(self, dataset_collinear):
        ch = r.characterize(dataset_collinear)
        assert all(v.kind == "forced" for v in verdicts_of(ch))
        assert ch.minimal_tv == 0.0

    def test_zero_curvature_forces_neighbors(self):
        d = r.make_dataset([(0, 0), (1, 1), (2, 2), (3, 3), (4, 5)])
        ch = r.characterize(d)
        assert [(v.index, v.reason) for v in verdicts_of(ch) if v.kind == "forced"] == [
            (1, "1a"), (2, "1b"), (3, "1b"), (4, "1a")]

    def test_m2_and_m3_are_singletons(self):
        for pts in ([(0, 0), (1, 5)], [(0, 0), (1, 5), (2, -1)]):
            ch = r.characterize(r.make_dataset(pts))
            assert blocks_of(ch) == ()
            assert r.check_membership_against(ch, ch.f_D).is_member

    def test_gap_arrays_are_read_only(self):
        # slopes 0,1,2,3,2,1,0: a convex block, a curvature flip, a concave block
        d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3), (4, 6), (5, 8), (6, 9), (7, 9)])
        ch = r.characterize(d)
        arrays = {**vars(ch.gaps), **vars(ch.blocks)}
        assert sorted(arrays) == ["a", "b", "block", "code", "forced", "free", "knot_block", "knots",
                                  "lower_support", "probe", "sign", "upper_support"]
        arrays.update(xs=ch.dataset.xs, ys=ch.dataset.ys)
        for name, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_multi_gap_block(self):
        d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3), (4, 6), (5, 10)])
        ch = r.characterize(d)
        free = [v.index for v in verdicts_of(ch) if v.kind == "free"]
        assert free == [2, 3, 4]
        (blk,) = blocks_of(ch)
        assert blk.knot_range == (2, 5)

    def test_free_rule_is_complement_of_forced_rules(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = random_dataset(rng)
            ch = r.characterize(d)
            eps = ch.profile.curvatures
            m = d.m
            assert len(verdicts_of(ch)) == m - 1  # one verdict per gap
            for v in verdicts_of(ch):
                j = v.index
                if j in (1, m - 1):
                    assert (v.kind, v.reason) == ("forced", "1a")
                elif eps[j - 2] == 0 or eps[j - 1] == 0:
                    assert (v.kind, v.reason) == ("forced", "1b")
                elif eps[j - 2] * eps[j - 1] == -1:
                    assert (v.kind, v.reason) == ("forced", "1c")
                else:
                    assert v.kind == "free"

    def test_block_structure_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = random_dataset(rng)
            ch = r.characterize(d)
            eps = ch.profile.curvatures
            s = ch.profile.slopes
            kinds = {v.index: v.kind for v in verdicts_of(ch)}
            for blk in blocks_of(ch):
                a, b = blk.knot_range
                assert all(eps[i - 2] == blk.sign for i in range(a, b + 1))
                assert kinds.get(a - 1, "edge") != "free"
                assert kinds.get(b, "edge") != "free"
                run = [s[a - 2]] + [s[i - 1] for i in range(a, b + 1)]
                diffs = blk.sign * np.diff(run)
                assert np.all(diffs > 0)  # strictly monotone slopes through block


class TestTvFormulaIdentity:
    def test_fixtures(self, dataset_a, dataset_zigzag, dataset_collinear):
        for d, expect in [(dataset_a, 2), (dataset_zigzag, 4), (dataset_collinear, 0)]:
            adj, infl = tv_formula_pair(d)
            assert adj == infl == expect

    def test_random_batch_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            adj, infl = tv_formula_pair(random_dataset(rng))
            assert adj == infl

    def test_shortfall_bounds_the_disagreement(self):
        # chord slopes alternate between 1000 and 1000 + 9e-10: every curvature reads 0,
        # so the inflection sum drops the wiggle the adjacent-gap sum keeps
        slopes = np.where(np.arange(9) % 2, 1000 + 9e-10, 1000.0)
        d = r.Dataset(np.arange(10.0), np.concatenate(([0.0], np.cumsum(slopes))))
        ch = r.characterize(d)
        assert ch.shortfall == ch.minimal_tv == 7.1995600592345e-09
        adj, infl = tv_formula_pair(d)
        assert float(adj - infl) <= ch.shortfall
        rng = np.random.default_rng(99)
        for _ in range(200):  # no zero curvature, so nothing falls short
            assert r.characterize(random_dataset(rng)).shortfall == 0.0

    @pytest.mark.parametrize("m", [10**3, 10**4, 3 * 10**4])
    def test_uniform_design_is_quiet(self, m):
        # the paper's setting: f* sampled at x_i = i/m, where runs of zero
        # curvature make the two TV formulas differ by up to the shortfall
        d = r.make_dataset_from(random_unit_lipschitz_pl(np.random.default_rng(4)), m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ch = r.characterize(d)
        adj, infl = tv_formula_pair(d)
        assert float(adj - infl) <= ch.shortfall


class TestMembershipFixtures:
    def test_fd_is_member_everywhere(self, dataset_a, dataset_zigzag, dataset_collinear):
        for d in (dataset_a, dataset_zigzag, dataset_collinear):
            ch = r.characterize(d)
            rep = r.check_membership_against(ch, ch.f_D)
            assert rep.is_member and rep.direct_pass and rep.tv_pass
            assert rep.violations == ()

    def test_hand_member(self, dataset_a):
        f = from_knots([(0, 0), (1, 0), (1.5, 0.25), (2, 1), (3, 3)], 0.0, 2.0)
        rep = r.check_membership_against(r.characterize(dataset_a), f)
        assert rep.is_member and rep.tv_pass
        assert rep.tv_value == pytest.approx(2.0, rel=1e-12)

    def test_hand_nonmember_above_chord(self, dataset_a):
        f = from_knots([(0, 0), (1, 0), (1.5, 0.75), (2, 1), (3, 3)], 0.0, 2.0)
        rep = r.check_membership_against(r.characterize(dataset_a), f)
        assert not rep.is_member and not rep.direct_pass and not rep.tv_pass
        assert rep.tv_value == pytest.approx(4.0, rel=1e-12)
        tags = {v.tag for v in rep.violations}
        assert "block-envelope" in tags and "tv-mismatch" in tags

    def test_interp_violation(self, dataset_a):
        f = from_knots([(0, 0.5), (1, 0), (2, 1), (3, 3)], -0.5, 2.0)
        rep = r.check_membership_against(r.characterize(dataset_a), f)
        assert not rep.is_member and not rep.tv_pass
        assert any(v.tag == "interp" and v.location == 0.0 for v in rep.violations)

    def test_forced_1c_violation(self, dataset_zigzag):
        f = from_knots([(0, 0), (1, 1), (1.5, 0.2), (2, 0), (3, 1)], 1.0, 1.0)
        rep = r.check_membership_against(r.characterize(dataset_zigzag), f)
        assert not rep.is_member
        assert any(v.tag == "forced-1c" for v in rep.violations)

    def test_forced_1b_violation(self):
        d = r.make_dataset([(0, 0), (1, 1), (2, 2), (3, 3), (4, 5)])
        f = from_knots([(0, 0), (1, 1), (1.5, 1.8), (2, 2), (3, 3), (4, 5)], 1.0, 2.0)
        rep = r.check_membership_against(r.characterize(d), f)
        assert any(v.tag == "forced-1b" for v in rep.violations)

    def test_forced_1a_tail_violation(self, dataset_a):
        # breaks the right tail: extra kink beyond the last point
        f = from_knots([(0, 0), (1, 0), (2, 1), (3, 3), (4, 6)], 0.0, 1.0)
        rep = r.check_membership_against(r.characterize(dataset_a), f)
        assert any(v.tag == "forced-1a" for v in rep.violations)
        assert not rep.tv_pass

    def test_boundary_slope_violation(self, dataset_a):
        # slope 2.5 > s_3 = 2 at the block exit, still interpolating
        f = from_knots([(0, 0), (1, 0), (1.8, 0.5), (2, 1), (3, 3)], 0.0, 2.0)
        rep = r.check_membership_against(r.characterize(dataset_a), f)
        assert any(v.tag in ("block-boundary-slope", "block-monotone")
                   for v in rep.violations)
        assert not rep.tv_pass

    def test_below_support_lines_violation(self, dataset_a):
        # dips under both support lines inside the free gap
        f = from_knots([(0, 0), (1, 0), (1.5, -0.4), (2, 1), (3, 3)], 0.0, 2.0)
        rep = r.check_membership_against(r.characterize(dataset_a), f)
        assert any(v.tag in ("block-envelope", "block-monotone") for v in rep.violations)

    def test_report_serializes(self, dataset_a):
        rep = r.check_membership_against(r.characterize(dataset_a), r.connect_the_dots(dataset_a))
        d = asdict(rep)
        assert d["is_member"] is True and d["violations"] == ()

    def test_negative_tolerance_rejected(self, dataset_a):
        with pytest.raises(ValueError):
            r.check_membership_against(r.characterize(dataset_a), r.connect_the_dots(dataset_a), tol=-1.0)

    def test_nan_tolerance_rejected(self, dataset_a):
        # under a nan tolerance every allowance comparison is False, so a far-off
        # function would report no violation and pass as a member
        far = from_knots(np.array([[0.0, 5.0], [1.0, 7.0]]), 0.0, 0.0)
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            r.check_membership_against(r.characterize(dataset_a), far, tol=float("nan"))

    def test_infinite_tolerance_rejected(self, dataset_a):
        # under an infinite tolerance no violation exceeds its allowance, so the
        # same far-off function would pass as a member
        far = from_knots(np.array([[0.0, 5.0], [1.0, 7.0]]), 0.0, 0.0)
        with pytest.raises(ValueError, match="tolerance must be nonnegative and finite"):
            r.check_membership_against(r.characterize(dataset_a), far, tol=np.inf)

    @pytest.mark.parametrize("k", [-60, 0, 45, 53, 60])
    def test_members_pass_at_any_abscissa_scale(self, k):
        # scaling x and y by 2^k keeps every slope; from |x| >= 2^53 a unit step
        # from x_2 or x_{m-1} rounds away, and the tail probes must still land in the tails
        rng = np.random.default_rng(53)
        for _ in range(40):
            d = random_dataset(rng)
            ch = r.characterize(r.Dataset(d.xs * 2.0**k, d.ys * 2.0**k))
            for seed in range(3):
                rep = r.check_membership_against(ch, r.sample_member(ch, seed))
                assert rep.direct_pass, (k, rep.violations)


class TestLocalizedSlopeBounds:
    def test_collinear_zero(self, dataset_collinear):
        assert np.array_equal(r.localized_slope_bounds(r.characterize(dataset_collinear)), [0.0, 0.0])

    def test_convex_fixture(self, dataset_a):
        assert np.array_equal(r.localized_slope_bounds(r.characterize(dataset_a)), [1.0, 2.0, 2.0])

    def test_zigzag_fixture(self, dataset_zigzag):
        assert np.array_equal(r.localized_slope_bounds(r.characterize(dataset_zigzag)), [2.0, 4.0, 4.0])

    def test_two_points(self):
        d = r.make_dataset([(0, 0), (1, 9)])
        assert np.array_equal(r.localized_slope_bounds(r.characterize(d)), [0.0])

    def test_matches_the_clamped_loop_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for m in (2, 3, 4, *rng.integers(5, 80, size=30)):
            ch = r.characterize(random_dataset(rng, m=int(m)))
            want = localized_slope_bounds_reference(ch.profile.slopes)
            assert r.localized_slope_bounds(ch).tobytes() == want.tobytes()


class TestSerialization:
    def test_characterization_to_dict(self, dataset_a):
        ch = r.characterize(dataset_a)
        blob = ch.to_dict()
        assert blob["minimal_tv"] == 2.0
        assert blob["inflection_set"] == [1, 3]
        assert blob["verdicts"][1]["kind"] == "free"
        assert blob["blocks"][0]["knot_range"] == [2, 3]


class TestComputedOnce:
    # ridgeless.characterize is the function; the module is looked up by name.
    module = importlib.import_module("ridgeless.characterize")

    def test_one_profile_and_one_chord_interpolant(self, monkeypatch):
        # slopes 0,1,2,3,2,1,0: a convex block, a curvature flip, a concave block
        d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3), (4, 6), (5, 8), (6, 9), (7, 9)])
        profiles = count_calls(monkeypatch, self.module, "slope_profile")
        chords = count_calls(monkeypatch, self.module, "from_knots")
        ch = r.characterize(d)
        assert len(ch.blocks) == 2
        assert len(profiles) == 1 and len(chords) == 1
