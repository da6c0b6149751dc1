import numpy as np
import pytest

import ridgeless as r
from helpers import (
    chord_tangents,
    random_dataset,
    random_unit_lipschitz_pl,
    sample_member_reference,
    support_tangents,
)
from ridgeless import sample
from ridgeless.characterize import support_envelope
from ridgeless.plfun import (
    canonical,
    evaluate,
    from_json,
    from_knots,
    structurally_equal,
    to_json,
    tv_of_derivative,
)


def prescribed(ch, values):
    """Tangents for ``member_from_tangents``: fixed slopes keyed by knot index."""
    return np.array([values[j] for j in ch.blocks.knots.tolist()])


def small_and_large(rng):
    """20 datasets with m in 4..12, then 20 with m in 100..400 (sizes drawn first)."""
    for m in [None] * 20 + rng.integers(100, 401, size=20).tolist():
        yield random_dataset(rng, m)


class TestSampleMember:
    def test_no_blocks_returns_chords(self, dataset_collinear, dataset_zigzag):
        for d in (dataset_collinear, dataset_zigzag):
            ch = r.characterize(d)
            for seed in (0, 1, 987654321):
                assert structurally_equal(r.sample_member(ch, seed), ch.f_D)

    def test_prescribed_tangents_hit_hand_member(self, dataset_a):
        ch = r.characterize(dataset_a)
        f = r.member_from_tangents(ch, prescribed(ch, {2: 0.5, 3: 1.5}))
        expected = from_knots([(0, 0), (1, 0), (1.5, 0.25), (2, 1), (3, 3)], 0.0, 2.0)
        assert structurally_equal(f, expected)

    def test_degenerate_tangents_reproduce_chord(self, dataset_a):
        ch = r.characterize(dataset_a)
        assert structurally_equal(r.member_from_tangents(ch, prescribed(ch, {2: 1.0, 3: 1.0})), ch.f_D)

    def test_tangents_checked_against_their_brackets(self, dataset_a):
        ch = r.characterize(dataset_a)  # brackets [0, 1] and [1, 2]
        for t in ([0.5], [5.0, -3.0], [0.5, 1.5, 1.5], [np.nan, 1.5], [0.5, 2.0 + 1e-15]):
            with pytest.raises(ValueError, match="tangent_brackets"):
                r.member_from_tangents(ch, t)
        for t in (*r.tangent_brackets(ch), chord_tangents(ch), support_tangents(ch), [0.5, 1.5]):
            assert r.check_membership_against(ch, r.member_from_tangents(ch, t)).is_member, t

    def test_chord_pin_gives_fd(self):
        for d in small_and_large(np.random.default_rng(31)):
            ch = r.characterize(d)
            f = r.member_from_tangents(ch, chord_tangents(ch))
            assert structurally_equal(f, ch.f_D), d.m

    def test_support_pin_is_support_envelope_on_single_gap_block(self, dataset_a):
        ch = r.characterize(dataset_a)
        f = r.member_from_tangents(ch, support_tangents(ch))
        # max of the two support lines: flat until they cross at 1.5, then slope 2
        expected = canonical((1.0, 0.0), 0.0, [(1.5, 2.0)])
        assert structurally_equal(f, expected)

    def test_support_pin_leaves_the_envelope_on_longer_blocks(self):
        # one block over knots 2..4: the support pin follows the chord of gap 3,
        # and the envelope misses the data point (2, 0.5), so it is no member
        ch = r.characterize(r.make_dataset([(0, 0), (1, 0), (2, 0.5), (3, 2), (4, 4.5), (5, 7)]))
        assert (ch.blocks.a.tolist(), ch.blocks.b.tolist()) == ([2], [4])
        f = r.member_from_tangents(ch, support_tangents(ch))
        assert evaluate(f, 2.5) == 1.25
        assert support_envelope(ch, np.zeros(2, dtype=int), np.array([2.0, 2.5])).tolist() == [0.0, 0.75]

    def test_support_pin_is_member(self):
        for d in small_and_large(np.random.default_rng(13)):
            ch = r.characterize(d)
            f = r.member_from_tangents(ch, support_tangents(ch))
            assert r.check_membership_against(ch, f).is_member, d.m

    def test_bracket_end_tangents_give_members(self):
        # a tangent equal to a chord slope crosses its neighbour exactly at a
        # data point, where the rounded crossing must not leave a sliver piece
        rng = np.random.default_rng(29)
        for d in small_and_large(rng):
            ch = r.characterize(d)
            lo, hi = r.tangent_brackets(ch)
            upper = rng.uniform(size=lo.size) < 0.5
            f = r.member_from_tangents(ch, np.where(upper, hi, lo))
            rep = r.check_membership_against(ch, f)
            assert rep.direct_pass and rep.tv_pass, (d.m, rep.violations[:3])
            end = dict(zip(ch.blocks.knots.tolist(), upper.tolist()))
            g = sample_member_reference(ch, 0, draw=lambda rng, j, lo, hi: hi if end[j] else lo)
            assert ((f.anchor, f.left_slope, f.x.tolist(), f.c.tolist(), f.y.tolist())
                    == (g.anchor, g.left_slope, g.x.tolist(), g.c.tolist(), g.y.tolist())), d.m

    def test_alternating_tangents_leave_no_sliver_knot(self):
        # tangents alternating between the incoming and the outgoing chord slope
        # make every other gap a chord; a crossing landing just short of a block
        # knot once left a kink there (jumps -3.06e-11 at m = 45, 4.19e-11 at m = 30)
        rng = np.random.default_rng(11)
        members = 0
        for _ in range(300):
            d = random_dataset(rng, int(rng.integers(3, 60)))
            ch = r.characterize(d)
            knots, s, xs = ch.blocks.knots, ch.profile.slopes, d.xs
            if not knots.size:
                continue
            parity = (knots - ch.blocks.a[ch.blocks.knot_block]) % 2
            for start in (0, 1):
                t = np.where(parity == start, s[knots - 2], s[knots - 1])
                f = r.member_from_tangents(ch, t)
                rep = r.check_membership_against(ch, f)
                assert rep.direct_pass and rep.tv_pass, (d.m, start, rep.violations[:3])
                # a gap is crossed where f kinks strictly inside it; next to a
                # block knot, f then follows the knot's tangent, else the chord
                inner = f.x.searchsorted(xs[1:], side="left") - f.x.searchsorted(xs[:-1], side="right")
                left = np.where(inner[knots - 2] > 0, t, s[knots - 2])
                right = np.where(inner[knots - 1] > 0, t, s[knots - 1])
                sliver = np.isin(xs[knots - 1], f.x) & (left == right)
                assert not sliver.any(), (d.m, start, xs[knots - 1][sliver])
                members += 1
        assert members == 560

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(17)
        d = random_dataset(rng, m=10)
        ch = r.characterize(d)
        for seed in (0, 5, -12, 2**63):
            a = r.sample_member(ch, seed)
            b = r.sample_member(ch, seed)
            assert structurally_equal(a, b, rtol=0.0)

    def test_draw_is_numpys_uniform(self):
        # sample_member draws lo + (hi - lo) * rng.random(n), numpy's own uniform formula:
        # the same bits as rng.uniform(lo, hi) on brackets from 1e-20 to 1e20, some empty
        rng = np.random.default_rng(5)
        for seed in range(3000):
            n = int(rng.integers(1, 12))
            scale = 10.0 ** rng.uniform(-20, 20, size=n)
            lo = scale * rng.uniform(-1, 1, size=n)
            hi = np.where(rng.random(n) < 0.2, lo, lo + scale * rng.uniform(0, 2, size=n))
            draw = lo + (hi - lo) * np.random.default_rng(seed).random(n)
            assert draw.tobytes() == np.random.default_rng(seed).uniform(lo, hi).tobytes(), seed
            assert (draw[lo == hi] == lo[lo == hi]).all()

    def test_seeds_vary_output(self):
        d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3), (4, 6), (5, 10)])
        ch = r.characterize(d)
        members = [r.sample_member(ch, s) for s in range(6)]
        assert any(not structurally_equal(members[0], f) for f in members[1:])

    def test_soundness_batch(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            ch = r.characterize(random_dataset(rng))
            for seed in range(10):
                f = r.sample_member(ch, seed)
                rep = r.check_membership_against(ch, f)
                assert rep.is_member and rep.tv_pass, rep.violations

    def test_member_tv_equals_minimum(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ch = r.characterize(random_dataset(rng))
            f = r.sample_member(ch, 11)
            assert tv_of_derivative(f) == pytest.approx(ch.minimal_tv, rel=1e-12, abs=1e-12)

    def test_cost_and_tv_are_c_star_on_many_small_datasets(self):
        # dataset 1234 member 1 once had TV 3e-11 above C*, from noise jumps at
        # data points inside free blocks
        rng = np.random.default_rng(5)
        for _ in range(1500):
            ch = r.characterize(random_dataset(rng))
            for seed in range(3):
                f = r.sample_member(ch, seed)
                values = (r.cost(r.pl_to_network(f)), tv_of_derivative(f), ch.minimal_tv)
                assert max(values) - min(values) <= 1e-12 * max(values)


def bits(f: r.PiecewiseLinear) -> tuple:
    return (f.anchor, *(a.view(np.int64).tolist() for a in (f.x, f.c, f.y, f.s)))


class TestSampleMembers:
    """``sample_members(ch, seeds)`` is ``sample_member`` seed by seed, bit for bit."""

    @staticmethod
    def assert_one_by_one(ch, seeds):
        batch = r.sample_members(ch, seeds)
        assert [bits(f) for f in batch] == [bits(r.sample_member(ch, s)) for s in seeds]
        return batch

    def test_random_datasets(self):
        rng = np.random.default_rng(2)
        for k in range(60):
            m = int(rng.integers(3, 201)) if k % 2 else None  # else 4..12
            ch = r.characterize(random_dataset(rng, m))
            n = (0, 1, 2, 100)[k % 4]
            self.assert_one_by_one(ch, [int(s) for s in rng.integers(-2**40, 2**40, size=n)])

    def test_uniform_design_at_m_1000_in_several_passes(self):
        # f* sampled on x_i = i/m: collinear but for a few blocks near f*'s kinks
        ch = r.characterize(r.make_dataset_from(random_unit_lipschitz_pl(np.random.default_rng(4)), 1000))
        assert len(ch.blocks) and 100 > sample._rows_per_pass(1000) > 1
        members = self.assert_one_by_one(ch, range(7, 107))
        assert len({tuple(bits(f)[1]) for f in members}) > 1

    def test_no_blocks_and_two_points(self, dataset_zigzag, dataset_collinear):
        for d in (dataset_zigzag, dataset_collinear, r.make_dataset([(0, 0), (1, 1)])):
            ch = r.characterize(d)
            for n in (0, 1, 2, 100):
                members = self.assert_one_by_one(ch, range(n))
                assert len(members) == n and all(f is ch.f_D for f in members)

    def test_negative_and_large_seeds(self):
        ch = r.characterize(random_dataset(np.random.default_rng(12), 40))
        seeds = [-1, -12, -2**63, 2**63, 2**63 + 5, 2**64 - 1, 2**64 + 3, np.uint64(2**63 + 7), np.int64(-3)]
        members = self.assert_one_by_one(ch, seeds)
        # a seed is taken modulo 2**64
        assert bits(members[0]) == bits(members[5]) and bits(members[6]) == bits(r.sample_member(ch, 3))
        assert bits(members[8]) == bits(r.sample_member(ch, 2**64 - 3))


class TestLargeM:
    def test_members_pass_both_routes_at_m_10_000(self):
        # values are kept at the kinks and knots are dropped, not jumps, so
        # neither the values nor the slopes drift with the number of kinks
        ch = r.characterize(random_dataset(np.random.default_rng(1), 10**4))
        for seed in range(5):
            f = r.sample_member(ch, seed)
            for g in (f, from_json(to_json(f))):
                rep = r.check_membership_against(ch, g)
                assert rep.direct_pass and rep.tv_pass, (seed, rep.violations[:3])


class TestPerturbToNonmember:
    def test_all_perturbations_fail_both_tests(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ch = r.characterize(random_dataset(rng))
            for seed in range(5):
                f = r.sample_member(ch, seed)
                g = r.perturb_to_nonmember(ch, f, seed)
                rep = r.check_membership_against(ch, g)
                assert not rep.direct_pass and not rep.tv_pass
                assert rep.tv_value > ch.minimal_tv

    def test_collinear_kink(self, dataset_collinear):
        ch = r.characterize(dataset_collinear)
        g = r.perturb_to_nonmember(ch, ch.f_D, seed=0)
        rep = r.check_membership_against(ch, g)
        assert not rep.is_member and rep.tv_value > 0.0

    def test_zigzag_flags_forced_interval(self, dataset_zigzag):
        ch = r.characterize(dataset_zigzag)
        tags = set()
        for seed in range(8):
            g = r.perturb_to_nonmember(ch, ch.f_D, seed)
            rep = r.check_membership_against(ch, g)
            assert not rep.is_member
            tags |= {v.tag for v in rep.violations}
        assert "forced-1c" in tags

    def test_two_point_dataset_kinks_outside_range(self):
        d = r.make_dataset([(0, 0), (1, 1)])
        ch = r.characterize(d)
        g = r.perturb_to_nonmember(ch, ch.f_D, seed=3)
        assert all(xi > 1.0 for xi, _ in g.breakpoints)
        rep = r.check_membership_against(ch, g)
        assert not rep.direct_pass and not rep.tv_pass
        assert any(v.tag == "forced-1a" for v in rep.violations)

    @pytest.mark.parametrize("k", [0, 52, 53, 60])
    def test_two_point_dataset_at_large_abscissae(self, k):
        # once x_2 >= 2^53 a unit step past it rounds back onto it
        ch = r.characterize(r.Dataset(np.array([1.0, 3.0]) * 2.0**k, np.array([2.0, 5.0]) * 2.0**k))
        g = r.perturb_to_nonmember(ch, ch.f_D, seed=3)
        assert g.x[-1] > ch.dataset.xs[-1]
        rep = r.check_membership_against(ch, g)
        assert not rep.direct_pass and not rep.tv_pass

    def test_gap_with_no_float_inside(self):
        # the midpoint of a one-ulp gap rounds onto one of its ends, so it is never drawn
        u = 2.0**-52
        for pts, blocks in (([(0, 0), (1, 1), (1 + u, 1 + u), (3, 0)], []),
                            ([(0, 0), (1, 1), (1 + u, 1 + 2 * u), (2, 4), (3, 9), (4, 16)], [(2, 5)]),
                            ([(0, 0), (1, 1), (1 + u, 1 + 2 * u), (3, 10), (4, 0)], [(2, 3)])):
            ch = r.characterize(r.make_dataset(pts))
            assert list(zip(ch.blocks.a.tolist(), ch.blocks.b.tolist())) == blocks
            for seed in range(100):
                g = r.perturb_to_nonmember(ch, ch.f_D, seed)
                rep = r.check_membership_against(ch, g)
                assert not rep.direct_pass and not rep.tv_pass, (pts, seed)

    def test_no_gap_with_a_float_inside_raises(self):
        u = 2.0**-52
        ch = r.characterize(r.make_dataset([(1, 0), (1 + u, u), (1 + 2 * u, 3 * u), (1 + 3 * u, 6 * u)]))
        assert len(ch.blocks) == 1
        with pytest.raises(ValueError, match="no gap of the data has a float strictly inside it"):
            r.perturb_to_nonmember(ch, ch.f_D, seed=0)

    def test_interpolation_is_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = random_dataset(rng)
            ch = r.characterize(d)
            g = r.perturb_to_nonmember(ch, r.sample_member(ch, 1), seed=9)
            vals = evaluate(g, d.xs)
            assert np.allclose(vals, d.ys, rtol=0, atol=1e-12)
