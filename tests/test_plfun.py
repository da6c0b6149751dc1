import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    breakpoints_between,
    breakpoints_in_reference,
    canonicalize,
    evaluate_by_slope_integration,
    piece_slopes_on,
    random_pl,
    restriction_equal,
)
import ridgeless as r
from ridgeless.plfun import (
    PiecewiseLinear,
    _json_like,
    _prefix_sums,
    _window,
    allowance,
    canonical,
    evaluate,
    from_json,
    from_knots,
    lipschitz_norm,
    one_sided_slopes,
    structurally_equal,
    to_json,
    tv_of_derivative,
)

RELU = canonical((0.0, 0.0), 0.0, [(0.0, 1.0)])
ABS = canonical((0.0, 0.0), -1.0, [(0.0, 2.0)])


def fd_a():
    return from_knots([(0, 0), (1, 0), (2, 1), (3, 3)], 0.0, 2.0)


class TestEvaluate:
    def test_relu_negative_axis(self):
        assert evaluate(RELU, -1.0) == 0.0

    def test_relu_positive_axis(self):
        assert evaluate(RELU, 2.0) == 2.0

    def test_abs(self):
        assert evaluate(ABS, -3.0) == 3.0

    def test_vectorized(self):
        out = evaluate(ABS, np.array([-2.0, 0.0, 2.0]))
        assert np.array_equal(out, [2.0, 0.0, 2.0])

    def test_matches_slope_integration_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_pl(rng)
            xs = rng.uniform(-8.0, 8.0, size=50)
            for x in xs:
                ref = evaluate_by_slope_integration(f, float(x))
                assert evaluate(f, float(x)) == pytest.approx(ref, abs=1e-9, rel=1e-12)


class TestOneSidedSlopes:
    def test_relu_at_kink(self):
        assert one_sided_slopes(RELU, 0.0) == (0.0, 1.0)

    def test_relu_off_kink(self):
        assert one_sided_slopes(RELU, 5.0) == (1.0, 1.0)

    def test_abs_at_kink(self):
        assert one_sided_slopes(ABS, 0.0) == (-1.0, 1.0)

    def test_equal_at_non_breakpoints(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_pl(rng)
            locs = {xi for xi, _ in f.breakpoints}
            for x in rng.uniform(-9, 9, size=20):
                if float(x) in locs:
                    continue
                s_in, s_out = one_sided_slopes(f, float(x))
                assert s_in == s_out


class TestTotalVariation:
    def test_affine_zero(self):
        line = canonical((0.0, 1.0), -5.0, [])
        assert tv_of_derivative(line) == 0.0

    def test_abs(self):
        assert tv_of_derivative(ABS) == 2.0

    def test_connect_the_dots_fixture(self):
        assert tv_of_derivative(fd_a()) == 2.0


class TestLipschitzNorm:
    def test_abs(self):
        assert lipschitz_norm(ABS) == 1.0

    def test_fixture(self):
        assert lipschitz_norm(fd_a()) == 2.0

    def test_affine(self):
        assert lipschitz_norm(canonical((0.0, 0.0), -5.0, [])) == 5.0


class TestRestrictionEqual:
    def test_identical(self):
        assert restriction_equal(RELU, RELU, (-1.0, 1.0), 1e-9)

    def test_relu_vs_abs_right(self):
        assert restriction_equal(RELU, ABS, (0.0, 1.0), 1e-9)

    def test_relu_vs_abs_left(self):
        assert not restriction_equal(RELU, ABS, (-1.0, 0.0), 1e-9)

    def test_infinite_interval(self):
        assert restriction_equal(RELU, ABS, (0.0, math.inf), 1e-9)
        assert not restriction_equal(RELU, ABS, (-math.inf, math.inf), 1e-9)

    def test_detects_interior_kink(self):
        g = from_knots([(0.0, 0.0), (0.5, 0.1), (1.0, 1.0)], 0.0, 1.0)
        f = from_knots([(0.0, 0.0), (1.0, 1.0)], 0.0, 1.0)
        assert not restriction_equal(f, g, (0.0, 1.0), 1e-9)
        assert not structurally_equal(f, g)  # two kinks against three


class TestFromKnots:
    def test_identity_line(self):
        f = from_knots([(0, 0), (1, 1)], 1.0, 1.0)
        assert f.breakpoints == ()
        assert evaluate(f, 10.0) == 10.0

    def test_fixture_structure(self):
        f = fd_a()
        assert f.left_slope == 0.0
        assert f.breakpoints == ((1.0, 1.0), (2.0, 1.0))
        for x, y in [(0, 0), (1, 0), (2, 1), (3, 3), (2.5, 2.0), (-1, 0.0), (4, 5.0)]:
            assert evaluate(f, float(x)) == float(y)

    def test_single_knot_constant(self):
        f = from_knots([(0.0, 3.0)], 0.0, 0.0)
        assert f.breakpoints == ()
        assert evaluate(f, 100.0) == 3.0

    def test_single_knot_wedge(self):
        f = from_knots([(1.0, 0.0)], -1.0, 1.0)
        assert evaluate(f, 0.0) == 1.0 and evaluate(f, 2.0) == 1.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            from_knots([(1.0, 0.0), (0.0, 0.0)], 0.0, 0.0)
        with pytest.raises(ValueError, match="need at least one knot"):
            from_knots([], 0.0, 0.0)

    def test_stores_the_chord_slopes_of_the_knots_kept(self):
        # the tail slopes as given and, between the knots kept, their chords bit for bit:
        # knots dropped with nonzero jumps (near-collinear runs) make the rest be taken
        # again, and a tail slope equal to its end chord drops that end's knot
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = int(rng.integers(1, 20))
            xs = np.sort(rng.choice(np.arange(-500, 500), size=k, replace=False)) / 16.0
            ys = 1.5 * xs + rng.uniform(-1e-14, 1e-14, k) if rng.random() < 0.5 else rng.uniform(-2, 2, k)
            left, right = rng.uniform(-2, 2, 2).tolist()
            if k > 1 and rng.random() < 0.3:
                left, right = (ys[1] - ys[0]) / (xs[1] - xs[0]), (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            f = from_knots(np.column_stack((xs, ys)), left, right)
            assert f.s[0] == f.left_slope == left
            assert f.s[-1] == right or f.s.size == 1  # an affine result keeps the left slope
            assert f.s[1:-1].tobytes() == (np.diff(f.y) / np.diff(f.x)).tobytes()


pl_inputs = st.builds(
    lambda xs, jumps, a, ax, av: ((ax / 4, av / 4), a / 4,
                                  [(x / 4, j / 8) for x, j in zip(sorted(xs), jumps)]),
    st.lists(st.integers(-50, 50), max_size=6, unique=True),
    st.lists(st.integers(-8, 8), min_size=6, max_size=6),
    st.integers(-8, 8),
    st.integers(-20, 20),
    st.integers(-20, 20),
)


class TestCanonicalization:
    @given(pl_inputs)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, raw):
        anchor, a, bps = raw
        f = canonical(anchor, a, bps)
        assert structurally_equal(canonicalize(f), f, rtol=0.0)

    def test_merges_colliding_jumps(self):
        f = canonical((0, 0), 0.0, [(1.0, 1.0), (1.0, -1.0), (2.0, 0.5)])
        assert f.breakpoints == ((2.0, 0.5),)

    def test_drops_negligible_jumps(self):
        f = canonical((0, 0), 0.0, [(0.0, 1.0), (1.0, 1e-15)])
        assert f.breakpoints == ((0.0, 1.0),)

    def test_stores_the_compensated_prefix_sums(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(0, 30))
            # jumps from 1e-13 to 1e5 in size: some fall under the drop threshold
            rows = np.column_stack((rng.uniform(-5, 5, k), rng.uniform(-3, 3, k) * 10.0 ** rng.integers(-13, 6, k)))
            a = float(rng.uniform(-3, 3))
            f = canonical((float(rng.uniform(-5, 5)), 0.0), a, rows)
            assert f.s.tobytes() == _prefix_sums(np.array((a, *f.c))).tobytes()

    def test_left_slope_is_the_one_given(self):
        for a in (-0.0, 0.0, -2.5):
            for bps in ([], [(1.0, 1.0)], [(1.0, 1.0), (2.0, -3.0)]):
                f = canonical((0.0, 0.0), a, bps)
                assert f.left_slope.hex() == f.s[0].hex() == a.hex()
                assert to_json(f).startswith('{"anchor": [0.0, 0.0], "left_slope": %r,' % a)

    def test_rejects_noncanonical_direct_construction(self):
        for x, c, y, s in (((1.0,), (0.0,), (0.0,), (0.0, 0.0)),  # a zero jump
                           ((1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (0.0, 1.0, 2.0)),  # one location twice
                           ((1.0,), (1.0,), (0.0,), (0.0,)),  # as many slopes as kinks
                           ((1.0,), (1.0,), (0.0,), (0.0, math.inf))):  # a slope not finite
            with pytest.raises(ValueError):
                PiecewiseLinear((0.0, 0.0), x=x, c=c, y=y, s=s)

    @pytest.mark.parametrize("x, c, y, s, message", [
        pytest.param([1.0, 2.0], [1.0], [0.0], [0.0, 1.0], "1-D and of one length", id="x0-c0-y0"),  # of two lengths
        pytest.param([1.0], [1.0], [0.0, 1.0], [0.0, 1.0], "1-D and of one length", id="x1-c1-y1"),
        pytest.param(1.0, 1.0, 0.0, [0.0, 1.0], "1-D and of one length", id="1.0-1.0-0.0"),  # not 1-D
        pytest.param([[1.0]], [[1.0]], [[0.0]], [0.0, 1.0], "1-D and of one length", id="x3-c3-y3"),
        pytest.param([1.0], [1.0], [0.0], [0.0], "the slopes one longer", id="s-of-k"),
        pytest.param([1.0], [1.0], [0.0], [[0.0, 1.0]], "the slopes one longer", id="s-2-D"),
        pytest.param([1.0], [1.0], [0.0], [0.0, math.nan], "slopes must be finite", id="s-nan"),
    ])
    def test_rejects_arrays_of_other_shapes(self, x, c, y, s, message):
        with pytest.raises(ValueError, match=message):
            PiecewiseLinear((0.0, 0.0), x=x, c=c, y=y, s=s)

    def test_rejects_non_finite_breakpoints(self):
        # an infinite jump must not push every other jump under the drop threshold
        for bps in ([(0.0, math.inf), (1.0, 1.0)], [(0.0, math.nan)], [(math.inf, 1e-20)],
                    [(0.0, 1e308), (0.0, 1e308)]):
            with pytest.raises(ValueError):
                canonical((0, 0), 0.0, bps)


class TestTvAlgebra:
    @given(pl_inputs, st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=100, deadline=None)
    def test_affine_addend_invariance(self, raw, slope8, intercept8):
        anchor, a, bps = raw
        f = canonical(anchor, a, bps)
        x0, v0 = f.anchor
        c1, c0 = slope8 / 8, intercept8 / 8
        shifted = canonical((x0, v0 + c1 * x0 + c0), f.left_slope + c1, f.breakpoints)
        assert tv_of_derivative(shifted) == tv_of_derivative(f)

    @given(pl_inputs, st.sampled_from([-4.0, -2.0, -0.5, 0.5, 2.0, 4.0]))
    @settings(max_examples=100, deadline=None)
    def test_scaling_homogeneity(self, raw, alpha):
        anchor, a, bps = raw
        f = canonical(anchor, a, bps)
        scaled = canonical((f.anchor[0], alpha * f.anchor[1]), alpha * f.left_slope,
                           [(xi, alpha * c) for xi, c in f.breakpoints])
        assert tv_of_derivative(scaled) == pytest.approx(
            abs(alpha) * tv_of_derivative(f), rel=1e-12)


class TestJsonRoundTrip:
    def test_fixture_exact(self):
        f = fd_a()
        assert structurally_equal(from_json(to_json(f)), f, rtol=0.0)

    def test_random_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_pl(rng)
            g = from_json(to_json(f))
            assert g.breakpoints == f.breakpoints
            assert g.left_slope == f.left_slope and g.anchor == f.anchor

    def test_wire_format(self):
        f = canonical((0.5, 1.5), 2.0, [(1.0, -3.0)])
        assert to_json(f) == ('{"anchor": [0.5, 1.5], "left_slope": 2.0, '
                              '"breakpoints": [[1.0, -3.0]]}')


def direct(anchor, x, c) -> PiecewiseLinear:
    """A PL function built by the constructor itself, with the anchor kept as given."""
    x, c = np.array(x, dtype=float), np.array(c, dtype=float)
    return PiecewiseLinear(anchor, x, c, np.zeros(x.size), np.zeros(x.size + 1))


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestJsonWriter:
    """``to_json`` and the writer that reuses another function's text give json's bytes."""

    def test_int_anchor_and_no_kinks(self):
        f = direct((0, 0), [], [])
        assert to_json(f) == json.dumps(f.to_dict()) == _json_like(fd_a())(f) == \
            '{"anchor": [0, 0], "left_slope": 0.0, "breakpoints": []}'

    def test_numpy_scalars_print_as_json_numbers(self):
        f = PiecewiseLinear((np.float64(1.5), np.float64(-2.0)), np.array([1.0]), np.array([3.0]),
                            np.array([0.0]), np.array([np.float64(1.5), 4.5]))
        assert to_json(f) == json.dumps(f.to_dict()) == \
            '{"anchor": [1.5, -2.0], "left_slope": 1.5, "breakpoints": [[1.0, 3.0]]}'

    def test_exponent_forms(self):
        f = direct((5e-324, 1e+300), [-1e+300, -0.0, 5e-324, 1e16, 1.7976931348623157e308],
                   [1e-07, 1e+300, -5e-324, 123456789012345678.0, -2.5e-310])
        text = to_json(f)
        assert text == json.dumps(f.to_dict())
        assert '[-0.0, 1e+300], [5e-324, -5e-324], [1e+16, 1.2345678901234568e+17]' in text
        assert _json_like(f)(f) == _json_like(direct((0.0, 0.0), [], []))(f) == text

    @given(st.lists(st.tuples(finite, finite.filter(bool)), max_size=12), finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_any_finite_numbers(self, rows, x0, v0):
        x = sorted({x for x, _ in rows})
        f = direct((x0, v0), x, [c for _, c in rows[:len(x)]])
        assert to_json(f) == json.dumps(f.to_dict())

    def test_random_functions(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            f = random_pl(rng, 30)
            assert to_json(f) == json.dumps(f.to_dict())

    def test_reuses_only_equal_bits(self):
        # g shares some of f's kinks and jumps, moves others, and has kinks f lacks
        rng = np.random.default_rng(27)
        for k in range(200):
            f, g = random_pl(rng, 30), random_pl(rng, 30)
            take = rng.random(f.x.size) < 0.7
            x = np.concatenate((f.x[take], g.x))
            c = np.concatenate((np.where(rng.random(f.x.size) < 0.5, f.c, -f.c)[take], g.c))
            order = np.unique(x, return_index=True)[1]
            g = direct(g.anchor, x[order], c[order])
            assert _json_like(g)(f) == json.dumps(f.to_dict()), k

    def test_zero_location_keeps_its_sign(self):
        g = direct((0.0, 0.0), [-1.0, -0.0, 2.0], [1.0, -2.0, 3.0])
        f = direct((0.0, 0.0), [-1.0, 0.0, 2.0], [1.0, -2.0, 3.0])
        assert _json_like(g)(f) == json.dumps(f.to_dict()) == \
            '{"anchor": [0.0, 0.0], "left_slope": 0.0, ' \
            '"breakpoints": [[-1.0, 1.0], [0.0, -2.0], [2.0, 3.0]]}'
        assert _json_like(f)(g) == json.dumps(g.to_dict())


class TestPieceSlopes:
    def test_open_interval_slopes(self):
        f = fd_a()
        assert np.array_equal(piece_slopes_on(f, 1.0, 2.0), [1.0])
        assert np.array_equal(piece_slopes_on(f, 0.5, 2.5), [0.0, 1.0, 2.0])
        assert np.array_equal(piece_slopes_on(f, -math.inf, math.inf), [0.0, 1.0, 2.0])

    def test_windows_match_the_scan(self):
        # ends at breakpoints, off them, at +-inf, and empty or reversed windows
        rng = np.random.default_rng(21)
        for _ in range(60):
            f = random_pl(rng)
            locs = [xi for xi, _ in f.breakpoints]
            ends = [-math.inf, math.inf, *locs, *rng.uniform(-6.0, 6.0, size=3).tolist()]
            for lo in ends:
                for hi in ends:
                    inside = breakpoints_in_reference(f, lo, hi)
                    assert list(f.breakpoints[_window(f, lo, hi)]) == inside
                    assert breakpoints_between(f, lo, hi) == inside
                    if lo < hi:
                        starts = [lo, *(xi for xi, _ in inside)]
                        outgoing = [one_sided_slopes(f, x)[1] for x in starts]
                        assert piece_slopes_on(f, lo, hi).tolist() == outgoing


class TestAllowance:
    """``allowance`` is the one slack rule of every floored relative test."""

    EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3e300, -7e-308, 5e-324, -5e-324, math.inf, -math.inf]

    @staticmethod
    def by_hand(rtol, *scales):
        return rtol * max(1.0, *map(abs, scales))

    def test_matches_the_floor_written_out(self):
        rng = np.random.default_rng(17)
        a = np.array(self.EDGES + rng.normal(0.0, 10.0, size=20).tolist())
        b = rng.permutation(a)
        for rtol in (1e-12, 1e-9, 1e-3):
            expected = [self.by_hand(rtol, x, y) for x, y in zip(a.tolist(), b.tolist())]
            assert allowance(rtol, a, b).tolist() == expected
            assert allowance(rtol, a).tolist() == [self.by_hand(rtol, x) for x in a.tolist()]

    def test_scalars_and_broadcasting(self):
        a = np.array(self.EDGES)
        for scalar in (0.0, -3.0, 2e10, -math.inf):
            expected = [self.by_hand(1e-9, scalar, x) for x in self.EDGES]
            assert allowance(1e-9, scalar, a).tolist() == expected
            assert allowance(1e-9, a, scalar).tolist() == expected
            value = allowance(1e-9, scalar)  # a numpy scalar, so flags compared to it need bool()
            assert isinstance(value, np.floating) and value == self.by_hand(1e-9, scalar)
        assert allowance(1e-9) == 1e-9  # no scale: the floor alone

    def test_report_flags_stay_python_bools(self, dataset_a):
        # json.dumps refuses np.bool_, which a comparison with a scalar allowance gives
        ch = r.characterize(dataset_a)
        member = r.sample_member(ch, seed=3)
        nonmember = r.perturb_to_nonmember(ch, member, seed=3)
        reports = [r.check_membership_against(ch, member), r.check_membership_against(ch, nonmember),
                   r.certify(dataset_a, ch), r.verify_lip_domination(ch, [member], L=2.0),
                   r.verify_lip_domination(ch, [member], L=0.5)]
        assert [rep.tv_pass for rep in reports[:2]] == [True, False]
        assert [rep.passed for rep in reports[2:]] == [True, True, False]
        for rep in reports:
            flags = [v for v in asdict(rep).values() if isinstance(v, (bool, np.bool_))]
            assert flags and all(type(v) is bool for v in flags), rep
            json.dumps(asdict(rep))

    def test_no_floor_written_out_in_the_package(self):
        # the floor of 1 is set in allowance alone
        src = Path(r.__file__).parent
        found = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if "max(1.0" in line or "np.maximum(1.0" in line]
        assert sorted(src.glob("*.py")) and not found, found
