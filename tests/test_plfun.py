import math

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
from ridgeless.plfun import (
    PiecewiseLinear,
    _window,
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

    def test_rejects_noncanonical_direct_construction(self):
        with pytest.raises(ValueError):
            PiecewiseLinear((0.0, 0.0), 0.0, x=(1.0,), c=(0.0,), y=(0.0,))
        with pytest.raises(ValueError):
            PiecewiseLinear((0.0, 0.0), 0.0, x=(1.0, 1.0), c=(1.0, 1.0), y=(0.0, 0.0))

    @pytest.mark.parametrize("x, c, y", [
        ([1.0, 2.0], [1.0], [0.0]),  # of two lengths
        ([1.0], [1.0], [0.0, 1.0]),
        (1.0, 1.0, 0.0),  # not 1-D
        ([[1.0]], [[1.0]], [[0.0]]),
    ])
    def test_rejects_arrays_of_other_shapes(self, x, c, y):
        with pytest.raises(ValueError, match="must be 1-D and of one length"):
            PiecewiseLinear((0.0, 0.0), 0.0, x=x, c=c, y=y)

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
