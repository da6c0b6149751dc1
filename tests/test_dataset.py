import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeless as r
from ridgeless.dataset import (
    DuplicateXError,
    MalformedRecordError,
    NonFiniteValueError,
    TooFewPointsError,
)
from helpers import loads_dataset, points_of, random_dataset


class TestCsvLoading:
    def test_two_points(self):
        d = loads_dataset("0,0\n1,1")
        assert points_of(d) == ((0.0, 0.0), (1.0, 1.0))

    def test_sorts_on_load(self):
        d = loads_dataset("1,1\n0,0")
        assert points_of(d) == ((0.0, 0.0), (1.0, 1.0))

    def test_duplicate_x_reports_value(self):
        with pytest.raises(DuplicateXError) as exc:
            loads_dataset("0,0\n0,1")
        assert exc.value.x == 0.0

    def test_comments_and_blank_lines(self):
        d = loads_dataset("# header\n\n0,0\n# middle\n1,2\n")
        assert points_of(d) == ((0.0, 0.0), (1.0, 2.0))

    def test_malformed_record_line_number(self):
        for text in ("0,0\nnot-a-pair\n1,1", "0,0\n1,abc\n2,2"):
            with pytest.raises(MalformedRecordError) as exc:
                loads_dataset(text)
            assert exc.value.line == 2

    def test_wrong_field_count_line_number(self):
        with pytest.raises(MalformedRecordError) as exc:
            loads_dataset("0,0\n1,2,3")
        assert exc.value.line == 2

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValueError):
            loads_dataset("0,inf\n1,1")
        with pytest.raises(NonFiniteValueError):
            loads_dataset("0,nan\n1,1")

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            loads_dataset("0,0")


class TestJsonLoading:
    def test_basic(self):
        d = loads_dataset('{"points": [[1, 1], [0, 0]]}', format="json")
        assert points_of(d) == ((0.0, 0.0), (1.0, 1.0))

    def test_bad_structure(self):
        with pytest.raises(MalformedRecordError):
            loads_dataset('{"rows": []}', format="json")
        with pytest.raises(MalformedRecordError):
            loads_dataset('{"points": [[1, 2, 3]]}', format="json")
        for text in ('{"points": 5}', '{"points": [["a", 1], [2, 3]]}',
                     '{"points": [[null, 1], [2, 3]]}',
                     '{"points": [[0, true], [1, false], [2, true]]}',
                     '{"points": [["0", "1.5"], ["1", "0"], [2, 3]]}'):
            with pytest.raises(MalformedRecordError):
                loads_dataset(text, format="json")

    def test_invalid_json(self):
        for text in ("{not json", '{"points": ' + "[" * 10**5 + "]" * 10**5 + "}"):
            with pytest.raises(MalformedRecordError):
                loads_dataset(text, format="json")
        # past the interpreter's int digit limit, where it has one; else a float overflow
        with pytest.raises((MalformedRecordError, NonFiniteValueError)):
            loads_dataset('{"points": [[0, 1%s], [1, 1]]}' % ("0" * 5000), format="json")

    def test_non_finite(self):
        with pytest.raises(NonFiniteValueError):
            loads_dataset('{"points": [[0, NaN], [1, 1]]}', format="json")
        with pytest.raises(NonFiniteValueError):  # an integer beyond the float range
            loads_dataset('{"points": [[0, 1%s], [1, 1]]}' % ("0" * 400), format="json")


class TestRoundTrip:
    gnarly = [(-1.75, 0.1), (0.0, -0.0), (1e-3, 1 / 3), (2.5, 1e17), (311.0, -7.2e-12)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bit_exact(self, fmt, tmp_path):
        d = r.make_dataset(self.gnarly)
        path = tmp_path / f"data.{fmt}"
        r.save_dataset(d, path)
        back = r.load_dataset(path)
        assert points_of(back) == points_of(d)

    @pytest.mark.parametrize("name", ["data.csv", "data.json", "DATA.JSON", "data.txt", "data"])
    def test_suffix_picks_the_format_both_ways(self, name, tmp_path):
        d = r.make_dataset(self.gnarly)
        path = tmp_path / name
        r.save_dataset(d, str(path))
        assert path.read_text().startswith("{") == name.lower().endswith(".json")
        assert points_of(r.load_dataset(str(path))) == points_of(d)


class TestEncoding:
    def test_undecodable_byte_is_a_malformed_record(self, tmp_path):
        for name in ("data.csv", "data.json"):
            path = tmp_path / name
            path.write_bytes(b"0,0\n1,\xff\n")
            with pytest.raises(MalformedRecordError, match="byte 0xff at offset 6"):
                r.load_dataset(path)


class TestSlopeProfile:
    def test_convex_fixture(self):
        d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3)])
        prof = r.slope_profile(d)
        assert prof.slopes.tolist() == [0.0, 1.0, 2.0]
        assert prof.curvatures.tolist() == [1, 1]

    def test_zigzag_fixture(self):
        d = r.make_dataset([(0, 0), (1, 1), (2, 0), (3, 1)])
        prof = r.slope_profile(d)
        assert prof.slopes.tolist() == [1.0, -1.0, 1.0]
        assert prof.curvatures.tolist() == [-1, 1]

    def test_collinear(self):
        d = r.make_dataset([(0, 1), (1, 3), (2, 5)])
        prof = r.slope_profile(d)
        assert prof.slopes.tolist() == [2.0, 2.0]
        assert prof.curvatures.tolist() == [0]

    def test_two_points_empty_curvature(self):
        prof = r.slope_profile(r.make_dataset([(0, 0), (2, 1)]))
        assert prof.slopes.tolist() == [0.5]
        assert prof.curvatures.tolist() == []

    def test_near_tie_counts_as_flat(self):
        d = r.make_dataset([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0 + 1e-14)])
        assert r.slope_profile(d).curvatures.tolist() == [0]

    def test_arrays_are_read_only(self):
        prof = r.slope_profile(r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3)]))
        with pytest.raises(ValueError):
            prof.slopes[0] = 5.0
        with pytest.raises(ValueError):
            prof.curvatures[0] = -1

    def test_overflowing_slopes_rejected(self):
        # a rise past the float range, a gap of 1e-320, a slope difference past it
        for points in ([(0, -1e308), (1e-300, 1e308), (2, 0)],
                       [(0, 0), (1e-320, 1), (2, 0)],
                       [(0, 0), (1, 1.5e308), (2, 0)],
                       [(0, 0), (1e-320, 1)]):
            with pytest.raises(NonFiniteValueError, match="non-finite"):
                r.slope_profile(r.make_dataset(points))


# Dyadic coordinates: slopes and their differences are exact in floats,
# so curvature signs are decided without tolerance ambiguity.
dyadic_datasets = st.lists(
    st.tuples(st.integers(-64, 64), st.integers(-64, 64)),
    min_size=3, max_size=10,
    unique_by=lambda p: p[0],
).map(lambda pts: [(x / 4, y / 8) for x, y in pts])


class TestCurvatureInvariance:
    @given(dyadic_datasets, st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=150, deadline=None)
    def test_affine_maps_preserve_curvature(self, pts, alpha, beta8, gamma8):
        beta, gamma = beta8 / 8, gamma8 / 8
        d = r.make_dataset(pts)
        mapped = r.make_dataset([(x, alpha * y + beta * x + gamma) for x, y in pts])
        assert r.slope_profile(mapped).curvatures.tolist() == r.slope_profile(d).curvatures.tolist()

    @given(dyadic_datasets)
    @settings(max_examples=150, deadline=None)
    def test_reflection_negates_curvature(self, pts):
        d = r.make_dataset(pts)
        flipped = r.make_dataset([(x, -y) for x, y in pts])
        expected = [-e for e in r.slope_profile(d).curvatures.tolist()]
        assert r.slope_profile(flipped).curvatures.tolist() == expected


def mirrored(f: r.PiecewiseLinear) -> r.PiecewiseLinear:
    """x -> f(-x): the kinks and values in reverse order at negated locations, and the tails swapped."""
    knots = np.column_stack((-f.x[::-1], f.y[::-1])) if f.x.size else [(-f.anchor[0], f.anchor[1])]
    return r.from_knots(knots, -f.s[-1], -f.s[0])


def negated(f: r.PiecewiseLinear) -> r.PiecewiseLinear:
    """x -> -f(x)."""
    knots = np.column_stack((f.x, -f.y)) if f.x.size else [(f.anchor[0], -f.anchor[1])]
    return r.from_knots(knots, -f.s[0], -f.s[-1])


class TestExactSymmetries:
    """The family depends on the data only through the signs of its curvatures, so
    reflecting x and negating y map it onto the family of the mapped data, exactly."""

    @pytest.fixture(scope="class")
    def datasets(self):
        rng = np.random.default_rng(5)
        return [random_dataset(rng) for _ in range(300)]

    @staticmethod
    def mapped(d: r.Dataset, kind: str) -> r.Dataset:
        return r.Dataset(-d.xs[::-1], d.ys[::-1]) if kind == "x" else r.Dataset(d.xs, -d.ys)

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_curvature_signs_and_minimal_tv(self, datasets, kind):
        for k, d in enumerate(datasets):
            e = r.slope_profile(d).curvatures
            expected = e[::-1] if kind == "x" else -e
            image = self.mapped(d, kind)
            assert r.slope_profile(image).curvatures.tolist() == expected.tolist(), k
            assert r.characterize(image).minimal_tv.hex() == r.characterize(d).minimal_tv.hex(), k

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_members_and_nonmembers_map_across(self, datasets, kind):
        transform = mirrored if kind == "x" else negated
        for k, d in enumerate(datasets):
            ch, image = r.characterize(d), r.characterize(self.mapped(d, kind))
            f = r.sample_member(ch, k)
            rep = r.check_membership_against(image, transform(f))
            assert rep.direct_pass and rep.tv_pass, (k, rep.violations[:3])
            rep = r.check_membership_against(image, transform(r.perturb_to_nonmember(ch, f, k)))
            assert not rep.direct_pass and not rep.tv_pass, k


class TestValidation:
    def test_make_dataset_sorts(self):
        d = r.make_dataset([(2, 0), (0, 0), (1, 5)])
        assert [x for x, _ in points_of(d)] == [0.0, 1.0, 2.0]

    def test_direct_construction_rejects_unsorted(self):
        with pytest.raises(r.DatasetError):
            r.Dataset(xs=(1.0, 0.0), ys=(0.0, 0.0))

    def test_non_finite_direct(self):
        with pytest.raises(NonFiniteValueError):
            r.make_dataset([(0, math.nan), (1, 0)])

    def test_pairs_not_of_two_rejected(self):
        for pairs in ([(0, 1), (2,)], [(0, 1, 3), (2, 4, 5)], [1.0, 2.0]):
            with pytest.raises(ValueError, match=r"points must be \(x, y\) pairs"):
                r.make_dataset(pairs)

    def test_ragged_direct_construction_rejected(self):
        for xs, ys in (([1.0, 2.0], [1.0]), ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [2.0, 3.0]]),
                       (1.0, 2.0)):
            with pytest.raises(r.DatasetError, match="xs and ys must be 1-D and of one length"):
                r.Dataset(xs, ys)
