import io
import math

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
from helpers import loads_dataset, points_of


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
        r.save_dataset(d, path, format=fmt)
        back = r.load_dataset(path, format=fmt)
        assert points_of(back) == points_of(d)

    def test_stream_round_trip(self):
        d = r.make_dataset(self.gnarly)
        buf = io.StringIO()
        r.save_dataset(d, buf, format="csv")
        back = r.load_dataset(io.StringIO(buf.getvalue()), format="csv")
        assert points_of(back) == points_of(d)

    def test_byte_stream(self):
        d = r.load_dataset(io.BytesIO(b"0,0\n1,1\n"), format="csv")
        assert points_of(d) == ((0.0, 0.0), (1.0, 1.0))
        d = r.load_dataset(io.BytesIO(b'{"points": [[0, 0], [1, 1]]}'), format="json")
        assert points_of(d) == ((0.0, 0.0), (1.0, 1.0))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset format 'xml'"):
            r.load_dataset(io.StringIO("0,0\n1,1\n"), format="xml")
        with pytest.raises(ValueError, match="unknown dataset format 'xml'"):
            r.save_dataset(r.make_dataset([(0, 0), (1, 1)]), io.StringIO(), format="xml")


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
