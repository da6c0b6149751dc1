"""The array passes against the per-gap and per-knot loops they replaced.

Characterization, sampling, membership, the localized bounds and the SVG
plot are computed with whole-array numpy passes; ``helpers`` keeps the loop
versions.  Outputs must be equal, not close: the same float operations
run in the same order, and C* is correctly rounded both ways.
"""

import importlib
import inspect
import json
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

import ridgeless as r
import ridgeless.generalization as generalization
import ridgeless.network as network
import ridgeless.oracle as oracle
import ridgeless.plfun as plfun
from ridgeless.characterize import FREE
from ridgeless.cli import main, render_svg
from ridgeless.plfun import evaluate
from helpers import (
    blocks_of,
    canonical_reference,
    characterize_printout_reference,
    characterize_reference,
    check_membership_reference,
    chord_tangents,
    count_calls,
    from_knots_reference,
    perturb_to_nonmember_reference,
    points_of,
    random_dataset,
    random_pl,
    render_svg_reference,
    sample_member_reference,
    slope_profile_reference,
    random_unit_lipschitz_pl,
    sup_error_reference,
    support_tangents,
    tv_formula_pair,
    verdicts_of,
    verify_localized_bounds_reference,
)


def mixed_dataset(rng: np.random.Generator, m: int) -> r.Dataset:
    """Random slopes, small-integer slopes (many zero curvatures) or runs of equal slopes."""
    kind = int(rng.integers(3))
    if kind == 0:
        return random_dataset(rng, m)
    gaps = rng.uniform(0.2, 1.5, size=m - 1)
    xs = np.concatenate([[rng.uniform(-2.0, 2.0)], gaps]).cumsum()
    if kind == 1:
        slopes = rng.integers(-2, 3, size=m - 1).astype(float)
    else:
        slopes = np.repeat(rng.uniform(-3.0, 3.0, size=m // 3 + 1), 3)[: m - 1]
    ys = np.concatenate([[rng.uniform(-1.0, 1.0)], slopes * gaps]).cumsum()
    return r.make_dataset(zip(xs.tolist(), ys.tolist()))


def near_collinear_dataset(rng: np.random.Generator, m: int) -> r.Dataset:
    """Convex or concave runs of slopes about 1e-10 apart beside one slope of 1e3.

    The steps are curvature, so the runs form free blocks, but they fall under
    from_knots' drop threshold, so f_D leaves the data points inside them out
    of its kinks.
    """
    gaps = rng.uniform(0.2, 1.5, size=m - 1)
    xs = np.concatenate([[rng.uniform(-2.0, 2.0)], gaps]).cumsum()
    steps = 1e-10 * rng.uniform(0.1, 1.0, size=m - 1) * rng.choice([-1.0, 1.0])
    slopes = 1.0 + steps.cumsum()
    slopes[rng.integers(m - 1)] = 1e3
    ys = np.concatenate([[0.0], slopes * gaps]).cumsum()
    return r.make_dataset(zip(xs.tolist(), ys.tolist()))


def same_pl(f: r.PiecewiseLinear, g: r.PiecewiseLinear) -> bool:
    return ((f.anchor, f.breakpoints, f.y.tolist(), f.s.tolist())
            == (g.anchor, g.breakpoints, g.y.tolist(), g.s.tolist()))


def skewed(lo, hi, u):
    """A tangent in [lo, hi] drawn towards lo, for scalars or arrays alike."""
    return lo + (hi - lo) * (u * u)


def skewed_tangents(ch: r.Characterization, seed: int) -> np.ndarray:
    """``skewed`` at every block knot, one uniform per knot in knot order, clipped."""
    lo, hi = r.tangent_brackets(ch)
    u = np.random.default_rng(seed % 2**64).uniform(size=lo.size)
    return np.clip(skewed(lo, hi, u), lo, hi)


# tangents for member_from_tangents, and the reference sampler's matching pin or draw
TANGENTS = (
    (lambda ch, seed: chord_tangents(ch), {"pin": "chord"}),
    (lambda ch, seed: support_tangents(ch), {"pin": "support"}),
    (skewed_tangents, {"draw": lambda rng, j, lo, hi: skewed(lo, hi, rng.uniform())}),
)


@pytest.fixture(scope="module")
def cases():
    """300 datasets with m in 3..400 and one with m = 10^4, each with both characterizations."""
    rng = np.random.default_rng(2024)
    sizes = [int(m) for m in rng.integers(3, 401, size=300)] + [10**4]
    out = []
    for m in sizes:
        d = mixed_dataset(rng, m)
        out.append((d, r.characterize(d), characterize_reference(d)))
    return out


class TestCharacterize:
    def test_matches_the_gap_loop(self, cases):
        for d, ch, ref in cases:
            prof, want = r.slope_profile(d), slope_profile_reference(d)
            assert prof.slopes.tolist() == want.slopes.tolist()
            assert prof.curvatures.tolist() == want.curvatures.tolist()
            assert ch.to_dict() == ref.to_dict() and ch.shortfall == ref.shortfall
            assert verdicts_of(ch) == ref.verdicts and blocks_of(ch) == ref.blocks
            assert same_pl(ch.f_D, ref.f_D)

    def test_two_points(self):
        # gaps 1 and m-1 are one gap, which the inflection set holds once
        d = r.make_dataset([(0.5, 1.0), (2.0, -2.0)])
        ch, ref = r.characterize(d), characterize_reference(d)
        assert ch.inflection_set == ref.inflection_set == (1,)
        assert ch.minimal_tv == ref.minimal_tv == 0.0 and ch.shortfall == ref.shortfall == 0.0
        assert ch.to_dict() == ref.to_dict() and same_pl(ch.f_D, ref.f_D)

    def test_block_ids_probes_and_support_lines(self, cases):
        # the fields that every reader of the blocks shares, against the objects
        for d, ch, ref in cases:
            want = ref.to_dict()
            assert ch.gaps.block.tolist() == [-1 if v.block_id is None else v.block_id
                                              for v in ref.verdicts]
            assert ch.blocks.knot_block.tolist() == [
                b.block_id for b in ref.blocks for _ in range(b.knot_range[0], b.knot_range[1] + 1)]
            for name in ("lower_support", "upper_support"):
                x, y, slope = getattr(ch.blocks, name).tolist()
                assert [{"through": [p, q], "slope": t} for p, q, t in zip(x, y, slope)] == \
                    [b[name] for b in want["blocks"]]
            # a probe strictly inside each forced gap, the end gaps reaching to -inf and +inf
            forced, probe, xs = ch.gaps.forced, ch.gaps.probe, d.xs
            lo, hi = xs[forced - 1], xs[forced]
            assert probe[1:-1].tolist() == (0.5 * (lo + hi))[1:-1].tolist()
            assert probe[0] < xs[1] and xs[-2] < probe[-1]

    def test_printout_matches_the_objects_at_m_10_4(self, cases, tmp_path, capsys):
        d, ch, ref = cases[-1]
        assert d.m == 10**4 and len(ch.blocks) > 0
        data, blob = tmp_path / "data.csv", tmp_path / "ch.json"
        r.save_dataset(d, data)
        assert main(["characterize", str(data), "--json", str(blob)]) == 0
        want = characterize_printout_reference(ref) + f"wrote {blob}\n"
        assert capsys.readouterr().out.splitlines() == want.splitlines()
        assert blob.read_text() == json.dumps(ref.to_dict())

    def test_minimal_tv_is_the_rounded_exact_sum(self, cases):
        for d, ch, _ in cases:
            assert ch.minimal_tv == float(tv_formula_pair(d)[0])

    def test_from_knots_matches_the_list_build(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 30))
            xs = np.sort(rng.choice(np.arange(-50, 50), size=k, replace=False)) / 8.0
            ys = rng.integers(-3, 4, size=k) / 4.0  # exact slopes, so some jumps vanish
            knots = list(zip(xs.tolist(), ys.tolist()))
            left, right = float(rng.integers(-2, 3)), float(rng.uniform(-2, 2))
            assert same_pl(r.from_knots(knots, left, right),
                           from_knots_reference(knots, left, right))


def same_bits(f: r.PiecewiseLinear, g: r.PiecewiseLinear) -> bool:
    """Equal bit for bit: anchor and the x, c, y and s arrays, signs of zero included."""
    return ([v.hex() for v in f.anchor] == [v.hex() for v in g.anchor]
            and all(getattr(f, a).tobytes() == getattr(g, a).tobytes() for a in "xcys"))


def random_rows(rng: np.random.Generator) -> np.ndarray:
    """Shuffled (location, jump) rows: runs of up to 5 rows at one location, -0.0 and 0.0
    locations, and zero, sub-threshold, unit and 1e5-sized jumps."""
    k = int(rng.integers(0, 12))
    pool = np.concatenate((rng.integers(-6, 7, size=k) / 4.0, [-0.0, 0.0]))
    locs = np.repeat(rng.choice(pool, size=k), rng.integers(1, 6, size=k))
    size = rng.choice([0.0, 1e-13, 1e-12, 1.0, 1e5], size=locs.size) * rng.uniform(0.5, 2.0, size=locs.size)
    jumps = rng.choice([-1.0, 1.0], size=locs.size) * size
    return rng.permutation(np.column_stack((locs, jumps)))


def canonical_calls(monkeypatch, module) -> list:
    """The arguments of every call ``module`` makes to ``canonical``."""
    seen = []

    def recording(anchor, left_slope, breakpoints):
        seen.append((anchor, left_slope, breakpoints))
        return r.canonical(anchor, left_slope, breakpoints)

    monkeypatch.setattr(module, "canonical", recording)
    return seen


class TestCanonical:
    """The sort-and-merge ``canonical`` against the dict merge it replaced."""

    def test_matches_the_dict_merge(self):
        rng = np.random.default_rng(13)
        runs = 0
        for _ in range(2500):
            rows = random_rows(rng)
            # also sorted, and sorted with one row per location, which skips the sort
            srt = rows[rows[:, 0].argsort(kind="stable")]
            anchor, left = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))), float(rng.uniform(-3, 3))
            for case in (rows, srt, srt[np.unique(srt[:, 0], return_index=True)[1]]):
                want = canonical_reference(anchor, left, case.tolist())
                for form in (case, case.tolist(), list(map(tuple, case.tolist()))):
                    f = r.canonical(anchor, left, form)
                    assert same_bits(f, want)
                    assert np.signbit(f.x).tolist() == np.signbit(want.x).tolist()
            runs += np.unique(rows[:, 0], return_counts=True)[1].max(initial=0) >= 3
        assert runs >= 1000

    def test_signed_zero_locations_keep_the_first(self):
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            f = r.canonical((0.0, 0.0), 0.0, [(1.0, 1.0), (first, 1.0), (second, 2.0)])
            assert f.x.tolist() == [0.0, 1.0] and f.c.tolist() == [3.0, 1.0]
            assert np.signbit(f.x[0]) == np.signbit(first)

    def test_non_finite_sums_raise_in_both(self):
        for rows in ([(0.0, 1e308), (0.0, 1e308)], [(1.0, 1e308), (1.0, 1e308), (1.0, -1e308)],
                     [(0.0, np.inf), (0.0, -np.inf)], [(np.nan, 1.0), (np.nan, 1.0)]):
            for build in (r.canonical, canonical_reference):
                with pytest.raises(ValueError, match="finite"):
                    build((0.0, 0.0), 0.0, rows)

    def test_refuses_rows_not_of_two(self):
        for rows in ([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0, 4.0]], [[1.0, 2.0], [3.0]], [1.0, 2.0],
                     np.zeros((2, 3))):
            with pytest.raises(ValueError, match="breakpoints must be"):
                r.canonical((0.0, 0.0), 0.0, rows)
        for rows in ([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0, 4.0]]):
            with pytest.raises(ValueError, match="breakpoints must be"):
                r.PiecewiseLinear.from_dict({"anchor": [0, 0], "left_slope": 0, "breakpoints": rows})

    def test_network_to_pl_matches_the_dict_merge(self, monkeypatch):
        seen = canonical_calls(monkeypatch, network)
        rng = np.random.default_rng(14)
        shared = 0
        for _ in range(300):
            k = int(rng.integers(0, 20))
            # dyadic locations and power-of-two weights, so -b1 / w1 is the location
            # exactly and units share it; some w1 negative, some zero
            w1 = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 4.0], size=k)
            b1 = -w1 * rng.integers(-4, 5, size=k) / 2.0
            if rng.uniform() < 0.3:
                b1 = rng.uniform(-3.0, 3.0, size=k)
            w2 = rng.choice([-1.0, 1.0], size=k) * rng.choice([0.0, 1e-14, 1.0, 1e5], size=k)
            net = r.ReluNetwork(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                                np.column_stack((w1, b1, w2)))
            f = r.network_to_pl(net)
            anchor, left, rows = seen.pop()
            assert same_bits(f, canonical_reference(anchor, left, rows.tolist()))
            shared += np.unique(rows[:, 0]).size < len(rows)
        assert shared >= 100

    def test_the_m_10_5_member_round_trips(self, monkeypatch):
        d = random_dataset(np.random.default_rng(1), 10**5)
        f = r.sample_member(r.characterize(d), 0)
        assert f.x.size > 10**5
        loaded, extracted = canonical_calls(monkeypatch, plfun), canonical_calls(monkeypatch, network)
        g = plfun.from_json(plfun.to_json(f))
        assert same_bits(g, canonical_reference(*loaded.pop()))
        h = r.network_to_pl(r.pl_to_network(f))
        anchor, left, rows = extracted.pop()
        assert same_bits(h, canonical_reference(anchor, left, rows.tolist()))
        assert g.x.tobytes() == f.x.tobytes() and h.x.size == f.x.size


class TestSample:
    def test_matches_the_scalar_sampler(self, cases):
        for seed, (_, ch, ref) in enumerate(cases):
            assert same_pl(r.sample_member(ch, seed), sample_member_reference(ref, seed)), seed
            for tangents, mode in TANGENTS:
                assert same_pl(r.member_from_tangents(ch, tangents(ch, seed)),
                               sample_member_reference(ref, seed, **mode)), (seed, mode)

    def test_perturbation_matches_the_block_loop(self, cases):
        # a member's kinks inside blocks, and f_D, which has none there
        for seed, (_, ch, ref) in enumerate(cases):
            for f in (r.sample_member(ch, seed), ch.f_D):
                assert same_pl(r.perturb_to_nonmember(ch, f, seed),
                               perturb_to_nonmember_reference(ref, f, seed)), seed


def with_tents(f: r.PiecewiseLinear, spans, sizes) -> r.PiecewiseLinear:
    """f plus c times the hat on each span [lo, hi]: kinks at lo, the midpoint
    and hi, and no change outside the span."""
    rows = [np.column_stack((f.x, f.c))]
    rows += [[[lo, c], [0.5 * (lo + hi), -2.0 * c], [hi, c]] for (lo, hi), c in zip(spans, sizes)]
    return r.canonical(f.anchor, f.left_slope, np.concatenate(rows))


def edge_kinked(ch: r.Characterization, f: r.PiecewiseLinear, rng) -> r.PiecewiseLinear:
    """f with kinks on the data points where the gap classes change or stay forced, and in the tails.

    Hats span the gaps on both sides of every block's first and last knot, a
    block's second gap (kinks on interior block knots), every forced gap that
    follows a forced gap (kinks on data points between forced gaps) and one
    gap width past each end of the data.  Each hat's slopes are about 1e-11,
    under the tolerance, or about 1, over it.
    """
    xs, m, code = ch.dataset.xs, ch.dataset.m, ch.gaps.code
    a, b = ch.blocks.a, ch.blocks.b
    inner = a[b - a > 1] + 1
    between = np.flatnonzero((code[1:] != FREE) & (code[:-1] != FREE)) + 2
    gaps = np.concatenate((a - 1, a, inner, b - 1, b, between))
    spans = [(xs[j - 1], xs[j]) for j in gaps.tolist()]
    w0, w1 = xs[1] - xs[0], xs[-1] - xs[-2]
    spans += [(xs[0] - 2 * w0, xs[0] - w0), (xs[-1] + w1, xs[-1] + 2 * w1)]
    size = rng.choice([-1e-11, 1e-11, -1.0, 1.0], size=len(spans)) * rng.uniform(0.5, 2.0, size=len(spans))
    return with_tents(f, spans, size)


def scaled(d: r.Dataset, k: int) -> r.Dataset:
    """d with both coordinates multiplied by 2^k, which keeps every slope."""
    return r.Dataset(np.ldexp(d.xs, k), np.ldexp(d.ys, k))


class TestMembership:
    def test_matches_the_per_gap_loop(self, cases):
        rng = np.random.default_rng(9)
        # short data, and data far from unit scale, where the tail probes step by one ulp
        small = [mixed_dataset(np.random.default_rng(m + 10 * k), m) for m in (2, 3) for k in range(20)]
        extra = small + [scaled(d, k) for d, _, _ in cases[:10] for k in (-60, 53, 60)]
        extra = [(d, r.characterize(d), characterize_reference(d)) for d in extra]
        for seed, (d, ch, ref) in enumerate(cases + extra):
            member = r.sample_member(ch, seed)
            functions = [member, r.perturb_to_nonmember(ch, member, seed), ch.f_D]
            if seed % 4 == 0:  # off the data, with wrong tails; anything at all
                functions.append(r.from_knots(
                    [(x, y + 1e-6 * rng.standard_normal()) for x, y in points_of(d)], 0.5, -0.5))
                functions.append(random_pl(rng, 20))
            # kinks on the class boundaries and in the tails, and an affine function:
            # the line through the end points, or a constant
            slope = (d.ys[-1] - d.ys[0]) / (d.xs[-1] - d.xs[0]) if seed % 2 else 0.0
            functions += [edge_kinked(ch, (member, ch.f_D)[seed % 2], rng),
                          r.from_knots([(d.xs[0], d.ys[0])], slope, slope)]
            for f in functions:
                assert r.check_membership_against(ch, f) == check_membership_reference(ref, f), seed
            if seed % 10 == 3:  # at the tolerance edge: every excess above 0 fails, and a loose one
                for f, tol in zip(functions[:2] + functions[-2:], (0.0, 1e-3, 0.0, 1e-3)):
                    assert r.check_membership_against(ch, f, tol) == \
                        check_membership_reference(ref, f, tol), (seed, tol)


class TestLocalizedBounds:
    def test_matches_the_gap_loop(self, cases):
        for seed, (_, ch, ref) in enumerate(cases[:100]):
            members = [r.sample_member(ch, seed + k) for k in range(3)]
            members += [members[1], r.perturb_to_nonmember(ch, members[0], seed)]  # a tie
            assert r.verify_localized_bounds(ch, members) == \
                verify_localized_bounds_reference(ref, members)

    def test_ties_pick_the_first_member_and_gap(self, dataset_collinear):
        # every gap of every member has excess 0
        ch = r.characterize(dataset_collinear)
        rep = r.verify_localized_bounds(ch, [ch.f_D, ch.f_D])
        assert (rep.worst_member, rep.worst_gap, rep.max_excess) == (0, 1, 0.0)


def report_bits(report) -> list:
    """A report's fields, each float as its bits (so 0.0 is not -0.0 and nan is nan)."""
    def bits(v):
        if isinstance(v, tuple):
            return tuple(map(bits, v))
        return (float, np.float64(v).view(np.int64).item()) if isinstance(v, float) else (type(v), v)
    return [bits(v) for v in astuple(report)]


def bound_cases(rng: np.random.Generator):
    """(f_star, data, members) on uniform and random designs, with member lists that mix
    members, their perturbations, f_star, f_D and functions that differ from the first
    member only at its first kink or in one tail."""
    for k in range(90):
        f_star = random_unit_lipschitz_pl(rng)
        m = int(rng.integers(2, 120))
        design = m if k % 2 else np.unique(rng.uniform(-0.3, 1.3, size=m))
        d = r.make_dataset_from(f_star, design)
        ch = r.characterize(d)
        members = r.sample_members(ch, range(k, k + int(rng.integers(1, 6))))
        g = members[0]
        mix = (
            [*members, r.perturb_to_nonmember(ch, members[-1], k)],
            [f_star, *members],
            [ch.f_D, *members, ch.f_D],
            [g, r.canonical(g.anchor, g.left_slope, [(g.x[0] - 0.25, 0.5), *g.breakpoints])]
            if g.x.size else [g],
            [g, r.from_knots(np.column_stack((g.x, g.y)), g.s[0], g.s[-1] + 0.5)] if g.x.size else [g],
            [g, r.from_knots(np.column_stack((g.x, g.y)), g.s[0] - 0.5, g.s[-1])] if g.x.size else [g],
            [g, r.from_knots(np.column_stack((g.x, g.y + (np.arange(g.x.size) == 0))), g.s[0], g.s[-1])]
            if g.x.size else [g],
            [r.from_knots([(0.5, float(evaluate(f_star, 0.5)))], 0.25, 0.25), *members],
            members[:1],
            [],
        )
        yield f_star, d, ch, mix[k % len(mix)]


class TestSupError:
    def test_matches_the_member_loop(self):
        seen = Counter()
        for f_star, d, ch, members in bound_cases(np.random.default_rng(30)):
            assert report_bits(r.verify_sup_error(f_star, d, members)) == \
                report_bits(sup_error_reference(f_star, d, members)), (d.m, len(members))
            assert report_bits(r.verify_localized_bounds(ch, members)) == \
                report_bits(verify_localized_bounds_reference(ch, members)), (d.m, len(members))
            seen[len(members) > 1] += 1
            seen["affine first"] += bool(members) and not members[0].x.size
        assert min(seen.values()) >= 8, seen

    def test_stored_kink_values_match_the_union_of_kinks(self):
        # each member is read at its own kinks from y; f_star's kinks and the ends are evaluated
        rng = np.random.default_rng(32)
        stars = [random_unit_lipschitz_pl(rng) for _ in range(40)] + [
            r.from_knots([(0.5, 0.25)], 0.5, 0.5),  # affine
            r.from_knots([(0.0, 0.0), (1.0, 0.5)], -1.0, 1.0),  # kinks at 0 and 1 only
            r.from_knots([(-1.0, 0.0), (2.0, 3.0)], 0.5, -0.5),  # kinks outside [0, 1] only
            r.from_knots([(0.5, 0.0)], -1.0, 1.0)]  # zero at its kink
        seen = Counter()
        for f_star in stars:
            d = r.make_dataset_from(f_star, int(rng.integers(3, 30)))
            inner = f_star.x[(0.0 < f_star.x) & (f_star.x < 1.0)]

            def member(x):
                x = np.unique(np.asarray(x, dtype=float))
                y = evaluate(f_star, x) + rng.uniform(-0.5, 0.5, x.size) * (rng.uniform(size=x.size) < 0.7)
                return r.from_knots(np.column_stack((x, y)), *rng.uniform(-2.0, 2.0, 2))

            members = [member([0.0, *rng.uniform(0, 1, 2)]), member([*rng.uniform(0, 1, 2), 1.0]),
                       member([0.0, 1.0]), member([*inner, *rng.uniform(-0.2, 1.2, 3)]),
                       member(rng.uniform(-0.2, 1.2, 4)), member([0.5]),
                       r.from_knots([(0.25, 0.5)], 0.75, 0.75),  # affine
                       r.from_knots([(0.25, 0.5), (0.5, -0.0)], -2.0, 2.0)]  # -0.0 at a kink
            for f in members:
                rep = r.verify_sup_error(f_star, d, [f])
                assert report_bits(rep) == report_bits(sup_error_reference(f_star, d, [f])), (f_star, f)
                w = (0.0 < f.x) & (f.x < 1.0)
                own = np.abs(f.y[w] - evaluate(f_star, f.x[w]))
                seen["max at a member's own kink"] += bool(own.size and own.max() == rep.exact_max)
                seen["kink at 0"] += 0.0 in f.x
                seen["kink at 1"] += 1.0 in f.x
                seen["kink on f_star's"] += bool(np.isin(f.x, inner).any())
                seen["affine member"] += not f.x.size
                seen["f_star without a kink in (0, 1)"] += not inner.size
            assert report_bits(r.verify_sup_error(f_star, d, members)) == \
                report_bits(sup_error_reference(f_star, d, members))
        assert len(seen) == 6 and min(seen.values()) >= 20, seen

    def test_shared_pieces_are_not_evaluated_again(self, monkeypatch):
        # members that share every piece of the first are evaluated at no grid point
        f_star = random_unit_lipschitz_pl(np.random.default_rng(4))
        d = r.make_dataset_from(f_star, 300)
        ch = r.characterize(d)
        members = [ch.f_D] + r.sample_members(ch, range(5)) + [ch.f_D]
        expected = report_bits(sup_error_reference(f_star, d, members))
        sizes = []

        def counted(f, x):
            sizes.append(np.size(x))
            return evaluate(f, x)

        monkeypatch.setattr(generalization, "evaluate", counted)
        assert report_bits(r.verify_sup_error(f_star, d, members)) == expected
        dense = generalization.SUP_GRID_POINTS_PER_GAP * d.m + 1
        assert sizes.count(dense) == 2  # f_star and the first member
        # the sampled members differ from f_D near f_star's kinks only, and the last not at all
        grid = sizes[2 * len(members) + 3:]  # after f_star at its kinks, then two calls per member
        assert len(grid) == len(members) - 1 and grid[-1] == 0
        assert 0 < max(grid) < dense // 10, grid


class TestRenderSvg:
    def test_matches_the_block_loop(self, dataset_zigzag, dataset_collinear):
        rng = np.random.default_rng(2025)
        sizes = [int(m) for m in rng.integers(2, 401, size=300)] + [10**4]
        datasets = [dataset_zigzag, dataset_collinear] + [
            (near_collinear_dataset if k % 5 == 0 and m > 2 else mixed_dataset)(rng, m)
            for k, m in enumerate(sizes)
        ]
        seen = Counter()
        for k, d in enumerate(datasets):
            ch = r.characterize(d)
            members = [r.sample_member(ch, k + j) for j in range((0, 1, 3, 8)[k % 4])]
            assert render_svg(ch, members) == render_svg_reference(ch, members), (k, d.m)
            blocks = len(ch.blocks)
            seen["no blocks"] += blocks == 0
            seen["dropped block knots"] += not np.isin(d.xs[ch.blocks.knots - 1], ch.f_D.x).all()
            seen[f"{len(members)} members"] += blocks > 0
        assert min(seen.values()) > 10 and len(seen) == 6, seen


class TestNoPerGapCalls:
    """Scalar PL probes per call must not grow with m."""

    names = ("evaluate", "_window", "one_sided_slopes")
    modules = [importlib.import_module(f"ridgeless.{name}")
               for name in ("plfun", "characterize", "sample", "generalization")]

    def counts(self, monkeypatch, m: int) -> dict:
        d = random_dataset(np.random.default_rng(m), m)
        with monkeypatch.context() as mp:
            calls = [(name, count_calls(mp, mod, name))
                     for mod in self.modules for name in self.names if hasattr(mod, name)]

            def tally() -> Counter:
                total = Counter()
                for name, c in calls:
                    total[name] += len(c)
                return total

            seen = {}
            before = tally()
            ch = r.characterize(d)
            seen["characterize"], before = tally() - before, tally()
            members = [r.sample_member(ch, k) for k in range(3)]
            seen["sample_member"], before = tally() - before, tally()
            for f in members:
                r.check_membership_against(ch, f)
            seen["check_membership_against"], before = tally() - before, tally()
            r.verify_localized_bounds(ch, members)
            seen["verify_localized_bounds"], before = tally() - before, tally()
            for k, f in enumerate(members):
                r.perturb_to_nonmember(ch, f, k)
            seen["perturb_to_nonmember"] = tally() - before
        return seen

    def test_same_calls_at_m_100_and_1000(self, monkeypatch):
        assert self.counts(monkeypatch, 100) == self.counts(monkeypatch, 1000)

    def test_membership_is_one_pass(self, monkeypatch):
        # f and f_D each evaluated once, and their one-sided slopes taken once, per check
        assert len(r.characterize(random_dataset(np.random.default_rng(100), 100)).blocks) > 0
        assert self.counts(monkeypatch, 100)["check_membership_against"] == \
            Counter(evaluate=6, one_sided_slopes=6)  # three members


class TestNoObjectLayer:
    def test_library_paths_build_no_blocks_or_verdicts(self, monkeypatch):
        # the classification is arrays only: no per-gap or per-block objects
        module = importlib.import_module("ridgeless.characterize")
        for name in ("IntervalVerdict", "FreeBlock", "SupportLine"):
            assert not hasattr(r, name) and not hasattr(module, name)
        assert not hasattr(r.Characterization, "verdicts")
        # slopes 0,1,2,3,2,1,0: a convex block, a curvature flip, a concave block
        d = r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3), (4, 6), (5, 8), (6, 9), (7, 9)])
        ch = r.characterize(d)
        assert len(ch.blocks) == ch.blocks.a.size == 2
        member = r.sample_member(ch, 0)
        # a member with kinks inside the blocks, and f_D, which has none
        outside = [r.perturb_to_nonmember(ch, f, 0) for f in (member, ch.f_D)]
        functions = [member, ch.f_D, *outside]
        for f in functions:
            r.check_membership_against(ch, f)
        r.verify_localized_bounds(ch, [member, *outside])
        r.verify_lip_domination(ch, [member, *outside], r.lipschitz_norm(ch.f_D))
        minimizers = []

        def recording(*args):
            minimizers.append(r.from_knots(*args))
            return minimizers[-1]

        monkeypatch.setattr(oracle, "from_knots", recording)
        r.certify(d, ch, grid_points_per_gap=8)
        render_svg(ch, [member])
        assert not hasattr(ch, "verdicts")
        # nor the tuple view of any function's kinks, which perfbench's probes still count
        functions += minimizers
        assert len(minimizers) == 1
        for f in functions:
            assert "breakpoints" not in vars(f)
            assert len(f.breakpoints) == f.x.size

    def test_one_sampler_and_no_point_tuples(self):
        # the family's extremes are tangent arrays handed to member_from_tangents,
        # and a dataset is its two arrays only
        assert not hasattr(r, "SampleKnobs")
        assert list(inspect.signature(r.sample_member).parameters) == ["ch", "seed"]
        assert not hasattr(r.Dataset, "points")
        assert not hasattr(r.make_dataset([(0, 0), (1, 2)]), "points")
