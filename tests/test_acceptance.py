"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
random-batch criteria share one seeded batch of datasets, members and
perturbed non-members; criterion 2 builds it and its runtime budget
includes the construction.
"""

import time

import numpy as np

import ridgeless as r
from helpers import (
    blocks_of,
    member_invariant_failures,
    random_dataset,
    random_unit_lipschitz_pl,
    tv_formula_pair,
    verdicts_of,
)
from ridgeless.oracle import grid_tv_minimize
from ridgeless.plfun import evaluate, structurally_equal, tv_of_derivative

BATCH_SEED = 20260809
_cache: dict = {}


def report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def get_batch():
    """50 random datasets with 20 members and 20 non-members each."""
    if "batch" not in _cache:
        t0 = time.perf_counter()
        rng = np.random.default_rng(BATCH_SEED)
        batch = []
        for _ in range(50):
            d = random_dataset(rng, m=int(rng.integers(4, 13)))
            ch = r.characterize(d)
            members = [r.sample_member(ch, seed) for seed in range(20)]
            nonmembers = [
                r.perturb_to_nonmember(ch, members[k], seed=1000 + k) for k in range(20)
            ]
            batch.append((d, ch, members, nonmembers))
        _cache["batch"] = batch
        _cache["batch_seconds"] = time.perf_counter() - t0
    return _cache["batch"]


class TestAcceptance:
    def test_criterion_1_characterization_fixtures(self):
        cases = [
            ([(0, 0), (1, 0), (2, 1), (3, 3)], 2.0),
            ([(0, 0), (1, 1), (2, 0), (3, 1)], 4.0),
            ([(0, 1), (1, 3), (2, 5)], 0.0),
        ]
        worst = 0.0
        datasets = [r.make_dataset(pts) for pts, _ in cases]
        chs = []
        for d in datasets:
            t0 = time.perf_counter()
            chs.append(r.characterize(d))
            worst = max(worst, time.perf_counter() - t0)

        ch_a, ch_zig, ch_col = chs
        ok = [(v.kind, v.reason) for v in verdicts_of(ch_a)] == [
            ("forced", "1a"), ("free", None), ("forced", "1a")]
        ok &= len(blocks_of(ch_a)) == 1 and blocks_of(ch_a)[0].sign == 1
        ok &= ch_a.minimal_tv == 2.0
        ok &= all(v.kind == "forced" for v in verdicts_of(ch_zig))
        ok &= blocks_of(ch_zig) == () and ch_zig.minimal_tv == 4.0
        ok &= ch_col.minimal_tv == 0.0 and blocks_of(ch_col) == ()
        # singleton family: the sampler can only return the chord interpolant
        ok &= all(
            structurally_equal(r.sample_member(ch_col, s), ch_col.f_D) for s in range(5)
        )
        ok &= worst < 0.1
        report("criterion 1: characterization fixtures", bool(ok),
               f"max characterize time {worst * 1e3:.2f} ms")

    def test_criterion_2_membership_test_equivalence(self):
        t0 = time.perf_counter()
        batch = get_batch()
        agree = total = 0
        members_ok = nonmembers_ok = True
        for _, ch, members, nonmembers in batch:
            for f in members:
                rep = r.check_membership_against(ch, f, tol=1e-9)
                agree += rep.direct_pass == rep.tv_pass
                total += 1
                members_ok &= rep.direct_pass and rep.tv_pass
            for g in nonmembers:
                rep = r.check_membership_against(ch, g, tol=1e-9)
                agree += rep.direct_pass == rep.tv_pass
                total += 1
                nonmembers_ok &= not rep.direct_pass and not rep.tv_pass
        elapsed = time.perf_counter() - t0
        ok = agree == total and members_ok and nonmembers_ok and elapsed < 10.0
        report("criterion 2: direct test == TV test", ok,
               f"{agree}/{total} agree on 50 datasets x (20+20) fns, {elapsed:.2f} s")

    def test_criterion_3_oracle_certification(self):
        t0 = time.perf_counter()
        batch = get_batch()
        worst_residual = 0.0
        monotone_ok = within_tol = True
        for d, ch, _, _ in batch:
            tv64, _, _ = grid_tv_minimize(d, 64)
            tv128, _, _ = grid_tv_minimize(d, 128)
            scale = max(1.0, ch.minimal_tv)
            worst_residual = max(worst_residual, abs(tv64 - ch.minimal_tv) / scale)
            within_tol &= abs(tv64 - ch.minimal_tv) <= 1e-2 * scale
            monotone_ok &= tv128 <= tv64 + 1e-7 * scale  # solver slack only
        elapsed = time.perf_counter() - t0
        ok = within_tol and monotone_ok and elapsed < 300.0
        report("criterion 3: oracle certifies C*", ok,
               f"worst relative residual {worst_residual:.2e}, "
               f"grid doubling monotone, {elapsed:.1f} s")

    def test_criterion_4_network_synthesis(self):
        batch = get_batch()
        checked = 0
        realization_ok = cost_tv_ok = cost_cstar_ok = roundtrip_ok = True
        for d, ch, members, _ in batch:
            for f in members[:2]:
                net = r.pl_to_network(f)
                grid = np.linspace(float(d.xs[0]) - 1.0, float(d.xs[-1]) + 1.0, 1000)
                fx = evaluate(f, grid)
                gap = float(np.max(np.abs(r.evaluate_network(net, grid) - fx)))
                realization_ok &= gap <= 1e-9 * (1.0 + float(np.max(np.abs(fx))))
                c = r.cost(net)
                tv = tv_of_derivative(f)
                cost_tv_ok &= abs(c - tv) <= 1e-12 * max(1.0, tv)
                cost_cstar_ok &= abs(c - ch.minimal_tv) <= 1e-12 * max(1.0, ch.minimal_tv)
                roundtrip_ok &= structurally_equal(r.network_to_pl(net), f, rtol=1e-12)
                checked += 1
        ok = checked >= 100 and realization_ok and cost_tv_ok and cost_cstar_ok and roundtrip_ok
        report("criterion 4: network synthesis", ok,
               f"{checked} members: exact realization, cost=TV=C*, round trip")

    def test_criterion_5_member_invariants(self):
        batch = get_batch()
        failures: list[str] = []
        checked = 0
        for _, ch, members, _ in batch:
            for f in members:
                failures.extend(member_invariant_failures(ch, f, tol=1e-9))
                checked += 1
        report("criterion 5: member proof invariants", not failures,
               f"{checked} members x (monotone, in-out, sandwich, ends, neighbors); "
               f"failures: {failures[:5]}")

    def test_criterion_6_generalization(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(BATCH_SEED + 1)
        f_star = random_unit_lipschitz_pl(rng)
        L = r.lipschitz_norm(f_star)
        assert L == 1.0
        ok = True
        details = []
        for m in (10, 100):
            d = r.make_dataset_from(f_star, m)
            ch = r.characterize(d)
            members = [r.sample_member(ch, seed) for seed in range(1000)]
            sup = r.verify_sup_error(f_star, d, members)
            lip = r.verify_lip_domination(ch, members, L)
            loc = r.verify_localized_bounds(ch, members)
            ok &= sup.passed and sup.exact_max <= 2.0 / m + 1e-9
            ok &= lip.passed and lip.members_max_norm <= L + 1e-9
            ok &= loc.passed and loc.lip_ratio <= 7.0 + 1e-9
            details.append(f"m={m}: sup {sup.exact_max:.4f} <= {2.0 / m}")
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 60.0
        report("criterion 6: generalization bounds", bool(ok),
               "; ".join(details) + f", {elapsed:.1f} s")

    def test_criterion_7_tv_formula_identity(self):
        rng = np.random.default_rng(BATCH_SEED + 2)
        exact = 0
        for _ in range(1000):
            adj, infl = tv_formula_pair(random_dataset(rng))
            exact += adj == infl
        report("criterion 7: TV formulas agree exactly", exact == 1000,
               f"{exact}/1000 random datasets, exact rational equality")
