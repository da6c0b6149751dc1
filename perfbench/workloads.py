"""The benchmark workloads: generated inputs taken through the package in-process.

Every package function is looked up on the ``ridgeless`` package at call
time, so the tracer's patches (spans.py) see the benchmark's own
calls as well as the calls between modules.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import ridgeless as rl
import ridgeless.cli
from checks import DRIFT_RTOL, Checks, rel_close, within_drift
from inputs import (random_points, rng_for, stratified_sizes, unit_lipschitz_pl, value_scale,
                    write_csv)

# cost(network), TV(Df) and C* are the same number; only rounding may separate them.
IDENTITY_RTOL = 1e-12


def member_checks(ch, seed: int, checks: Checks, points) -> None:
    """Sample a member, perturb it, test both, round-trip it through a network."""
    f = rl.sample_member(ch, seed=seed)
    g = rl.perturb_to_nonmember(ch, f, seed=seed)

    rep = rl.check_membership_against(ch, f)
    ok = rep.direct_pass and rep.tv_pass
    checks.record("member_accepted", ok, drift=not ok and within_drift(
        (v.magnitude for v in rep.violations), value_scale(points)))
    rep = rl.check_membership_against(ch, g)
    checks.record("nonmember_rejected", not rep.direct_pass and not rep.tv_pass)

    net = rl.pl_to_network(f)
    back = rl.network_to_pl(net)
    ok = rl.structurally_equal(back, f)
    checks.record("network_round_trip", ok,
                  drift=not ok and rl.structurally_equal(back, f, rtol=DRIFT_RTOL))
    values = (rl.cost(net), rl.tv_of_derivative(f), ch.minimal_tv)
    ok = rel_close(values, IDENTITY_RTOL)
    checks.record("cost_tv_identity", ok, drift=not ok and rel_close(values, DRIFT_RTOL))


class Workload:
    batch = 1  # tasks per scheduling unit of the timed loop
    period: int  # task i does the same work as task i + period

    def warmup(self) -> None:
        self.run_task(0, Checks())

    def key(self, i: int) -> int:
        """Names the work of task i, so that its repeats check the same operations."""
        return i % self.period

    def label(self, i: int) -> str | None:
        return None


class SmallBatch(Workload):
    """Datasets with m in 4..12 through the whole pipeline, three members each."""

    sizes = list(range(4, 13))
    batch = len(sizes)  # the timed loop stops only at the end of a stratum
    pool = period = 513
    members = 3
    trace_tasks = 450

    def __init__(self, seed: int, workdir) -> None:
        rng = rng_for(seed, 1)
        self.inputs = [(random_points(rng, m), int(rng.integers(2**31)))
                       for m in stratified_sizes(rng, self.sizes, self.pool)]

    def run_task(self, i: int, checks: Checks) -> None:
        points, seed = self.inputs[i % self.pool]
        ch = rl.characterize(rl.make_dataset(points))
        for k in range(self.members):
            member_checks(ch, seed + k, checks, points)


class GridCertify(Workload):
    """Datasets with m in 20..60 certified by the grid LP at 64 points per gap."""

    sizes = list(range(20, 61, 5))
    batch = len(sizes)
    pool = period = 99
    trace_tasks = 9

    def __init__(self, seed: int, workdir) -> None:
        rng = rng_for(seed, 3)
        self.inputs = [random_points(rng, m) for m in stratified_sizes(rng, self.sizes, self.pool)]

    def run_task(self, i: int, checks: Checks) -> None:
        d = rl.make_dataset(self.inputs[i % self.pool])
        report = rl.certify(d, rl.characterize(d), grid_points_per_gap=64)
        checks.record("certified", report.passed)


# The cli mix, in cycle order; later entries read files that earlier ones wrote.
MIX = (
    "characterize", "fd", "sample", "check_fd", "check_member", "tv",
    "to_network", "from_network", "certify", "bound", "plot",
)
MEMBERS = 20
CERTIFY_FILES = 20  # certify time depends on the data, so cycles rotate over several files


class Cli(Workload):
    """One ``ridgeless`` subcommand per task, through ``ridgeless.cli.main``.

    Set-up imports the CLI and writes an m = 10^3 dataset, CERTIFY_FILES
    m = 50 datasets and a unit-Lipschitz ground truth.  The subcommands run in
    this process: a ``python -m ridgeless`` child spends most of its time
    starting up, and start-up time swung runs too far apart on a shared
    host to gate on.  Start-up is measured in set-up and by the traced
    run's ``cli.import_ms`` instead.
    """

    batch = len(MIX)  # the timed loop stops only at the end of a cycle
    period = len(MIX) * math.lcm(MEMBERS, CERTIFY_FILES)
    trace_tasks = len(MIX)

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = rng_for(seed, 4)
        self.work = workdir
        points = random_points(rng, 1000)
        write_csv(workdir / "data1000.csv", points)
        for k in range(CERTIFY_FILES):
            write_csv(workdir / f"data50-{k}.csv", random_points(rng, 50))
        (workdir / "fstar.json").write_text(json.dumps(unit_lipschitz_pl(rng)))
        self.scale = value_scale(points)
        self.sample_seed = str(int(rng.integers(2**31)))

    def label(self, i: int) -> str:
        return MIX[i % len(MIX)]

    def args(self, i: int) -> list[str]:
        w, seed, cycle = self.work, self.sample_seed, i // len(MIX)
        data, data50 = str(w / "data1000.csv"), str(w / f"data50-{cycle % CERTIFY_FILES}.csv")
        member = str(w / "members" / f"member-{cycle % MEMBERS:04d}.json")
        return {
            "characterize": ["characterize", data, "--json", str(w / "ch.json")],
            "fd": ["fd", data, "--out", str(w / "fd.json")],
            "sample": ["sample", data, "--n", str(MEMBERS), "--seed", seed,
                       "--out-dir", str(w / "members")],
            "check_fd": ["check", data, str(w / "fd.json")],
            "check_member": ["check", data, member],
            "tv": ["tv", member],
            "to_network": ["to-network", member, "--out", str(w / "net.json")],
            "from_network": ["from-network", str(w / "net.json"), "--out", str(w / "back.json")],
            "certify": ["certify", data50, "--grid", "16"],
            "bound": ["bound", data50, "--fstar", str(w / "fstar.json"), "--m", "100",
                      "--members", "100", "--seed", seed],
            "plot": ["plot", data, "--seed", seed, "--out", str(w / "plot.svg")],
        }[self.label(i)]

    def run_task(self, i: int, checks: Checks) -> None:
        out = io.StringIO()
        with redirect_stdout(out):
            rc = rl.cli.main(self.args(i))
        # Every call should exit 0; `check` exits 3 on a rejected function.
        drift = False
        if self.label(i).startswith("check") and rc == 3:
            report = json.loads(out.getvalue())
            drift = within_drift((v["magnitude"] for v in report["violations"]), self.scale)
        checks.record(f"exit_code.{self.label(i)}", rc == 0, drift=drift)
