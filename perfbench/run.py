#!/usr/bin/env python3
"""Benchmark of the ridgeless package; README.md in this directory describes it.

Run from the repository root:

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes over a
fixed set of tasks and reports the per-layer metrics.  The metric names
and units come from BENCHMARK.json.  The next-to-last line of stdout is
the full report; the last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread for this process and every child it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from importlib.metadata import version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {"small_batch": "SmallBatch", "grid_certify": "GridCertify", "cli": "Cli"}
SETUP_PROBES = 3  # set-ups in fresh processes before, and again after, the timed run
CHILD_REPEATS = 3  # start-up probes per median
TAIL_BEYOND = 10  # a tail percentile needs this many tasks beyond it


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(name: str, seed: int, workdir: Path):
    """Import the package, generate the inputs and write files; returns (workload, seconds)."""
    start = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    import workloads

    workload = getattr(workloads, WORKLOADS[name])(seed, workdir)
    return workload, time.perf_counter() - start


def probe_setups(args, workdir: Path, tag: str, n: int,
                 speed: HostSpeed) -> list[tuple[float, float]]:
    """Set-ups of n fresh processes, one after another, with a calibration around each.

    Returns (wall seconds, slowdown) per set-up.
    """
    probes = []
    for k in range(n):
        before = speed.sample()
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(workdir / f"{tag}{k}")],
            cwd=ROOT, capture_output=True, text=True, check=True)
        probes.append((float(out.stdout.split()[-1]), before))
    speed.sample()
    return [(t, speed.slowdown_after(k)) for t, k in probes]


def child_wall_ms(code: str) -> float:
    """Median wall time of ``python -c code``."""
    samples = []
    for _ in range(CHILD_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ridgeless").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "loadavg_start": os.getloadavg(),
        "cli.interpreter_ms": child_wall_ms("pass"),
    }


def run_task(workload, i: int, checks) -> float:
    """Run task i, counting an exception as a failed check; returns its wall seconds."""
    checks.begin(workload.key(i))
    start = time.perf_counter()
    try:
        workload.run_task(i, checks)
    except Exception:
        traceback.print_exc()
        checks.record("task_raised", False)
    return time.perf_counter() - start


def timed_run(workload, seconds: float, checks, speed: HostSpeed) -> list[tuple[float, float]]:
    """Closed loop, one client: whole batches of tasks until the next would overrun.

    Calibrates between tasks, at most every hostspeed.EVERY_S, and once
    at the end.  Returns (wall seconds, slowdown) of every task, with the
    slowdown of the stretch between the calibrations around the task.
    """
    workload.warmup()
    tasks: list[tuple[float, int]] = []  # (wall seconds, calibration before the task)
    batches = 0
    start = time.perf_counter()
    while True:
        for _ in range(workload.batch):
            speed.sample_if_due()
            tasks.append((run_task(workload, len(tasks), checks), len(speed.samples_ms) - 1))
        batches += 1
        elapsed = time.perf_counter() - start
        if elapsed * (batches + 1) / batches > seconds:
            speed.sample()
            return [(t, speed.slowdown_after(k)) for t, k in tasks]


def timed(at_ref: float, wall: float, unit: str, **extra) -> dict:
    """A metric at the reference host speed, with its wall value beside it."""
    return {"value": at_ref, "unit": unit, "wall": wall, **extra}


def tail(wall: list[float], at_ref: list[float]) -> dict | None:
    """The highest percentile of task time with TAIL_BEYOND tasks beyond it, if above the median."""
    n = len(wall)
    pct = 100.0 * (n - TAIL_BEYOND) / n
    if pct <= 50.0:
        return None
    k = n - TAIL_BEYOND - 1
    return timed(sorted(at_ref)[k] * 1e3, sorted(wall)[k] * 1e3, "ms",
                 percentile=math.floor(pct * 10) / 10, tasks=n, tasks_beyond=TAIL_BEYOND)


def end_to_end(tasks, setups, checks) -> dict:
    """End-to-end metrics from (wall seconds, slowdown) of each task and set-up."""
    wall = [t for t, _ in tasks]
    at_ref = [t / slowdown for t, slowdown in tasks]
    setup_wall = [t for t, _ in setups]
    setup_at_ref = [t / slowdown for t, slowdown in setups]
    n = len(tasks)
    full = {
        "setup_s": timed(statistics.median(setup_at_ref), statistics.median(setup_wall), "s",
                         samples=len(setups)),
        "tasks_per_s": timed(n / sum(at_ref), n / sum(wall), "1/s", tasks=n),
        "task_p50_ms": timed(statistics.median(at_ref) * 1e3, statistics.median(wall) * 1e3,
                             "ms", samples=n),
        "task_tail_ms": tail(wall, at_ref),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "failed_share": {"value": checks.n_failed / checks.attempted, "unit": "ratio",
                         "ops_attempted": checks.attempted, "ops_failed": checks.n_failed},
    }
    return {name: entry for name, entry in full.items() if entry is not None}


def traced_run(workload, seconds: float, checks, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the fixed task set.

    Returns per-layer values by name and the pass timings.
    """
    from workloads import MIX
    from spans import Tracer

    workload.warmup()
    passes = {False: [], True: []}
    label_ms = defaultdict(list)
    per_pass = []
    first = None
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if len(per_pass) % 2 == 0 else (True, False)):
            tracer = Tracer() if traced else None
            if tracer:
                tracer.install()
            total = 0.0
            try:
                for i in range(workload.trace_tasks):
                    if tracer:
                        tracer.task = i
                    dt = run_task(workload, i, checks)
                    total += dt
                    if not traced and workload.label(i):
                        label_ms[workload.label(i)].append(dt * 1e3)
            finally:
                if tracer:
                    tracer.uninstall()
            passes[traced].append(total)
            if tracer:
                per_pass.append(layer_values(tracer))
                first = first or tracer
        elapsed = time.perf_counter() - start
        if elapsed * (len(per_pass) + 1) / len(per_pass) > seconds:
            break
    first.write_jsonl(spans_path)

    values = dict(per_pass[0])
    for name in values:
        if name.endswith(".self_ms"):
            values[name] = statistics.median(p[name] for p in per_pass)
    for label in MIX:
        samples = label_ms[label]
        values[f"cli.{label}.p50_ms"] = statistics.median(samples) if samples else 0.0
    untraced, traced_s = statistics.median(passes[False]), statistics.median(passes[True])
    values["trace.overhead_share"] = (traced_s - untraced) / untraced
    values["cli.import_ms"] = child_wall_ms("import ridgeless.cli")
    timing = {"untraced_pass_s": passes[False], "traced_pass_s": passes[True],
              "tasks_per_pass": workload.trace_tasks, "spans_first_pass": len(first.spans),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return values, timing


def layer_values(tracer) -> dict:
    from spans import COUNTERS, TRACED

    calls, self_ns = tracer.layer_totals()
    values = {}
    for module, func in TRACED:
        name = f"{module}.{func}"
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_ms"] = self_ns[name] / 1e6
    for name in COUNTERS:
        values[name] = tracer.counters[name]
    n_char = calls["characterize.characterize"]
    nested = tracer.calls_under("dataset.slope_profile", "characterize.characterize")
    values["dataset.slope_profile.calls_per_characterize"] = nested / n_char if n_char else 0.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ridgeless" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ridgeless'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    if args.setup_probe:
        print(set_up(args.workload, args.seed, Path(args.setup_probe))[1])
        return 0

    from hostspeed import HostSpeed  # after the set-up probe: numpy counts in set-up

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_speed = HostSpeed()
        probe_setups(args, workdir, "warm", 1, HostSpeed())  # fills the file cache; not counted
        setups = probe_setups(args, workdir, "before", SETUP_PROBES, setup_speed)
        # Not a sample: numpy is imported already, and a fresh process imports it in set-up.
        workload, own_setup = set_up(args.workload, args.seed, workdir / "run")
        env = environment()
        from checks import Checks

        checks = Checks()
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env,
                  "setup_samples_s": setups, "own_setup_s": own_setup}
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values, report["passes"] = traced_run(workload, args.seconds, checks, spans_path)
            values["cli.interpreter_ms"] = env["cli.interpreter_ms"]
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
            report["per_layer"] = metrics
        else:
            run_speed = HostSpeed()
            tasks = timed_run(workload, args.seconds, checks, run_speed)
            # Probes on both sides of the timed run see more of the host's slow swings.
            setups += probe_setups(args, workdir, "after", SETUP_PROBES, setup_speed)
            report["end_to_end"] = end_to_end(tasks, setups, checks)
            report["host_speed"] = {"run": run_speed.summary(), "setup": setup_speed.summary()}
            metrics = {m["name"]: {"value": report["end_to_end"][m["name"]]["value"],
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
        env["loadavg_end"] = os.getloadavg()
        report["checks"] = checks.summary()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": checks.n_wrong == 0, "attempted": checks.attempted,
                      "failed": checks.n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
