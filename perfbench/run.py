"""Benchmark of the early-register-release reproduction (host time).

Usage, from the repository root::

    python3 perfbench/run.py --workload fig11-compiled --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics: it repeats the workload
serially, each repetition in a fresh process, for ``--seconds`` seconds,
and reports medians over the repetitions in reference seconds (times
scaled by the host speed measured with ``reference.py``).  ``--trace 1``
is the per-layer run: rounds of an untraced pass on the default
(pooled) path, an untraced serial pass and a traced serial pass, each
in a fresh process.  Every run builds the compiled core first (outside
timing), checks the outputs, and prints a readable report followed by
one JSON line.  README.md says why each
workload exists and what later changes are predicted to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Build outputs and per-run scratch space (ignored by git).
BUILD_DIR = ROOT / ".bench_build"

#: Seed of the artefacts as the CLI regenerates them, and the seed held
#: out from tuning: a later claim must also hold on the held-out seed.
DEFAULT_SEED = 0
HELD_OUT_SEED = 104729

#: Fresh processes whose set-up time is sampled, at least, per run.
SETUP_SAMPLES = 15
#: Trace seeds a ``--trace 0`` run cycles through, one per repetition
#: (see :func:`trace_seeds`); it makes at least one repetition of each.
TRACE_SEEDS = 4
CHILD_TIMEOUT_S = 150
#: Rounds of untraced and traced passes in a ``--trace 1`` run.
TRACE_ROUNDS = 3
#: Largest share of the traced wall that may lie outside every layer.
UNATTRIBUTED_LIMIT = 0.05
#: Problems printed in full; the rest are counted.
MAX_PROBLEMS = 20

FIDELITY_NOTE = ("model fidelity: unvalidated -- the repository holds no "
                 "machine-readable paper reference yet (ROADMAP item 5), "
                 "so no error figure is given")


class ChildFailed(RuntimeError):
    """A benchmark process exited abnormally."""


def child_env(engine: str, scratch: Path, accel_cache: Path) -> dict:
    """Environment of a benchmark process: every ``REPRO_*`` setting
    dropped (an inherited sweep cache, cache backend, compiler flags or
    trace-path switch would change what is measured), then pinned."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(REPRO_ENGINE=engine,
               REPRO_ACCEL_CACHE=str(accel_cache),
               REPRO_SWEEP_CACHE=str(scratch / "no-default-cache"),
               PYTHONPATH=str(SRC),
               TMPDIR=str(scratch))
    return env


def run_child(spec: dict, env: dict, scratch: Path) -> dict:
    """Run ``child.py`` in a new process; return its JSON record."""
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    spec = dict(spec, cache_dir=str(workdir / "sweeps"),
                record_path=str(workdir / "points"))
    try:
        spec["t0_ns"] = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{spec['mode']} process exited "
                          f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build(env: dict, scratch: Path) -> float:
    """Build the compiled core into ``$REPRO_ACCEL_CACHE`` (a no-op load
    when it is already there); returns the seconds that took."""
    return run_child({"mode": "build"}, env, scratch)["build_s"]


# ----------------------------------------------------------------------
def percentile(values, fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` (inclusive method)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def check_runs(runs, problems) -> bool:
    """True when every run's outputs passed; collects what did not."""
    digests = {run["stats_sha256"] for run in runs}
    if len(digests) > 1:
        problems.append(f"SimStats digest differs between repetitions of "
                        f"one seed: {sorted(digests)}")
    for run in runs:
        problems.extend(run["problems"])
        if run["cross_engine_mismatches"]:
            problems.append(f"{run['cross_engine_mismatches']} sampled "
                            "points differ across engines")
    return not problems and all(run["failed"] == 0 for run in runs)


def composed_wall(runs) -> float:
    """Phase wall composed from the fastest sample of each part over
    ``runs``, repetitions of one pass: each point's fastest latency plus
    the fastest time of the phase outside its points."""
    fastest: dict = {}
    for run in runs:
        for point, ms in run["point_ms"].items():
            fastest[point] = min(ms, fastest.get(point, math.inf))
    rest_s = min(run["wall_s"] - sum(run["point_ms"].values()) / 1e3
                 for run in runs)
    return sum(fastest.values()) / 1e3 + rest_s


def in_reference_seconds(run) -> tuple:
    """A repetition's phase wall (s) and point latencies (ms) in
    reference seconds, and the host speed during it (``reference.py``).
    Each point's latency is scaled by the host speed measured by the
    chunk just before it; the phase's time outside its points by the
    median speed of the repetition."""
    speeds = {point: reference.CHUNK_NS / ns
              for point, ns in run["reference_ns"].items()}
    point_ms = {point: ms * speeds[point]
                for point, ms in run["point_ms"].items()}
    rest_s = run["wall_s"] - sum(run["point_ms"].values()) / 1e3
    speed = statistics.median(speeds.values())
    return sum(point_ms.values()) / 1e3 + rest_s * speed, point_ms, speed


def trace_seeds(seed: int) -> list:
    """The trace seeds (``SweepConfig.seed``) a run at ``seed`` cycles
    through, one per repetition."""
    return [seed * TRACE_SEEDS + k for k in range(TRACE_SEEDS)]


def timed(workload, args, env, scratch: Path, lines) -> dict:
    """Repeat the workload serially in fresh processes for ``--seconds``,
    cycling through the run's trace seeds; report times in reference
    seconds, each the mean over trace seeds of its median over their
    repetitions."""
    seeds = trace_seeds(args.seed)
    spec = {"workload": workload.name, "mode": "timed", "parallel": False}
    runs, problems = [], []
    attempted = failed = 0
    spent = 0.0
    while True:
        began = time.monotonic()
        try:
            run = run_child(dict(spec, seed=seeds[len(runs) % len(seeds)],
                                 check=not runs), env, scratch)
        except ChildFailed as exc:
            problems.append(str(exc))
            attempted += workload.expected_points
            failed += workload.expected_points
            break
        runs.append(run)
        # The checks after the phase are not part of the measurement.
        took = time.monotonic() - began - run["check_s"]
        spent += took
        if len(runs) >= len(seeds) and spent + took > args.seconds:
            break
    if len(runs) < len(seeds):
        raise ChildFailed("\n".join(problems))
    setups = [run["setup_s"] for run in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(dict(spec, seed=seeds[0], mode="setup"), env,
                                scratch)["setup_s"])
    by_seed = [runs[k::len(seeds)] for k in range(len(seeds))]
    correct = all([check_runs(reps, problems) for reps in by_seed])
    attempted += sum(run["attempted"] for run in runs)
    failed += sum(run["failed"] for run in runs)
    if any(run["point_ms"].keys() != reps[0]["point_ms"].keys()
           for reps in by_seed for run in reps):
        problems.append("repetitions of one seed simulated different points")
        correct = False

    walls, points, speeds = zip(*map(in_reference_seconds, runs))
    seed_walls = [statistics.median(walls[k::len(seeds)])
                  for k in range(len(seeds))]
    wall_s = statistics.mean(seed_walls)
    point_ms = [statistics.median(rep[point]
                                  for rep in points[k::len(seeds)])
                for k in range(len(seeds)) for point in points[k]]
    committed = statistics.mean(reps[0]["committed"] for reps in by_seed)
    # Set-up (imports, loading the core) is too short and too unlike the
    # chunk to be scaled per process; the run's median speed tracks it.
    setup_s = statistics.median(setups) * statistics.median(speeds)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "sim_kips": metric(committed / wall_s / 1e3, "kinstr/s"),
        "peak_rss_mb": metric(statistics.median(
            run["peak_rss_mb"] for run in runs), "MB"),
    }
    lines += [
        f"{len(runs)} repetitions in fresh processes, serial, cycling "
        f"through trace seeds {', '.join(map(str, seeds))}; times in "
        f"reference seconds; setup_s is the median of {len(setups)} "
        f"processes on the clock, {statistics.median(setups):.4f} s, times "
        f"the median host speed {statistics.median(speeds):.2f}",
        *(f"  trace seed {seed}: walls "
          + " ".join(f"{wall:.3f}" for wall in walls[k::len(seeds)])
          + " reference s, "
          + " ".join(f"{run['wall_s']:.3f}" for run in by_seed[k])
          + " s on the clock at host speed "
          + " ".join(f"{speed:.2f}" for speed in speeds[k::len(seeds)])
          + f"; stats_sha256 {by_seed[k][0]['stats_sha256']}"
          for k, seed in enumerate(seeds)),
        *(f"  {name:<14}{m['value']:>14.4f} {m['unit']}"
          for name, m in metrics.items()),
        f"  {'error_rate':<14}{failed / max(attempted, 1):>14.4f} fraction"
        f" ({failed} of {attempted} points failed)",
        # Printed, not gated: the per-point latency distribution has a
        # steep tail (the branch-heavy points), so which points sit at
        # its median and 90th percentile follows the seed.
        f"  {'point_ms_p50':<14}{statistics.median(point_ms):>14.4f} ms"
        f" (not gated)",
        f"  {'point_ms_p90':<14}{percentile(point_ms, 0.9):>14.4f} ms"
        f" (not gated; {len(point_ms)} points)",
        "stats_sha256 " + ("identical" if all(
            len({run["stats_sha256"] for run in reps}) == 1
            for reps in by_seed) else "DIFFERENT")
        + " across the repetitions of each trace seed",
        f"cross-engine check: sampled points of trace seed {seeds[0]} "
        f"re-simulated on the other engine, "
        f"{runs[0]['cross_engine_mismatches']} mismatches",
    ]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems}


def traced(workload, args, env, scratch: Path, lines) -> dict:
    """Per-layer run: pooled, serial and traced serial passes."""
    probe_cache = Path(tempfile.mkdtemp(dir=scratch))
    try:
        build_s = build(dict(env, REPRO_ACCEL_CACHE=str(probe_cache)), scratch)
    finally:
        shutil.rmtree(probe_cache, ignore_errors=True)
    spec = {"workload": workload.name, "seed": trace_seeds(args.seed)[0],
            "mode": "timed", "parallel": True, "check": False}
    # Rounds of the same passes, so each pass's wall can be composed
    # from its fastest samples and the overheads are not host noise.
    pooled, serial, traces = [], [], []
    for round_ in range(TRACE_ROUNDS):
        pooled.append(run_child(spec, env, scratch))
        # One-point sweeps never reach the pool: their default path is
        # serial.
        if workload.pooled:
            serial.append(run_child(dict(spec, parallel=False), env, scratch))
        traces.append(run_child(dict(spec, mode="traced", parallel=False,
                                     check=round_ == 0), env, scratch))
    serial = serial or pooled
    problems = []
    runs = pooled + (serial if workload.pooled else []) + traces
    correct = check_runs(runs, problems)
    walls = {name: composed_wall(passes) for name, passes
             in (("pooled", pooled), ("serial", serial), ("traced", traces))}
    # The layer table is the least disturbed traced pass's.
    trace = min(traces, key=lambda run: run["wall_s"])

    wall_ns = trace["wall_s"] * 1e9
    layers = {name: (calls, self_ns / 1e9)
              for name, (calls, self_ns) in trace["layers"].items()}
    layers["unattributed"] = (0, (wall_ns - trace["attributed_ns"]) / 1e9)
    # The wrappers must cover the phase: little time outside them, and
    # calls into exactly the layers this workload is known to enter.
    outside = layers["unattributed"][1] / trace["wall_s"]
    if outside > UNATTRIBUTED_LIMIT:
        problems.append(f"{100 * outside:.1f} % of the traced wall is outside "
                        f"every wrapped layer (at most "
                        f"{100 * UNATTRIBUTED_LIMIT:.0f} % may be)")
    for name, (calls, _) in layers.items():
        entered = name not in workload.untouched_layers
        if name != "unattributed" and (calls > 0) != entered:
            problems.append(f"layer {name}: {calls} calls, expected "
                            + ("some" if entered else "none"))
    correct = correct and not problems

    sink = trace["sink"]
    cycles = trace["cycles"]
    wrongpath_n = layers["trace.wrongpath"][0]
    gets = layers["cache.get"][0]
    lookups = trace["export_hits"] + trace["export_misses"]
    trace_calls = layers["trace.generate"][0] + layers["trace.warmup"][0]
    metrics = {}
    for name in ("trace.wrongpath", "trace.generate", "trace.warmup",
                 "engine.construct", "engine.run", "accel.run",
                 "accel.export", "cache.get", "cache.put", "analysis.sweep"):
        metrics[f"{name}_s"] = metric(layers[name][1], "s")
    metrics.update({
        "experiments.self_s": metric(layers["experiments"][1], "s"),
        "unattributed_s": metric(layers["unattributed"][1], "s"),
        "trace.wrongpath_n": metric(wrongpath_n, "count"),
        "trace.wrongpath_useful_ratio": metric(
            trace["fetched_wrong_path"] / wrongpath_n if wrongpath_n else 0.0,
            "ratio"),
        "trace.generate_n": metric(sink["generations"], "count"),
        "trace.memo_hit_ratio": metric(
            1.0 - sink["generations"] / trace_calls if trace_calls else 0.0,
            "ratio"),
        "accel.ns_per_cycle": metric(
            layers["accel.run"][1] * 1e9 / cycles, "ns/cycle"),
        "engine.ns_per_cycle": metric(
            layers["engine.run"][1] * 1e9 / cycles, "ns/cycle"),
        "accel.export_hit_ratio": metric(
            trace["export_hits"] / lookups if lookups else 0.0, "ratio"),
        "accel.setup_s": metric(trace["accel_setup_s"], "s"),
        "accel.build_s": metric(build_s, "s"),
        "cache.get_n": metric(gets, "count"),
        "cache.hit_ratio": metric(sink["get_hits"] / gets if gets else 0.0,
                                  "ratio"),
        "cache.put_n": metric(layers["cache.put"][0], "count"),
        "parallel.overhead_s": metric(walls["pooled"] - walls["serial"], "s"),
        "tracing.overhead_s": metric(walls["traced"] - walls["serial"], "s"),
    })

    lines.append(f"{TRACE_ROUNDS} rounds; walls composed from the fastest "
                 f"samples: traced serial {walls['traced']:.3f} s, untraced "
                 f"serial {walls['serial']:.3f} s, untraced default path "
                 f"{walls['pooled']:.3f} s")
    lines.append(f"layer table of the fastest traced pass (wall "
                 f"{trace['wall_s']:.3f} s)")
    lines.append(f"  {'layer':<18}{'self s':>10}{'share':>9}{'calls':>10}")
    for name, (calls, self_s) in sorted(layers.items(),
                                        key=lambda item: -item[1][1]):
        lines.append(f"  {name:<18}{self_s:>10.3f}"
                     f"{100 * self_s / trace['wall_s']:>8.1f}%{calls:>10}")
    lines.append(f"  attributed to layers {100 * (1 - outside):.1f} % of the "
                 f"traced wall")
    tracing_s = metrics["tracing.overhead_s"]["value"]
    lines.append(f"tracing.overhead_s {tracing_s:.3f} s "
                 f"({100 * tracing_s / walls['serial']:.1f} % of the untraced "
                 f"serial wall); parallel.overhead_s "
                 f"{metrics['parallel.overhead_s']['value']:.3f} s")
    lines += [f"  {name:<30}{m['value']:>14.4f} {m['unit']}"
              for name, m in metrics.items()]
    lines.append(f"stats_sha256 {trace['stats_sha256']}")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems}


# ----------------------------------------------------------------------
def run_workload(workload, args) -> int:
    """Build, measure and check one workload; print its report."""
    BUILD_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR))
    lines = [f"workload {workload.name} (engine {workload.engine}), seed "
             f"{args.seed}; default seed {DEFAULT_SEED}, held-out seed "
             f"{HELD_OUT_SEED}"]
    try:
        env = child_env(workload.engine, scratch, BUILD_DIR / "accel")
        build(env, scratch)
        run = traced if args.trace else timed
        result = run(workload, args, env, scratch, lines)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {workload.name}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines.append(FIDELITY_NOTE)
    problems = result.pop("problems")
    lines += [f"PROBLEM: {problem}" for problem in problems[:MAX_PROBLEMS]]
    if len(problems) > MAX_PROBLEMS:
        lines.append(f"PROBLEM: ... and {len(problems) - MAX_PROBLEMS} more")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    # A terminated run raises SystemExit in the wait, so subprocess.run
    # kills and reaps the benchmark process it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        selected = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        selected = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}, all")
    status = 0
    for workload in selected:
        status = max(status, run_workload(workload, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
