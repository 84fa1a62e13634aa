"""The benchmark's three workloads, their correctness checks and digest.

Each workload is a closed loop with one caller.  Its inputs are a pure
function of the benchmark seed; the program under test only ever sees
the generated sweep configurations.  See README.md for why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import time
from typing import Dict, List, Tuple

from repro.analysis import sweep as sweep_mod
from repro.analysis.cache import SweepCache
from repro.analysis.sweep import SweepConfig, SweepPoint
from repro.engine import accel
from repro.engine import engine as engine_mod
from repro.experiments import figure10, figure11, table4
from repro.experiments.runner import QUICK_SIZES, QUICK_TRACE_LENGTH
from repro.pipeline.stats import SimStats
from repro.trace.workloads import fp_workloads, integer_workloads
from reference import timed_chunk
from tracer import Patches

#: The ten paper benchmarks, integer suite first (the figures' order).
BENCHMARKS = tuple(integer_workloads() + fp_workloads())

#: ``point-cold`` shape: 10 benchmarks x 10 seeds, one point per trace.
POINT_COLD_QUERIES = 100
POINT_COLD_TRACE_LENGTH = 8_000
POINT_COLD_SIZES = (40, 64, 96)

#: Points per workload re-simulated on the other engine after the timed
#: phase (indices into the sorted point list; fixed, not seed-drawn).
CHECK_SAMPLE = 3

#: A simulated point: (benchmark, policy, registers, trace seed) -> stats.
PointKey = Tuple[str, str, int, int]


@dataclasses.dataclass
class PhaseResult:
    """What one timed (or traced) phase produced."""

    #: wall time of the phase, reference chunks excluded
    wall_ns: int
    #: every simulated point of the phase (cache-served points excluded)
    points: Dict[PointKey, SimStats]
    #: the sweep configuration each point came from (for re-simulation)
    configs: Dict[PointKey, SweepConfig]
    #: host latency of each point (ms): the one-point query on point-cold,
    #: the point's ``run_simulation_point`` call on the sweep workloads;
    #: reference chunks excluded
    latencies_ms: Dict[PointKey, float]
    #: time of the reference chunk run just before each point (ns), if any
    reference_ns: Dict[PointKey, int]
    #: backend each simulated point actually ran on
    backends: Dict[PointKey, str]
    #: instructions in the trace each simulated point ran
    trace_lengths: Dict[PointKey, int]
    problems: List[str]


class PointRecorder:
    """Records latency, backend and trace length of every simulated point.

    Wraps ``run_simulation_point`` (the one call every execution path of
    ``run_sweep`` makes per point) and ``SimulationEngine.run`` (which
    knows the backend that ran).  Records go to an append-only file, so
    points run in forked pool workers are seen too.  With ``reference``
    set, one reference chunk (``reference.py``) is timed just before
    each point, outside the point's latency.
    """

    def __init__(self, path: str, reference: bool) -> None:
        self.path = path
        self._fd = fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                                0o644)
        self._patches = Patches()
        run_point = sweep_mod.run_simulation_point
        engine_run = engine_mod.SimulationEngine.run
        last_run = ["none", -1]
        clock = time.perf_counter_ns

        def recorded_point(sweep_config, point):
            last_run[:] = ["none", -1]
            chunk_ns = timed_chunk() if reference else 0
            start = clock()
            stats = run_point(sweep_config, point)
            elapsed = clock() - start
            os.write(fd, ("%s %s %d %d %d %s %d %d\n" % (
                point.benchmark, point.policy, point.num_registers,
                sweep_config.seed, elapsed, *last_run, chunk_ns)).encode())
            return stats

        def recorded_run(engine, *args, **kwargs):
            stats = engine_run(engine, *args, **kwargs)
            last_run[:] = [engine.backend_used, len(engine.state.trace)]
            return stats

        self._patches.patch(sweep_mod, "run_simulation_point", recorded_point)
        self._patches.patch(engine_mod.SimulationEngine, "run", recorded_run)

    def close(self) -> List[Tuple[PointKey, float, str, int, int]]:
        """Restore the wrapped calls; return one ``(point, latency_ms,
        backend, trace_length, reference_chunk_ns)`` row per point."""
        self._patches.undo()
        os.close(self._fd)
        with open(self.path) as handle:
            rows = [line.split() for line in handle if line.strip()]
        return [((bench, policy, int(regs), int(seed)), int(ns) / 1e6,
                 backend, int(length), int(chunk_ns))
                for bench, policy, regs, seed, ns, backend, length, chunk_ns
                in rows]


# ----------------------------------------------------------------------
class Workload:
    """One benchmark workload: which engine it pins and what it runs."""

    name = ""
    engine = ""
    #: simulated points per repetition
    expected_points = 0
    #: whether its sweeps have more than one point, so reach the pool
    pooled = True
    #: traced layers the workload never enters; it must enter every other
    untouched_layers: Tuple[str, ...] = ()

    def run(self, seed: int, parallel: bool, cache_dir: str,
            record_path: str, reference: bool) -> PhaseResult:
        """Run the timed phase on an empty sweep cache at ``cache_dir``,
        with a reference chunk before each point if ``reference``."""
        cache = SweepCache(cache_dir)
        recorder = PointRecorder(record_path, reference)
        start = time.perf_counter_ns()
        try:
            sweeps, query_ms, problems = self._phase(seed, parallel, cache)
        finally:
            wall_ns = time.perf_counter_ns() - start
            rows = recorder.close()
        points: Dict[PointKey, SimStats] = {}
        configs: Dict[PointKey, SweepConfig] = {}
        for result in sweeps:
            if result.compiled_fallback_reason is not None:
                problems.append("compiled fallback: "
                                + result.compiled_fallback_reason)
            if result.cache_degradation_reason is not None:
                problems.append("cache degraded: "
                                + result.cache_degradation_reason)
            if result.simulated == 0:
                continue
            for point in result.points():
                key = (point.benchmark, point.policy, point.num_registers,
                       result.config.seed)
                points[key] = result.stats(*key[:3])
                configs[key] = result.config
        simulated = sum(result.simulated for result in sweeps)
        recorded = {key for key, *_ in rows}
        if (simulated != self.expected_points or len(points) != simulated
                or len(rows) != simulated or recorded != set(points)):
            problems.append(f"{simulated} points simulated on an empty cache "
                            f"({len(rows)} recorded), expected "
                            f"{self.expected_points}")
        chunks = {key: chunk_ns for key, *_, chunk_ns in rows}
        if query_ms:
            # A query's latency holds its point's reference chunk.
            query_ms = {key: ms - chunks.get(key, 0) / 1e6
                        for key, ms in query_ms.items()}
        return PhaseResult(
            wall_ns=wall_ns - sum(chunks.values()), points=points,
            configs=configs,
            latencies_ms=query_ms or {key: ms for key, ms, *_ in rows},
            reference_ns={key: ns for key, ns in chunks.items() if ns},
            backends={key: backend for key, _, backend, *_ in rows},
            trace_lengths={key: length for key, _, _, length, _ in rows},
            problems=problems)

    def _phase(self, seed: int, parallel: bool, cache: SweepCache):
        """Run the workload; return its sweep results, the latency of
        each query's point if it times queries itself, and any problems
        seen."""
        raise NotImplementedError


class Figure11Compiled(Workload):
    """``figure11`` then ``table4`` at ``--quick`` scale, compiled engine."""

    name = "fig11-compiled"
    engine = "compiled"
    expected_points = len(BENCHMARKS) * 3 * len(QUICK_SIZES)

    def _figure11(self, config, parallel, cache):
        # The same composition as figure11.run, with the benchmark's seed.
        result = sweep_mod.run_sweep(config, parallel=parallel, cache=cache)
        return figure11.Figure11Result(
            sizes=config.register_sizes, sweep=result,
            int_benchmarks=list(integer_workloads()),
            fp_benchmarks=list(fp_workloads()))

    def _phase(self, seed, parallel, cache):
        config = SweepConfig(benchmarks=BENCHMARKS, policies=figure11.POLICIES,
                             register_sizes=QUICK_SIZES,
                             trace_length=QUICK_TRACE_LENGTH, seed=seed)
        fig11 = self._figure11(config, parallel, cache)
        fig11.format()
        # table4.run re-runs the figure11 sweep through the cache.
        tab4 = table4.derive(self._figure11(config, parallel, cache))
        tab4.format()
        problems = []
        if tab4.figure11.sweep.cached != self.expected_points:
            problems.append(f"table4 read {tab4.figure11.sweep.cached} of "
                            f"{self.expected_points} points from the cache")
        if len(tab4.rows) != sum(len(sizes) for sizes
                                 in tab4.conv_reference_sizes.values()):
            problems.append("table4 is missing rows")
        return [fig11.sweep, tab4.figure11.sweep], None, problems


class Figure10Python(Workload):
    """``figure10 --quick`` on the Python reference engine."""

    name = "fig10-python"
    engine = "python"
    expected_points = len(BENCHMARKS) * 3
    untouched_layers = ("accel.run", "accel.export")

    def _phase(self, seed, parallel, cache):
        config = SweepConfig(benchmarks=BENCHMARKS, policies=figure10.POLICIES,
                             register_sizes=(48,),
                             trace_length=QUICK_TRACE_LENGTH, seed=seed)
        result = sweep_mod.run_sweep(config, parallel=parallel, cache=cache)
        figure10.Figure10Result(
            num_registers=48, sweep=result,
            int_benchmarks=list(integer_workloads()),
            fp_benchmarks=list(fp_workloads())).format()
        return [result], None, []


class PointCold(Workload):
    """100 one-point queries, each on a trace the process has not seen."""

    name = "point-cold"
    engine = "compiled"
    expected_points = POINT_COLD_QUERIES
    pooled = False
    untouched_layers = ("experiments",)

    @staticmethod
    def queries(seed: int) -> List[SweepConfig]:
        """Benchmark ``k % 10`` at trace seed ``10 * seed + k // 10``."""
        return [SweepConfig(benchmarks=(BENCHMARKS[k % len(BENCHMARKS)],),
                            policies=(figure11.POLICIES[k % 3],),
                            register_sizes=(POINT_COLD_SIZES[(k // 3) % 3],),
                            trace_length=POINT_COLD_TRACE_LENGTH,
                            seed=seed * 10 + k // len(BENCHMARKS))
                for k in range(POINT_COLD_QUERIES)]

    def _phase(self, seed, parallel, cache):
        clock = time.perf_counter_ns
        sweeps, query_ms = [], {}
        for config in self.queries(seed):
            issued = clock()
            sweeps.append(sweep_mod.run_sweep(config, parallel=parallel,
                                              cache=cache))
            key = (config.benchmarks[0], config.policies[0],
                   config.register_sizes[0], config.seed)
            query_ms[key] = (clock() - issued) / 1e6
        return sweeps, query_ms, []


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Figure11Compiled(), Figure10Python(), PointCold())}


# ----------------------------------------------------------------------
def setup() -> float:
    """Make the first point runnable: resolve (load and self-check) the
    requested backend.  Returns the seconds that took.  A fallback to
    the Python engine is not raised here: it shows as failed points."""
    start = time.perf_counter()
    accel.resolve_engine_backend()
    return time.perf_counter() - start


def stats_digest(points: Dict[PointKey, SimStats]) -> str:
    """SHA-256 over every simulated point's full statistics, sorted."""
    digest = hashlib.sha256()
    for key in sorted(points):
        record = [list(key), dataclasses.asdict(points[key])]
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def point_failures(workload: Workload, phase: PhaseResult) -> int:
    """Simulated points that ran on the wrong backend or are implausible."""
    failed = 0
    for key, stats in phase.points.items():
        backend = phase.backends.get(key, "unrecorded")
        length = phase.trace_lengths.get(key, -1)
        if backend != workload.engine:
            failed += 1
        elif stats.committed_instructions != length or stats.cycles <= 0:
            phase.problems.append(
                f"{key}: committed {stats.committed_instructions} of "
                f"{length} instructions in {stats.cycles} cycles")
            failed += 1
    if failed:
        phase.problems.append(f"{failed} points failed "
                              f"(backend requested: {workload.engine})")
    return failed


def cross_engine_check(workload: Workload, phase: PhaseResult) -> int:
    """Re-simulate a fixed sample of points on the other engine; return
    how many differ field-for-field from the timed phase's statistics."""
    other = "python" if workload.engine == "compiled" else "compiled"
    keys = sorted(phase.points)
    sample = sorted({keys[(len(keys) - 1) * i // (CHECK_SAMPLE - 1)]
                     for i in range(CHECK_SAMPLE)})
    mismatches = 0
    for key in sample:
        config = phase.configs[key]
        pinned = dataclasses.replace(
            config, base_config=dataclasses.replace(config.base_config,
                                                    engine=other))
        engine = engine_mod.SimulationEngine(
            sweep_mod.get_workload(key[0], config.trace_length,
                                   seed=config.seed),
            pinned.config_for(SweepPoint(*key[:3])))
        stats = engine.run()
        if engine.backend_used != other:
            phase.problems.append(f"cross-engine check of {key} ran on "
                                  f"{engine.backend_used}, not {other}")
            mismatches += 1
        elif dataclasses.asdict(stats) != dataclasses.asdict(phase.points[key]):
            phase.problems.append(f"{key}: {other} engine statistics differ "
                                  f"from {workload.engine}")
            mismatches += 1
    return mismatches


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
