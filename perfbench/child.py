"""One fresh benchmark process: set up, run one phase, check, report.

Started by ``run.py`` with a JSON spec as its only argument; prints one
JSON record as its last line of output.  Every phase runs in a new
process so the workload memo, the export-artefact cache and the loaded
core all start cold, exactly as for a user's own invocation.

Modes:

* ``build``  -- import the stack and build (or load) the compiled core;
* ``setup``  -- only the set-up a user pays before the first point;
* ``timed``  -- set-up, then the workload's phase with tracing off;
* ``traced`` -- the same phase run serially with every layer wrapped.
"""

from __future__ import annotations

import json
import sys
import time


def main(spec: dict) -> dict:
    if spec["mode"] == "build":
        return build()
    import tracer as tracer_mod
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    accel_setup_s = workloads.setup()
    setup_s = (time.monotonic_ns() - spec["t0_ns"]) / 1e9
    report = {"setup_s": setup_s, "accel_setup_s": accel_setup_s}
    if spec["mode"] == "setup":
        return report

    from repro.engine.accel.artefacts import EXPORT_CACHE

    tracer = None
    patches = tracer_mod.Patches()
    sink: dict = {}
    if spec["mode"] == "traced":
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer, patches, sink)
    export_before = EXPORT_CACHE.counters()
    try:
        phase = workload.run(spec["seed"], spec["parallel"],
                             spec["cache_dir"], spec["record_path"],
                             reference=tracer is None)
    finally:
        patches.undo()
    export_after = EXPORT_CACHE.counters()
    rss_mb = workloads.peak_rss_mb()

    checks_began = time.perf_counter()
    failed = workloads.point_failures(workload, phase)
    mismatches = (workloads.cross_engine_check(workload, phase)
                  if spec["check"] else None)
    stats = phase.points.values()
    report.update(
        wall_s=phase.wall_ns / 1e9,
        check_s=time.perf_counter() - checks_began,
        attempted=len(phase.points),
        failed=failed + (mismatches or 0),
        committed=sum(s.committed_instructions for s in stats),
        cycles=sum(s.cycles for s in stats),
        fetched_wrong_path=sum(s.fetched_wrong_path for s in stats),
        point_ms={"/".join(map(str, key)): ms
                  for key, ms in phase.latencies_ms.items()},
        reference_ns={"/".join(map(str, key)): ns
                      for key, ns in phase.reference_ns.items()},
        peak_rss_mb=rss_mb,
        export_hits=export_after[0] - export_before[0],
        export_misses=export_after[1] - export_before[1],
        stats_sha256=workloads.stats_digest(phase.points),
        cross_engine_mismatches=mismatches,
        problems=phase.problems,
    )
    if tracer is not None:
        report["layers"] = {name: [layer.calls, layer.self_ns]
                            for name, layer in tracer.layers.items()}
        report["attributed_ns"] = tracer.attributed_ns()
        report["sink"] = sink
    return report


def build() -> dict:
    """Build (or load) the compiled core, so that the C compile and the
    byte-compilation of every module a run imports happen before any
    timing.  Reports how long the core took to become loadable."""
    import workloads  # noqa: F401  (byte-compiled, with tracer, before timing)
    from repro.engine.accel import loader

    start = time.perf_counter()
    loader.load_core()
    return {"build_s": time.perf_counter() - start}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
