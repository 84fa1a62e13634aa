"""Per-layer timing from outside the program.

The traced run wraps the public calls into each layer of ``repro`` and
accumulates, per layer, a call count and a *self* time: the wall time
of its calls minus the part spent in calls of other wrapped layers made
from inside them.  Nothing is recorded per call, only two integers per
layer, because the hottest boundary (the wrong-path generator) is
crossed half a million times in one run.

Every layer name is fixed here so that the benchmark's per-layer table
has the same rows on every workload and every commit.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

#: Layers in table order.  ``unattributed`` is the time of the traced
#: phase spent outside every wrapped call (the workload's own loop).
LAYERS = (
    "experiments",       # figure/table derivation and rendering
    "analysis.sweep",    # run_sweep: sharding, result recording, pool glue
    "cache.get",         # SweepCache.get
    "cache.put",         # SweepCache.put
    "trace.generate",    # get_workload for the measured trace
    "trace.warmup",      # get_workload for the warm-up trace
    "trace.wrongpath",   # WrongPathGenerator.next_instruction
    "engine.construct",  # SimulationEngine(...), incl. the Python warm-up
    "engine.run",        # SimulationEngine.run (Python stage ticks)
    "accel.run",         # accel.compiled.run_compiled (sim_run + marshalling)
    "accel.export",      # EXPORT_CACHE.trace_columns / .warmup_columns
    "unattributed",
)

#: Layers whose frames own a warm-up get_workload call made inside them.
_SIMULATOR_LAYERS = ("engine.construct", "engine.run", "accel.run")


class Patches:
    """Attributes replaced by wrappers, restored newest first by :meth:`undo`.

    The one mechanism the benchmark uses to wrap calls of ``repro``, so
    wrappers stacked on one attribute (the traced run's and the point
    recorder's) come off in the reverse order they went on.
    """

    def __init__(self) -> None:
        self._restore: List[Callable[[], None]] = []

    def patch(self, owner, attribute: str, replacement) -> None:
        """Replace ``owner.attribute`` until :meth:`undo`."""
        original = owner.__dict__[attribute]
        setattr(owner, attribute, replacement)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def undo(self) -> None:
        while self._restore:
            self._restore.pop()()


class Layer:
    """Call count and self time of one layer."""

    __slots__ = ("name", "calls", "self_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.self_ns = 0


class Tracer:
    """Nesting-aware self-time accounting over a stack of open calls.

    Each open wrapped call owns a frame ``[child_ns, layer]``; on return
    the call's elapsed time is charged to its layer minus ``child_ns``
    and added to the enclosing frame's ``child_ns``.  The bottom frame is
    the traced phase itself, so its ``child_ns`` is the attributed time.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {name: Layer(name) for name in LAYERS}
        self._stack: List[list] = [[0, self.layers["unattributed"]]]

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` as a call into layer ``name``."""
        layer = self.layers[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                layer.self_ns += elapsed - frame[0]
                layer.calls += 1

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Cheaper :meth:`span` for a hot call that makes no wrapped calls."""
        layer = self.layers[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            stack[-1][0] += elapsed
            layer.self_ns += elapsed
            layer.calls += 1
            return result

        return wrapper

    def inside_simulator(self) -> bool:
        """True when the innermost open call is a simulator layer."""
        return self._stack[-1][1].name in _SIMULATOR_LAYERS

    def attributed_ns(self) -> int:
        """Wall time spent inside top-level wrapped calls so far."""
        return self._stack[0][0]


def install(tracer: Tracer, patches: Patches,
            stats_sink: Dict[str, int]) -> None:
    """Wrap the public calls of every measured layer of ``repro``.

    ``stats_sink`` receives counters observed at the boundaries: trace
    generations and result-cache hits.
    """
    from repro.analysis import cache as cache_mod
    from repro.analysis import sweep as sweep_mod
    from repro.engine import engine as engine_mod
    from repro.engine.accel import artefacts, compiled
    from repro.experiments import figure10, figure11, table4
    from repro.trace import workloads as workloads_mod
    from repro.trace.wrongpath import WrongPathGenerator

    stats_sink.update(generations=0, get_hits=0)

    # experiments: the artefact derivation and rendering the CLI performs
    patches.patch(table4, "derive", tracer.span("experiments", table4.derive))
    for result_cls in (figure10.Figure10Result, figure11.Figure11Result,
                       table4.Table4Result):
        patches.patch(result_cls, "format",
                      tracer.span("experiments", result_cls.format))

    patches.patch(sweep_mod, "run_sweep",
                  tracer.span("analysis.sweep", sweep_mod.run_sweep))

    get_span = tracer.span("cache.get", cache_mod.SweepCache.get)

    def cache_get(self, sweep_config, point):
        stats = get_span(self, sweep_config, point)
        if stats is not None:
            stats_sink["get_hits"] += 1
        return stats

    patches.patch(cache_mod.SweepCache, "get", cache_get)
    patches.patch(cache_mod.SweepCache, "put",
                  tracer.span("cache.put", cache_mod.SweepCache.put))

    # trace: one wrapper for both import sites of get_workload; a call
    # made from inside the simulator is the warm-up trace's.
    original_get = workloads_mod.get_workload
    generate_span = tracer.span("trace.generate", original_get)
    warmup_span = tracer.span("trace.warmup", original_get)

    def get_workload(*args, **kwargs):
        if tracer.inside_simulator():
            return warmup_span(*args, **kwargs)
        return generate_span(*args, **kwargs)

    patches.patch(workloads_mod, "get_workload", get_workload)
    patches.patch(sweep_mod, "get_workload", get_workload)
    for generator in ("generate_trace", "generate_scenario_trace"):
        patches.patch(workloads_mod, generator,
                      _counted(getattr(workloads_mod, generator),
                               stats_sink, "generations"))

    patches.patch(WrongPathGenerator, "next_instruction",
                  tracer.leaf("trace.wrongpath",
                              WrongPathGenerator.next_instruction))

    engine_cls = engine_mod.SimulationEngine
    patches.patch(engine_cls, "__init__",
                  tracer.span("engine.construct", engine_cls.__init__))
    patches.patch(engine_cls, "run", tracer.span("engine.run", engine_cls.run))
    patches.patch(compiled, "run_compiled",
                  tracer.span("accel.run", compiled.run_compiled))
    export_cls = artefacts.ExportArtefactCache
    for method in ("trace_columns", "warmup_columns"):
        patches.patch(export_cls, method,
                      tracer.span("accel.export", getattr(export_cls, method)))


def _counted(fn: Callable, sink: Dict[str, int], key: str) -> Callable:
    def wrapper(*args, **kwargs):
        sink[key] += 1
        return fn(*args, **kwargs)

    return wrapper
