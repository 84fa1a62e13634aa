"""Bit-identical equivalence and fallback contract of the compiled engine.

The compiled C core (:mod:`repro.engine.accel`) re-implements the whole
per-cycle pipeline; its one correctness contract is that a run produces
the *same* :class:`~repro.pipeline.stats.SimStats`, field for field, as
the Python engine — and that requesting it can never fail a run: a
missing toolchain or an unsupported configuration silently degrades to
the Python engine (with a logged warning for the toolchain case).

The equivalence tests self-skip when no C toolchain is available, so the
suite passes on toolchain-less machines; the fallback tests run
everywhere (they simulate the broken toolchain themselves).
"""

import dataclasses
import logging

import pytest

from repro.backend.functional_units import FUConfig
from repro.engine import SimulationEngine
from repro.engine import accel
from repro.isa import FUKind, InstructionBuilder, RegClass
from repro.pipeline.config import ProcessorConfig
from repro.trace.records import Trace
from repro.trace.workloads import get_workload

POLICIES = ("conv", "basic", "extended")
WORKLOADS = ("gcc", "swim")
TRACE_LENGTH = 2_000

#: The paper's six pools plus one the compiled core does not model; no
#: op class maps to the extra pool, so the Python engine runs it as is.
_SEVEN_POOLS = FUConfig(counts={**FUConfig().counts, "vector": 2})


def _compiled_available() -> bool:
    return accel.resolve_engine_backend(
        ProcessorConfig(engine="compiled")) == "compiled"


needs_compiled = pytest.mark.skipif(
    not _compiled_available(),
    reason="no C toolchain for the compiled engine backend")


def run_both(workload: str, policy: str, *, num_registers: int = 48,
             trace_length: int = TRACE_LENGTH, warmup: bool = False,
             run_kwargs=None, **config_kwargs):
    """One point on the Python engine and on the compiled core."""
    run_kwargs = run_kwargs or {}
    stats = {}
    engines = {}
    for backend in ("python", "compiled"):
        config = ProcessorConfig(release_policy=policy,
                                 num_physical_int=num_registers,
                                 num_physical_fp=num_registers,
                                 warmup=warmup, engine=backend,
                                 **config_kwargs)
        trace = get_workload(workload, trace_length, seed=0)
        engine = SimulationEngine(trace, config)
        stats[backend] = engine.run(**run_kwargs)
        engines[backend] = engine
    # The compiled run must actually have run compiled — a silent
    # fallback would make every equivalence assertion vacuous.
    assert engines["compiled"].backend_used == "compiled"
    assert engines["python"].backend_used == "python"
    return stats["python"], stats["compiled"], engines["compiled"]


@needs_compiled
class TestBitIdenticalStats:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_compiled_matches_python(self, workload, policy):
        reference, compiled, _ = run_both(workload, policy)
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_warmup_pass_equivalence(self, policy):
        # Warm-up pre-populates the caches, BTB and predictor before the
        # measured run; the export of those warm structures must be exact.
        reference, compiled, _ = run_both("gcc", policy, warmup=True)
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_exception_recovery_equivalence(self):
        # Exception injection consumes the state's RNG stream; the C core
        # draws from a refillable buffer of the same stream and must take
        # the same exceptions on the same commits.
        reference, compiled, _ = run_both("gcc", "extended",
                                          exception_rate=0.002)
        assert reference.exceptions_taken > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("tight_kwargs", [
        {"ros_size": 8},
        {"lsq_size": 4},
        {"max_pending_branches": 2},
    ], ids=["ros_full", "lsq_full", "checkpoints_full"])
    def test_structural_hazard_equivalence(self, tight_kwargs):
        stall_key = {"ros_size": "ros_full", "lsq_size": "lsq_full",
                     "max_pending_branches": "checkpoints_full"}
        reference, compiled, _ = run_both("gcc", "conv", num_registers=96,
                                          **tight_kwargs)
        (knob, _), = tight_kwargs.items()
        assert reference.dispatch_stalls[stall_key[knob]] > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_max_cycles_cap_equivalence(self):
        for max_cycles in (50, 137, 400):
            reference, compiled, _ = run_both(
                "swim", "conv", trace_length=1_500,
                run_kwargs={"max_cycles": max_cycles})
            assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)
            assert compiled.cycles <= max_cycles

    def test_max_instructions_equivalence(self):
        reference, compiled, _ = run_both(
            "gcc", "extended", trace_length=1_500,
            run_kwargs={"max_instructions": 600})
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_wrong_path_disabled_equivalence(self):
        reference, compiled, _ = run_both("gcc", "basic",
                                          enable_wrong_path=False)
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("depth", [4, 64, 300])
    def test_config_derived_rq_depth_equivalence(self, depth):
        # The compiled Release Queue is sized from ``max_pending_branches``
        # at export time (not a hardwired 20, and with no ceiling): both
        # a shallower and much deeper queues must stay bit-identical to
        # the Python engine.
        reference, compiled, _ = run_both("gcc", "extended",
                                          max_pending_branches=depth)
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("warm_length", [0, 5, None],
                             ids=["empty", "shorter_than_trace", "full"])
    def test_warmup_length_edge_cases(self, warm_length, monkeypatch):
        # The in-C warm-up pass replays whatever _build_warmup_trace
        # returns; pin the edge lengths: an empty warm trace (warm_len=0
        # exports no columns), a warm trace much shorter than the measured
        # trace, and the default full-length segment (warm len == trace
        # len for traces under the 20k warm-up cap).
        from repro.engine.state import MachineState
        from repro.trace.records import Trace

        if warm_length is not None:
            original = MachineState._build_warmup_trace

            def truncated(self):
                base = original(self)
                return Trace(name=base.name, focus_class=base.focus_class,
                             instructions=list(base.instructions[:warm_length]),
                             seed=base.seed)

            monkeypatch.setattr(MachineState, "_build_warmup_trace", truncated)
        reference, compiled, engine = run_both("gcc", "extended", warmup=True,
                                               trace_length=1_000)
        if warm_length is None:
            assert len(engine.state._build_warmup_trace().instructions) >= 1_000
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_warmup_of_unregistered_trace_replays_itself(self):
        # A hand-built trace is not in the workload registry, so its
        # warm-up trace is the trace itself — on both backends.
        from repro.trace.records import Trace

        base = get_workload("gcc", 700, seed=0)
        loose = Trace(name="hand-rolled", focus_class=base.focus_class,
                      instructions=list(base.instructions), seed=0)
        stats = {}
        for backend in ("python", "compiled"):
            config = ProcessorConfig(release_policy="basic", warmup=True,
                                     num_physical_int=48, num_physical_fp=48,
                                     engine=backend)
            engine = SimulationEngine(loose, config)
            stats[backend] = engine.run()
            assert engine.backend_used == backend
        assert dataclasses.asdict(stats["compiled"]) == \
            dataclasses.asdict(stats["python"])

    def test_structural_stall_window_equivalence(self):
        # One unpipelined FP divider: runs of divides leave ready
        # instructions structurally blocked for the full 16-cycle
        # occupancy.
        starved = FUConfig(counts={
            FUKind.SIMPLE_INT: 8, FUKind.INT_MULT: 4, FUKind.SIMPLE_FP: 6,
            FUKind.FP_MULT: 4, FUKind.FP_DIV: 1, FUKind.LOAD_STORE: 4,
        })
        reference, compiled, _ = run_both("swim", "conv",
                                          functional_units=starved)
        assert reference.structural_stalls > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_register_pressure_stall_equivalence(self):
        # Long-lived missing loads over 28 logical registers: rename
        # stalls on the free list of a 40-register file.
        builder = InstructionBuilder(pc=0x1000)
        for i in range(120):
            builder.load(dest=i % 28, addr_reg=30,
                         mem_addr=0x800000 + i * 0x40_000)
        trace = Trace(name="pressure", focus_class=RegClass.INT,
                      instructions=builder.trace())
        stats = {}
        for backend in ("python", "compiled"):
            config = ProcessorConfig(num_physical_int=40, num_physical_fp=40,
                                     warmup=False, enable_wrong_path=False,
                                     engine=backend)
            engine = SimulationEngine(trace, config)
            stats[backend] = engine.run()
            assert engine.backend_used == backend
        assert stats["python"].dispatch_stalls["no_free_int_register"] > 0
        assert dataclasses.asdict(stats["compiled"]) == \
            dataclasses.asdict(stats["python"])

    def test_ready_peak_reported(self):
        # The compiled core reports the scheduler's ready-set peak through
        # the engine (the bench probe records it); it must match Python's.
        _, _, engine = run_both("compress", "basic", lsq_size=12)
        config = ProcessorConfig(release_policy="basic", warmup=False,
                                 num_physical_int=48, num_physical_fp=48,
                                 lsq_size=12, engine="python")
        trace = get_workload("compress", TRACE_LENGTH, seed=0)
        python_engine = SimulationEngine(trace, config)
        python_engine.run()
        assert engine.compiled_ready_peak == python_engine.state.ready.peak_size


@needs_compiled
def test_stat_fingerprint_grid():
    """Figure 11-shaped grid: ~90 points, full-stats compiled-vs-Python.

    Three workloads x three policies x five register-file sizes x both
    warm-up modes — the configurations every paper figure is swept over.
    Short traces keep the grid fast; full ``asdict`` equality keeps it
    exhaustive (one diverging counter anywhere fails the point).
    """
    from repro.rename.free_list import FreeListError

    mismatches = []
    points = 0
    for workload in ("gcc", "swim", "compress"):
        for policy in POLICIES:
            for registers in (40, 48, 64, 96, 160):
                for warmup in (False, True):
                    trace = get_workload(workload, 800, seed=0)
                    stats = {}
                    for backend in ("python", "compiled"):
                        config = ProcessorConfig(
                            release_policy=policy,
                            num_physical_int=registers,
                            num_physical_fp=registers,
                            warmup=warmup, engine=backend)
                        try:
                            stats[backend] = dataclasses.asdict(
                                SimulationEngine(trace, config).run())
                        except FreeListError:
                            stats[backend] = "FreeListError"
                    points += 1
                    if stats["python"] != stats["compiled"]:
                        mismatches.append(
                            (workload, policy, registers, warmup))
    assert points >= 90
    assert mismatches == []


class TestFallbackContract:
    def test_broken_toolchain_degrades_with_warning(self, monkeypatch, caplog):
        # A compiler that does not exist: the run must still succeed, on
        # the Python engine, with exactly the same statistics, and the
        # degradation must be visible on the accel logger.
        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            trace = get_workload("swim", 800, seed=0)
            config = ProcessorConfig(release_policy="basic", warmup=False,
                                     num_physical_int=48, num_physical_fp=48,
                                     engine="compiled")
            with caplog.at_level(logging.WARNING, logger="repro.engine.accel"):
                engine = SimulationEngine(trace, config)
                stats = engine.run()
            assert engine.backend_used == "python"
            assert any("using the Python engine" in record.message
                       for record in caplog.records)
            reference = SimulationEngine(
                trace, dataclasses.replace(config, engine="python")).run()
            assert dataclasses.asdict(stats) == dataclasses.asdict(reference)
        finally:
            accel.reset_backend_cache()   # monkeypatch restores the env

    def test_probe_warns_once_per_process(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.engine.accel"):
                for _ in range(3):
                    assert accel.resolve_engine_backend(
                        ProcessorConfig(engine="compiled")) == "python"
            warnings = [record for record in caplog.records
                        if "using the Python engine" in record.message]
            assert len(warnings) == 1
        finally:
            accel.reset_backend_cache()

    def test_unsupported_config_falls_back_per_run(self):
        # The C core models exactly the paper's six functional-unit
        # pools.  A config with a pool outside that model is outside the
        # envelope — named clearly — and must run on the Python engine.
        from repro.engine.accel.compiled import unsupported_reason

        trace = get_workload("gcc", 800, seed=0)
        inside = ProcessorConfig(release_policy="extended", warmup=False,
                                 max_pending_branches=64, engine="compiled")
        assert unsupported_reason(inside) is None
        config = ProcessorConfig(release_policy="extended", warmup=False,
                                 functional_units=_SEVEN_POOLS,
                                 engine="compiled")
        reason = unsupported_reason(config)
        assert reason is not None and "six-pool" in reason
        engine = SimulationEngine(trace, config)
        stats = engine.run()
        assert engine.backend_used == "python"
        reference = SimulationEngine(
            trace, dataclasses.replace(config, engine="python")).run()
        assert dataclasses.asdict(stats) == dataclasses.asdict(reference)

    def test_partially_stepped_machine_stays_python(self):
        # Backend dispatch only covers whole runs from reset: a machine
        # that has already been single-stepped cannot be exported, so
        # run() must continue it on the Python engine — identically to a
        # machine never offered to the compiled backend.
        trace = get_workload("swim", 800, seed=0)
        stats = {}
        for backend in ("python", "compiled"):
            config = ProcessorConfig(release_policy="conv", warmup=False,
                                     num_physical_int=48, num_physical_fp=48,
                                     engine=backend)
            engine = SimulationEngine(trace, config)
            engine.step()
            stats[backend] = engine.run()
            assert engine.backend_used == "python"
        assert dataclasses.asdict(stats["compiled"]) == \
            dataclasses.asdict(stats["python"])


class TestWarmupDeferral:
    """Warm-up is deferred into the compiled core — and still owed on
    fallback.  Config-driven, so these run without a toolchain."""

    def test_compiled_request_defers_warmup(self):
        trace = get_workload("swim", 500, seed=0)
        state = SimulationEngine(trace, ProcessorConfig(
            engine="compiled", warmup=True)).state
        assert state.warmup_pending
        # Deferred means genuinely cold: the predictor has trained on
        # nothing yet (the C core, or ensure_warm(), will do the pass).
        assert len(set(state.predictor.table)) == 1

    def test_python_engine_warms_at_construction(self):
        trace = get_workload("swim", 500, seed=0)
        state = SimulationEngine(trace, ProcessorConfig(
            engine="python", warmup=True)).state
        assert not state.warmup_pending
        assert state.predictor.predictions == 0     # stats reset after warm
        assert len(set(state.predictor.table)) > 1  # but the tables learned

    def test_out_of_envelope_config_does_not_defer(self):
        # A config the compiled core cannot run must warm up eagerly —
        # deferring would hand the Python engine a cold machine.
        trace = get_workload("swim", 500, seed=0)
        state = SimulationEngine(trace, ProcessorConfig(
            engine="compiled", warmup=True, release_policy="extended",
            functional_units=_SEVEN_POOLS)).state
        assert not state.warmup_pending

    def test_ensure_warm_runs_once(self):
        trace = get_workload("swim", 500, seed=0)
        state = SimulationEngine(trace, ProcessorConfig(
            engine="compiled", warmup=True)).state
        state.ensure_warm()
        assert not state.warmup_pending
        assert len(set(state.predictor.table)) > 1
        snapshot = list(state.predictor.table)
        state.ensure_warm()                         # idempotent
        assert list(state.predictor.table) == snapshot

    def test_broken_toolchain_still_warms_up(self, monkeypatch):
        # Warm-up deferred to a compiled backend that turns out to be
        # missing must still happen (ensure_warm before the Python clock
        # loop): stats equal the python-engine warmup=True reference.
        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            trace = get_workload("gcc", 800, seed=0)
            config = ProcessorConfig(release_policy="extended", warmup=True,
                                     engine="compiled")
            engine = SimulationEngine(trace, config)
            assert engine.state.warmup_pending
            stats = engine.run()
            assert engine.backend_used == "python"
            reference = SimulationEngine(
                trace, dataclasses.replace(config, engine="python")).run()
            assert dataclasses.asdict(stats) == dataclasses.asdict(reference)
        finally:
            accel.reset_backend_cache()

    def test_single_stepping_warms_first(self):
        # step() never reaches the compiled backend, so the deferred pass
        # must run before the first stepped cycle.
        trace = get_workload("swim", 500, seed=0)
        engine = SimulationEngine(trace, ProcessorConfig(
            engine="compiled", warmup=True))
        assert engine.state.warmup_pending
        engine.step()
        assert not engine.state.warmup_pending


class TestBackendSelection:
    def test_config_field_beats_environment(self, monkeypatch):
        monkeypatch.setenv(accel.ENGINE_ENV, "compiled")
        assert accel.requested_backend(
            ProcessorConfig(engine="python")) == "python"

    def test_environment_drives_auto(self, monkeypatch):
        monkeypatch.setenv(accel.ENGINE_ENV, "compiled")
        assert accel.requested_backend(ProcessorConfig()) == "compiled"
        assert accel.requested_backend(None) == "compiled"
        monkeypatch.delenv(accel.ENGINE_ENV)
        assert accel.requested_backend(ProcessorConfig()) == "python"

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ProcessorConfig(engine="fortran")

    def test_requested_backend_feeds_cache_keys(self, monkeypatch):
        # The sweep cache folds the *requested* backend into point keys:
        # flipping the request must move every key (separate validation
        # of each backend's results), without building any toolchain.
        from repro.analysis.cache import point_key
        from repro.analysis.sweep import SweepConfig, SweepPoint

        sweep = SweepConfig(benchmarks=("swim",), trace_length=500)
        point = SweepPoint(benchmark="swim", policy="conv", num_registers=48)
        monkeypatch.delenv(accel.ENGINE_ENV, raising=False)
        python_key = point_key(sweep, point)
        monkeypatch.setenv(accel.ENGINE_ENV, "compiled")
        compiled_key = point_key(sweep, point)
        assert python_key != compiled_key
