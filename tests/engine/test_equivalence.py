"""The Python engine's run loop matches a loop of single-cycle steps.

:meth:`SimulationEngine.run` is the hot loop: it flattens the drain test
and folds the instruction, cycle and deadlock limits into one sweep.
:meth:`SimulationEngine.step` is its definition — one stage sweep, one
cycle.  These tests pin that, for every release policy, workload, hazard
class and limit, ``run()`` produces :class:`SimStats` bit-identical to a
plain loop of ``step()`` calls stopped on the same conditions.

The test names date from when the engine also had an event-driven clock
that skipped idle cycles; they are kept so the same cases stay pinned.
"""

import dataclasses

import pytest

from repro.backend.functional_units import FUConfig
from repro.engine import SimulationEngine
from repro.isa import FUKind
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_workload

POLICIES = ("conv", "basic", "extended")

#: One integer (branch-dense, mispredictions, wrong-path fetch) and one FP
#: (memory-latency-bound, register-pressure-heavy) workload.
WORKLOADS = ("gcc", "swim")

TRACE_LENGTH = 2_500


def step_until_done(engine, max_instructions=None, max_cycles=None):
    """The reference loop: single ``step()`` calls until a stop condition."""
    state = engine.state
    limit = max_instructions if max_instructions is not None else len(state.trace)
    while max_cycles is None or state.cycle < max_cycles:
        engine.step()
        if state.stats.committed_instructions >= limit or engine.finished:
            break
    return state.collect_stats()


def run_both(workload: str, policy: str, *, num_registers: int = 48,
             trace_length: int = TRACE_LENGTH, run_kwargs=None,
             **config_kwargs):
    """Run one point through ``run()`` and through the ``step()`` loop."""
    run_kwargs = run_kwargs or {}
    config = ProcessorConfig(release_policy=policy,
                             num_physical_int=num_registers,
                             num_physical_fp=num_registers,
                             warmup=False, engine="python", **config_kwargs)
    trace = get_workload(workload, trace_length, seed=0)
    stepped = step_until_done(SimulationEngine(trace, config), **run_kwargs)
    engine = SimulationEngine(trace, config)
    ran = engine.run(**run_kwargs)
    assert engine.backend_used == "python"
    return stepped, ran


class TestBitIdenticalStats:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_event_clock_matches_per_cycle_loop(self, workload, policy):
        reference, ran = run_both(workload, policy)
        assert dataclasses.asdict(ran) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("tight_kwargs", [
        {"ros_size": 8},                      # ros_full dispatch stalls
        {"lsq_size": 4},                      # lsq_full dispatch stalls
        {"max_pending_branches": 2},          # checkpoints_full dispatch stalls
    ], ids=["ros_full", "lsq_full", "checkpoints_full"])
    def test_structural_hazard_stall_booking(self, tight_kwargs):
        # The default matrix only produces register-shortage stalls; tiny
        # back-end structures force the other dispatch hazards.
        stall_key = {"ros_size": "ros_full", "lsq_size": "lsq_full",
                     "max_pending_branches": "checkpoints_full"}
        reference, ran = run_both("gcc", "conv", num_registers=96,
                                  **tight_kwargs)
        (knob, _), = tight_kwargs.items()
        assert reference.dispatch_stalls[stall_key[knob]] > 0
        assert dataclasses.asdict(ran) == dataclasses.asdict(reference)

    def test_structural_stall_window_booking(self):
        # A single unpipelined FP divider turns divide runs into windows
        # where ready instructions exist but nothing can issue; each
        # blocked ready entry books one structural stall per cycle.
        starved = FUConfig(counts={
            FUKind.SIMPLE_INT: 8, FUKind.INT_MULT: 4, FUKind.SIMPLE_FP: 6,
            FUKind.FP_MULT: 4, FUKind.FP_DIV: 1, FUKind.LOAD_STORE: 4,
        })
        reference, ran = run_both("swim", "conv", functional_units=starved)
        assert reference.structural_stalls > 0
        assert dataclasses.asdict(ran) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_key_metrics_spot_check(self, policy):
        # Redundant with the asdict comparison, but pins the fields the
        # paper's figures are built from with readable failures.
        reference, ran = run_both("swim", policy)
        assert ran.cycles == reference.cycles
        assert ran.ipc == reference.ipc
        assert ran.dispatch_stalls == reference.dispatch_stalls
        assert ran.structural_stalls == reference.structural_stalls
        assert ran.int_registers.occupancy == reference.int_registers.occupancy
        assert ran.fp_registers.occupancy == reference.fp_registers.occupancy


class TestLimitEquivalence:
    def test_max_cycles_cap_lands_on_same_cycle(self):
        for max_cycles in (50, 137, 400):
            reference, ran = run_both("swim", "conv", trace_length=1_500,
                                      run_kwargs={"max_cycles": max_cycles})
            assert dataclasses.asdict(ran) == dataclasses.asdict(reference)
            assert ran.cycles == max_cycles

    def test_max_instructions_equivalence(self):
        reference, ran = run_both("gcc", "extended", trace_length=1_500,
                                  num_registers=64,
                                  run_kwargs={"max_instructions": 600})
        assert dataclasses.asdict(ran) == dataclasses.asdict(reference)
        assert ran.committed_instructions >= 600

    def test_exception_recovery_equivalence(self):
        # Precise-exception flushes rebuild the map table mid-run; the
        # run loop must recover exactly as single steps do.
        reference, ran = run_both("gcc", "extended", trace_length=1_500,
                                  num_registers=64, exception_rate=0.002)
        assert reference.exceptions_taken > 0
        assert dataclasses.asdict(ran) == dataclasses.asdict(reference)
