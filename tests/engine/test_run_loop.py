"""The Python engine's run loop: one stage sweep per simulated cycle."""

import pytest

from repro.engine import MachineState, SimulationEngine, default_stages
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_workload

FAST = dict(warmup=False, enable_wrong_path=False, engine="python")


class TestRunLoop:
    def test_step_is_always_single_cycle(self, mixed_trace):
        engine = SimulationEngine(mixed_trace, ProcessorConfig(**FAST))
        for expected_cycle in range(1, 40):
            engine.step()
            assert engine.state.cycle == expected_cycle

    def test_run_stops_when_the_machine_drains(self, mixed_trace):
        engine = SimulationEngine(mixed_trace, ProcessorConfig(**FAST))
        stats = engine.run()
        assert engine.finished
        assert stats.committed_instructions == len(mixed_trace)
        assert stats.cycles == engine.state.cycle

    @pytest.mark.parametrize("max_cycles", [0, 50, 137, 400])
    def test_max_cycles_cap_stops_on_the_cap(self, max_cycles):
        # The cap is checked once before the loop (so 0 runs no cycles)
        # and after every sweep.
        trace = get_workload("swim", 1_500, seed=0)
        config = ProcessorConfig(release_policy="conv", num_physical_int=48,
                                 num_physical_fp=48, **FAST)
        engine = SimulationEngine(trace, config)
        stats = engine.run(max_cycles=max_cycles)
        assert engine.state.cycle == max_cycles
        assert stats.cycles == max_cycles
        assert stats.committed_instructions < len(trace)

    def test_stage_wiring(self):
        names = [stage.name for stage in default_stages()]
        assert names == ["commit", "writeback", "issue", "rename", "fetch"]

    def test_machine_state_implements_pipeline_view(self, mixed_trace):
        from repro.core.release_policy import PipelineView

        state = MachineState(mixed_trace, ProcessorConfig(**FAST))
        assert isinstance(state, PipelineView)
        assert state.current_cycle() == 0
        assert not state.is_committed(0)
