"""The Python engine's clock: every cycle is stepped, stalls are booked per cycle.

A hand-built trace makes the expected stall windows predictable.  The
class name dates from when the engine could also skip idle cycles; the
engine now walks every cycle of such a window.
"""

import dataclasses

from repro.backend.functional_units import FUConfig
from repro.engine import SimulationEngine
from repro.isa import FUKind, InstructionBuilder, OpClass, RegClass
from repro.pipeline.config import ProcessorConfig
from repro.trace.records import Trace

FAST = dict(warmup=False, enable_wrong_path=False, engine="python")

#: Occupancy of the unpipelined FP divider (cycles per divide).
FP_DIV_OCCUPANCY = 16


class TestFastForward:
    def test_structural_stall_window_is_fast_forwarded(self):
        # Six independent FP divides on a single unpipelined divider:
        # after each issue the remaining ready divides are structurally
        # blocked for the full occupancy.  Each cycle of those windows is
        # stepped, and books one structural stall per blocked ready entry.
        builder = InstructionBuilder(pc=0x1000)
        for i in range(6):
            builder.alu(dest=10 + i, srcs=(1, 2), fp=True, op=OpClass.FP_DIV)
        trace = Trace(name="divs", focus_class=RegClass.INT,
                      instructions=builder.trace())
        starved = FUConfig(counts={
            FUKind.SIMPLE_INT: 8, FUKind.INT_MULT: 4, FUKind.SIMPLE_FP: 6,
            FUKind.FP_MULT: 4, FUKind.FP_DIV: 1, FUKind.LOAD_STORE: 4,
        })
        config = ProcessorConfig(functional_units=starved, **FAST)

        booked = []     # structural stalls booked in each stepped cycle
        last = 0

        def probe(state):
            nonlocal last
            booked.append(state.fus.structural_stalls - last)
            last = state.fus.structural_stalls

        stats = SimulationEngine(trace, config, probe=probe).run()
        assert len(booked) == stats.cycles
        # Five windows, with 5, 4, 3, 2 and 1 divides left waiting.
        windows = [blocked for blocked in booked if blocked]
        assert windows == [blocked for blocked in (5, 4, 3, 2, 1)
                           for _ in range(FP_DIV_OCCUPANCY)]
        assert stats.structural_stalls == FP_DIV_OCCUPANCY * 15

        unprobed = SimulationEngine(trace, config).run()
        assert dataclasses.asdict(unprobed) == dataclasses.asdict(stats)
