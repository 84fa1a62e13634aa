"""The cycle-level out-of-order processor (facade).

The simulation kernel lives in :mod:`repro.engine`: the five stages
(commit, writeback, issue, rename, fetch) are composable
:class:`~repro.engine.stages.Stage` objects operating on an explicit
shared :class:`~repro.engine.state.MachineState`, wired together by a
:class:`~repro.engine.engine.SimulationEngine` that steps them once per
cycle.

This module keeps the historical public surface — :class:`Processor` and
:func:`simulate` — as thin facades over the engine so experiments, tests
and examples written against the monolithic processor keep working.
Attribute access on a :class:`Processor` (``register_files``, ``ros``,
``lsq``, ``cycle``, ``stats``, …) resolves against the underlying
:class:`MachineState`.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.engine import DeadlockError, SimulationEngine
from repro.engine.engine import simulate as _engine_simulate
from repro.engine.state import (
    STALL_CHECKPOINTS_FULL,
    STALL_LSQ_FULL,
    STALL_NO_FREE_FP,
    STALL_NO_FREE_INT,
    STALL_ROS_FULL,
    MachineState,
)
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimStats
from repro.trace.records import Trace

__all__ = [
    "Processor", "simulate", "DeadlockError",
    "STALL_ROS_FULL", "STALL_LSQ_FULL", "STALL_CHECKPOINTS_FULL",
    "STALL_NO_FREE_INT", "STALL_NO_FREE_FP",
]


class Processor:
    """Trace-driven cycle-level out-of-order processor (paper Table 2).

    Facade over :class:`repro.engine.SimulationEngine`.
    """

    def __init__(self, trace: Trace,
                 config: Optional[ProcessorConfig] = None) -> None:
        self.engine = SimulationEngine(trace, config)
        self.state = self.engine.state

    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Fallback for everything MachineState owns (register_files, ros,
        # lsq, cycle, stats, policies, PipelineView methods, ...).  Only
        # called when normal attribute lookup fails.
        try:
            return getattr(self.__dict__["state"], name)
        except KeyError:  # pragma: no cover - partially constructed object
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value) -> None:
        # Writes forward to the machine state too — otherwise an
        # assignment like ``processor.cycle = 0`` would land on the facade
        # and silently diverge from the state the engine mutates.
        if name in ("engine", "state") or "state" not in self.__dict__:
            object.__setattr__(self, name, value)
        else:
            setattr(self.__dict__["state"], name, value)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Simulate exactly one cycle (commit → writeback → issue → rename → fetch)."""
        self.engine.step()

    @property
    def finished(self) -> bool:
        """True when every fetched instruction has drained from the pipeline."""
        return self.state.finished

    def run(self, max_instructions: Optional[int] = None,
            max_cycles: Optional[int] = None,
            deadlock_threshold: int = 50_000) -> SimStats:
        """Run the simulation until the trace drains (or a limit is hit)."""
        return self.engine.run(max_instructions=max_instructions,
                               max_cycles=max_cycles,
                               deadlock_threshold=deadlock_threshold)


def simulate(trace: Trace, config: Optional[ProcessorConfig] = None,
             max_instructions: Optional[int] = None,
             max_cycles: Optional[int] = None) -> SimStats:
    """Simulate ``trace`` to completion and return its :class:`SimStats`.

    This is the main public entry point: every experiment and example uses
    it.  ``max_instructions`` limits the number of *committed* instructions
    (defaults to the trace length); ``max_cycles`` is a safety bound.
    """
    return _engine_simulate(trace, config, max_instructions=max_instructions,
                            max_cycles=max_cycles)
