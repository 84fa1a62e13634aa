"""Trace-driven fetch unit with wrong-path injection.

Responsibilities (per Table 2 of the paper):

* fetch up to 8 instructions per cycle, ending the group after the second
  predicted-taken branch;
* predict every branch with the gshare predictor (speculative history
  update) and the BTB (a predicted-taken branch missing in the BTB cannot
  be redirected and is treated as not taken);
* model instruction-cache misses as front-end stall cycles;
* after fetching a branch whose prediction disagrees with the trace
  outcome, switch to the wrong-path generator until the back end resolves
  the branch and calls :meth:`FetchUnit.recover`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.isa import Instruction
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.gshare import GsharePredictor, PredictionRecord
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.records import Trace
from repro.trace.wrongpath import WrongPathGenerator


@dataclass(slots=True)
class FetchedOp:
    """A fetched instruction plus the front-end metadata the back end needs.

    Attributes
    ----------
    inst:
        The instruction record (correct-path trace entry or synthetic
        wrong-path instruction).
    prediction:
        Predictor record for branches (None otherwise).
    predicted_taken:
        Final front-end direction decision (gshare direction gated by BTB
        hit), for branches.
    mispredicted:
        True when the front-end decision disagrees with the actual outcome.
        Known at fetch time in a trace-driven simulator; the back end only
        acts on it when the branch executes.
    resume_cursor:
        Trace index of the next correct-path instruction after this one;
        used to re-steer fetch on recovery.  ``-1`` for wrong-path ops.
    wrong_path:
        True when the op was synthesised by the wrong-path generator.
    """

    inst: Instruction
    prediction: Optional[PredictionRecord] = None
    predicted_taken: bool = False
    mispredicted: bool = False
    resume_cursor: int = -1
    wrong_path: bool = False


class FetchUnit:
    """Fetches instructions from a trace, or from the wrong-path generator."""

    def __init__(self, trace: Trace, predictor: GsharePredictor,
                 btb: BranchTargetBuffer, memory: Optional[MemoryHierarchy],
                 wrongpath: Optional[WrongPathGenerator] = None,
                 fetch_width: int = 8, max_taken_per_cycle: int = 2) -> None:
        self.trace = trace
        #: the raw instruction list and its length, hoisted out of the
        #: per-instruction fetch path (Trace.__getitem__ is a delegation).
        self._instructions = trace.instructions
        self._trace_len = len(trace.instructions)
        self.predictor = predictor
        self.btb = btb
        self.memory = memory
        self.wrongpath = wrongpath
        self.fetch_width = fetch_width
        self.max_taken_per_cycle = max_taken_per_cycle

        self.cursor = 0
        self.on_wrong_path = False
        self._wrong_path_pc = 0
        self._stall_until = 0
        # statistics
        self.fetched_correct = 0
        self.fetched_wrong = 0
        self.icache_stall_cycles = 0

    # ------------------------------------------------------------------
    @property
    def trace_exhausted(self) -> bool:
        """True when every correct-path instruction has been fetched."""
        return self.cursor >= self._trace_len and not self.on_wrong_path

    def recover(self, resume_cursor: int) -> None:
        """Re-steer fetch to the correct path after a branch misprediction
        or an exception flush.

        ``resume_cursor`` is the trace index of the first instruction to
        fetch next (the value captured in :attr:`FetchedOp.resume_cursor`).
        """
        if resume_cursor < 0:
            raise ValueError("cannot recover to a wrong-path position")
        self.cursor = resume_cursor
        self.on_wrong_path = False

    # ------------------------------------------------------------------
    def _next_correct_path(self) -> Optional[Instruction]:
        if self.cursor >= self._trace_len:
            return None
        inst = self._instructions[self.cursor]
        self.cursor += 1
        return inst

    def _fetch_one(self, cycle: int) -> Optional[FetchedOp]:
        """Fetch a single instruction (correct path or wrong path)."""
        if self.on_wrong_path:
            if self.wrongpath is None:
                return None
            inst = self.wrongpath.next_instruction(self._wrong_path_pc)
            self._wrong_path_pc += 4
            op = FetchedOp(inst, None, False, False, -1, True)
            self.fetched_wrong += 1
            if inst.is_branch:
                record = self.predictor.predict(inst.pc)
                predicted = record.predicted_taken
                if predicted and self.btb.lookup(inst.pc) is None:
                    predicted = False
                # Wrong-path branches always resolve as predicted so they
                # never trigger nested recoveries (DESIGN.md).
                op.inst = replace(inst, taken=predicted,
                                  target=inst.target if predicted else inst.pc + 4)
                op.prediction = record
                op.predicted_taken = predicted
                op.mispredicted = False
                if predicted:
                    self._wrong_path_pc = op.inst.target
            return op

        inst = self._next_correct_path()
        if inst is None:
            return None
        op = FetchedOp(inst, None, False, False, self.cursor, False)
        self.fetched_correct += 1
        if inst.is_branch:
            record = self.predictor.predict(inst.pc)
            predicted = record.predicted_taken
            if predicted and self.btb.lookup(inst.pc) is None:
                # Direction says taken but no target available: fall through.
                predicted = False
            op.prediction = record
            op.predicted_taken = predicted
            op.mispredicted = predicted != inst.taken
            if op.mispredicted:
                # Continue down the (wrong) predicted path.
                self.on_wrong_path = True
                self._wrong_path_pc = (inst.target if predicted else inst.pc + 4)
        return op

    # ------------------------------------------------------------------
    def fetch_cycle(self, cycle: int) -> List[FetchedOp]:
        """Fetch up to ``fetch_width`` instructions for this cycle."""
        if cycle < self._stall_until:
            return []
        group: List[FetchedOp] = []
        taken_seen = 0

        # Model the instruction-cache access for the group's leading pc.
        leading_pc = None
        if self.on_wrong_path:
            leading_pc = self._wrong_path_pc
        elif self.cursor < self._trace_len:
            leading_pc = self._instructions[self.cursor].pc
        if leading_pc is not None and self.memory is not None:
            latency = self.memory.instruction_access(leading_pc)
            if latency > 1:
                self._stall_until = cycle + latency
                self.icache_stall_cycles += latency - 1
                return []

        while len(group) < self.fetch_width:
            op = self._fetch_one(cycle)
            if op is None:
                break
            group.append(op)
            if op.inst.is_branch and op.predicted_taken:
                taken_seen += 1
                if taken_seen >= self.max_taken_per_cycle:
                    break
        return group
