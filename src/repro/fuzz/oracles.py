"""The fuzzer's differential oracles.

Each oracle takes one :class:`~repro.fuzz.sampling.FuzzSample` plus a
shared per-sample :class:`SampleContext` and returns an
:class:`OracleOutcome` — ``pass``, ``fail`` (with a detail string) or
``skip`` (with the reason).  Skips are first-class: a missing C
toolchain, a config outside the compiled envelope or a scalar-replay
probe trip must surface as a *counted skip* in the fuzz report, never as
a silent pass.

Oracles:

``generation``
    Vectorised vs scalar trace generation must emit identical
    instruction streams **and** leave the shared ``numpy`` bit generator
    in the identical state (so any scalar/vector hand-off consumed
    exactly the same draws).
``conservation``
    A Python-engine run with an :class:`InvariantProbe` attached:
    free-list accounting, structural occupancy bounds, Release-Queue
    liveness and the final stat identities; any engine exception
    (``FreeListError``, ``DeadlockError``, …) is a failure too.  Its
    stats become the sample's Python reference.
``backend``
    The compiled C core vs the Python engine must produce
    field-identical ``SimStats`` — honouring ``unsupported_reason()``
    and every fallback layer as skips.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.engine.engine import SimulationEngine
from repro.fuzz.invariants import InvariantProbe, InvariantViolation
from repro.fuzz.sampling import FuzzSample
from repro.pipeline.stats import SimStats
from repro.trace.draws import replay_supported, vectorized_enabled
from repro.trace.records import Trace
from repro.trace.workloads import (_scenario_stream_seed,
                                   generate_scenario_trace, get_workload,
                                   install_ephemeral_profiles,
                                   uninstall_ephemeral_profiles)

#: Default oracle set, in execution order (cheap generation check first,
#: conservation before backend so its probed run is the sample's one
#: Python-engine run).
DEFAULT_ORACLES: Tuple[str, ...] = ("generation", "conservation", "backend")


@dataclass(frozen=True)
class OracleOutcome:
    """Result of one oracle on one sample."""

    status: str                 # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _passed() -> OracleOutcome:
    return OracleOutcome("pass")


def _failed(detail: str) -> OracleOutcome:
    return OracleOutcome("fail", detail)


def _skipped(reason: str) -> OracleOutcome:
    return OracleOutcome("skip", reason)


@contextlib.contextmanager
def ephemeral_scenario(profile) -> Iterator[None]:
    """Make a sampled profile name-resolvable for the duration of a block.

    Uses the sweep layer's ephemeral-profile machinery (the same path
    that ships registered/derived profiles to pool workers), so the
    simulator's warm-up pass — which re-resolves ``trace.name`` through
    ``get_workload`` — sees the sampled scenario exactly like a
    registered one, without ever entering the user-visible registry.
    """
    install_ephemeral_profiles([profile])
    try:
        yield
    finally:
        uninstall_ephemeral_profiles([profile.name])


class SampleContext:
    """Shared per-sample state: the generated trace and the Python stats.

    The conservation and backend oracles both need the Python reference
    run.  The conservation oracle's probed run seeds it, so a default
    oracle set simulates each sample once per engine.
    """

    def __init__(self, sample: FuzzSample) -> None:
        self.sample = sample
        self._trace: Optional[Trace] = None
        self._python_stats: Optional[SimStats] = None

    # ------------------------------------------------------------------
    def trace(self) -> Trace:
        """The sample's trace (memoised content-keyed via get_workload)."""
        if self._trace is None:
            sample = self.sample
            self._trace = get_workload(
                sample.scenario.name, sample.trace_length, sample.trace_seed,
                scenario_profiles=(sample.scenario,))
        return self._trace

    def python_stats(self) -> SimStats:
        """Reference Python-engine stats, computed once."""
        if self._python_stats is None:
            sample = self.sample
            config = dataclasses.replace(sample.config, engine="python")
            with ephemeral_scenario(sample.scenario):
                engine = SimulationEngine(self.trace(), config)
                self._python_stats = engine.run()
        return self._python_stats


def _stats_diff(left: SimStats, right: SimStats,
                left_label: str, right_label: str) -> Optional[str]:
    """Human-readable field diff of two stats objects (None when equal)."""
    left_dict = dataclasses.asdict(left)
    right_dict = dataclasses.asdict(right)
    if left_dict == right_dict:
        return None
    fields = [name for name in left_dict
              if left_dict[name] != right_dict[name]]
    parts = [f"{name}: {left_label}={left_dict[name]!r} "
             f"{right_label}={right_dict[name]!r}" for name in fields[:6]]
    if len(fields) > 6:
        parts.append(f"... and {len(fields) - 6} more fields")
    return "; ".join(parts)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def check_generation(sample: FuzzSample, ctx: SampleContext) -> OracleOutcome:
    """Vectorised vs scalar generation: identical stream + RNG state."""
    if not vectorized_enabled(None):
        return _skipped("REPRO_TRACE_SCALAR forces the scalar path; "
                        "nothing to compare differentially")
    if not replay_supported():
        return _skipped("vectorised replay unsupported on this numpy build "
                        "(scalar-fallback probe tripped)")

    def fresh_rng() -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(
            (sample.trace_seed, _scenario_stream_seed(sample.scenario.name))))

    try:
        rng_vec = fresh_rng()
        trace_vec = generate_scenario_trace(
            sample.scenario, sample.trace_length, sample.trace_seed,
            vectorized=True, rng=rng_vec)
        rng_scalar = fresh_rng()
        trace_scalar = generate_scenario_trace(
            sample.scenario, sample.trace_length, sample.trace_seed,
            vectorized=False, rng=rng_scalar)
    except Exception as exc:  # a generation crash is a finding, not noise
        return _failed(f"trace generation raised {type(exc).__name__}: {exc}")
    if len(trace_vec) != len(trace_scalar):
        return _failed(
            f"vectorised trace has {len(trace_vec)} instructions, scalar "
            f"oracle {len(trace_scalar)}")
    for index, (vec, scalar) in enumerate(
            zip(trace_vec.instructions, trace_scalar.instructions,
                strict=True)):
        if vec != scalar:
            return _failed(
                f"instruction {index} diverges: vectorised {vec!r} vs "
                f"scalar {scalar!r}")
    if rng_vec.bit_generator.state != rng_scalar.bit_generator.state:
        return _failed(
            "bit-generator state diverges after generation (a hand-off "
            "consumed a different number of draws): "
            f"vectorised={rng_vec.bit_generator.state!r} "
            f"scalar={rng_scalar.bit_generator.state!r}")
    return _passed()


def check_backend(sample: FuzzSample, ctx: SampleContext) -> OracleOutcome:
    """Compiled C core vs Python engine bit-identical ``SimStats``."""
    from repro.engine import accel
    from repro.engine.accel.compiled import unsupported_reason

    reason = unsupported_reason(sample.config)
    if reason is not None:
        return _skipped(f"config outside the compiled envelope: {reason}")
    compiled_config = dataclasses.replace(sample.config, engine="compiled")
    if accel.resolve_engine_backend(compiled_config) != "compiled":
        fallback = accel.backend_fallback_reason() or "availability probe failed"
        return _skipped(f"compiled backend unavailable: {fallback}")
    try:
        python_stats = ctx.python_stats()
        with ephemeral_scenario(sample.scenario):
            engine = SimulationEngine(ctx.trace(), compiled_config)
            compiled_stats = engine.run()
    except Exception as exc:
        return _failed(f"simulation raised {type(exc).__name__}: {exc}")
    if engine.backend_used != "compiled":
        return _skipped("per-run fallback to the Python engine "
                        "(core escape or partially modelled state)")
    diff = _stats_diff(compiled_stats, python_stats, "compiled", "python")
    if diff:
        return _failed(f"backend divergence: {diff}")
    return _passed()


def check_conservation(sample: FuzzSample, ctx: SampleContext) -> OracleOutcome:
    """Engine-internal invariants under a per-cycle probe.

    The probe only observes, so the run's stats seed the context's Python
    reference for the oracles that follow.
    """
    config = dataclasses.replace(sample.config, engine="python")
    probe = InvariantProbe()
    try:
        with ephemeral_scenario(sample.scenario):
            engine = SimulationEngine(ctx.trace(), config, probe=probe)
            stats = engine.run()
            ctx._python_stats = stats
            probe.final_check(engine.state, stats)
    except InvariantViolation as exc:
        return _failed(f"invariant violated: {exc}")
    except Exception as exc:
        return _failed(f"engine raised {type(exc).__name__}: {exc}")
    return _passed()


#: Oracle registry: name -> callable(sample, ctx) -> OracleOutcome.
ORACLES: Dict[str, Callable[[FuzzSample, SampleContext], OracleOutcome]] = {
    "generation": check_generation,
    "conservation": check_conservation,
    "backend": check_backend,
}


def resolve_oracle_names(names: Optional[Tuple[str, ...]]) -> Tuple[str, ...]:
    """Validate an oracle selection (None = the default set, in order)."""
    if names is None:
        return DEFAULT_ORACLES
    unknown = [name for name in names if name not in ORACLES]
    if unknown:
        raise ValueError(
            f"unknown oracles: {', '.join(sorted(unknown))}; known oracles: "
            f"{', '.join(sorted(ORACLES))}")
    if not names:
        raise ValueError(
            f"empty oracle selection; known oracles: "
            f"{', '.join(sorted(ORACLES))}")
    return tuple(names)


def run_oracle(name: str, sample: FuzzSample,
               ctx: Optional[SampleContext] = None) -> OracleOutcome:
    """Run one oracle by name on one sample (fresh context by default)."""
    if ctx is None:
        ctx = SampleContext(sample)
    return ORACLES[name](sample, ctx)


# Imported for the docstring contract; re-exported for probe-equipped
# callers (the mutation smoke test builds its own engines).
__all__ = ["DEFAULT_ORACLES", "ORACLES", "OracleOutcome", "SampleContext",
           "check_backend", "check_conservation",
           "check_generation", "ephemeral_scenario", "resolve_oracle_names",
           "run_oracle"]
