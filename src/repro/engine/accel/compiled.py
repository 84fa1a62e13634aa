"""Drive one simulation through the compiled core, bit-identically.

:func:`run_compiled` takes a fully constructed
:class:`~repro.engine.state.MachineState`, exports it into a C
``Machine`` built by :mod:`repro.engine.accel.loader`, lets ``sim_run``
execute the whole pipeline, and assembles the resulting counters into the
same :class:`~repro.pipeline.stats.SimStats` the Python engine's
``collect_stats`` would produce.

Warm-up runs inside the compiled invocation: a state constructed with
``warmup=True`` for the compiled backend defers its Python warm-up pass
(``state.warmup_pending``), and ``run_compiled`` instead exports the
warm-up trace's columns and lets ``sim_run`` replay them through the C
predictor/BTB/cache models before the first measured cycle — the exact
port of ``MachineState._warm_state``, bit-identical by the equivalence
suite.  A state that was warmed in Python (``warmup_pending`` false)
exports the already-warm structures with a zero-length warm-up, which is
equally exact.

The immutable trace columns are served by the process-level
:data:`~repro.engine.accel.artefacts.EXPORT_CACHE`, so a sweep replaying
one trace under many configurations builds the columns once; all mutable
machine state is allocated per run by ``sim_new``.

The only Python work during the run is *refilling draw buffers*: the C
core never calls back into Python, so the two stochastic inputs — the
wrong-path instruction stream and the per-rename exception lottery — are
pre-drawn into flat buffers.  ``sim_run`` escapes with
``RUN_NEED_WRONGPATH`` / ``RUN_NEED_EXC`` *before* starting any cycle
that could exhaust a buffer, Python tops the buffer up from deep copies
of the state's own generators (so a later pure-Python fallback run still
observes untouched RNG streams), and re-enters.

Wrong-path payloads are exported pc-agnostically: the generator is asked
for the instruction at ``pc=0``, whose branch target then *is*
``4 * delta`` — the C core stamps the real (front-end dependent) pc back
in, exactly like the generator's own vectorised pre-draw path.

``run_compiled`` returns ``None`` whenever the run must be redone by the
Python engine: configurations the C core does not model, a deadlock
(so the Python engine raises its own ``DeadlockError``), or an internal
self-check failure inside the core (logged — this is the divergence
fallback of the accelerated backend's contract).
"""

from __future__ import annotations

import copy
import dataclasses
import logging
from typing import NamedTuple, Optional, TYPE_CHECKING

import numpy as np

from repro.engine.accel import loader
from repro.engine.accel.artefacts import EXPORT_CACHE
from repro.isa import FUKind, OpClass
from repro.pipeline.stats import RegisterFileStats, SimStats
from repro.core.register_state import OccupancyTotals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.state import MachineState

logger = logging.getLogger("repro.engine.accel")

#: Wrong-path payload buffer capacity.  Consumed one per wrong-path fetch;
#: a refill escape costs one ``sim_run`` re-entry plus this many generator
#: draws, so the value trades refill frequency against the up-front fill
#: every run pays (the escape check fires before the first cycle).
WP_BUFFER = 1024

#: Exception-lottery buffer capacity (one double per renamed correct-path
#: instruction; refills are a single batched ``Generator.random`` call).
EXC_BUFFER = 4096

#: ``ProcessorConfig.release_policy`` -> name of the C policy code.
_POLICY_CODES = {"conv": "POLICY_CONV", "conventional": "POLICY_CONV",
                 "basic": "POLICY_BASIC", "extended": "POLICY_EXTENDED"}

_FU_KINDS = tuple(FUKind)
_OP_CLASSES = tuple(OpClass)


class CompiledRun(NamedTuple):
    """Result of a successful compiled run."""

    stats: SimStats
    #: peak size of the ready set (the Python engine exposes this as
    #: ``state.ready.peak_size``; the bench probe records it).
    ready_peak: int


# ----------------------------------------------------------------------
# Export-support probe
# ----------------------------------------------------------------------
def unsupported_reason(config_or_state) -> Optional[str]:
    """Why this configuration cannot run on the compiled core (None = can).

    Accepts a :class:`~repro.pipeline.config.ProcessorConfig` or anything
    carrying one as ``.config`` (a ``MachineState``).  The C core models
    exactly the paper's six-pool / eleven-class functional units;
    configurations outside that envelope quietly use the Python engine.
    Needs no loaded core: it runs at machine construction.
    """
    cfg = getattr(config_or_state, "config", config_or_state)
    counts = cfg.functional_units.counts
    latencies = cfg.functional_units.latencies
    if any(kind not in _FU_KINDS for kind in counts):
        return "functional-unit pool outside the six-pool model"
    if any(op not in latencies for op in _OP_CLASSES):
        return "incomplete functional-unit latency table"
    return None


# ----------------------------------------------------------------------
# Config vector
# ----------------------------------------------------------------------
def _config_vector(lib, state: "MachineState",
                   warm_len: int) -> "np.ndarray":
    cfg = state.config
    mem = cfg.memory
    fus = cfg.functional_units
    vec = np.zeros(lib.NCFG, dtype=np.int64)
    vec[lib.CFG_TRACE_LEN] = len(state.trace.instructions)
    vec[lib.CFG_FETCH_W] = cfg.fetch_width
    vec[lib.CFG_RENAME_W] = cfg.rename_width
    vec[lib.CFG_ISSUE_W] = cfg.issue_width
    vec[lib.CFG_COMMIT_W] = cfg.commit_width
    vec[lib.CFG_MAX_TAKEN] = cfg.max_taken_branches_per_cycle
    vec[lib.CFG_FRONTEND] = cfg.frontend_stages
    vec[lib.CFG_ROS] = cfg.ros_size
    vec[lib.CFG_LSQ] = cfg.lsq_size
    vec[lib.CFG_CK_CAP] = cfg.max_pending_branches
    vec[lib.CFG_NPHYS_INT] = cfg.num_physical_int
    vec[lib.CFG_NPHYS_FP] = cfg.num_physical_fp
    vec[lib.CFG_NLOG_INT] = cfg.num_logical_int
    vec[lib.CFG_NLOG_FP] = cfg.num_logical_fp
    vec[lib.CFG_GSHARE_BITS] = cfg.gshare_history_bits
    vec[lib.CFG_BTB_SETS] = cfg.btb_entries // cfg.btb_associativity
    vec[lib.CFG_BTB_ASSOC] = cfg.btb_associativity
    vec[lib.CFG_POLICY] = getattr(lib, _POLICY_CODES[cfg.release_policy])
    vec[lib.CFG_REUSE] = int(cfg.reuse_on_committed_lu)
    vec[lib.CFG_WP_ENABLED] = int(cfg.enable_wrong_path)
    vec[lib.CFG_EXC_ENABLED] = int(cfg.exception_rate > 0.0)
    for name, level in (("L1I", mem.l1i), ("L1D", mem.l1d), ("L2", mem.l2)):
        shift = level.line_bytes.bit_length() - 1
        vec[getattr(lib, f"CFG_{name}_SETS")] = level.n_sets
        vec[getattr(lib, f"CFG_{name}_ASSOC")] = level.associativity
        vec[getattr(lib, f"CFG_{name}_SHIFT")] = shift
        vec[getattr(lib, f"CFG_{name}_LAT")] = level.hit_latency
    vec[lib.CFG_MEM_LAT] = mem.main_memory_latency
    for kind in _FU_KINDS:
        vec[lib.CFG_FU_COUNT + kind] = fus.counts.get(kind, 0)
        vec[lib.CFG_FU_UNPIPELINED + kind] = int(kind in fus.unpipelined)
    for op in _OP_CLASSES:
        vec[lib.CFG_OP_LAT + op] = fus.latencies[op]
    vec[lib.CFG_WP_CAP] = WP_BUFFER
    vec[lib.CFG_EXC_CAP] = EXC_BUFFER
    vec[lib.CFG_WARM_LEN] = warm_len
    return vec


# ----------------------------------------------------------------------
# State export
# ----------------------------------------------------------------------
def _i64_view(ffi, lib, mach, which: int, length: int) -> "np.ndarray":
    ptr = lib.sim_i64(mach, which)
    return np.frombuffer(ffi.buffer(ptr, 8 * length), dtype=np.int64)


def _export_trace(ffi, lib, mach, trace) -> None:
    """Copy the trace's (cached, read-only) columns into the C Machine."""
    n = len(trace.instructions)
    if n == 0:
        return
    columns = EXPORT_CACHE.trace_columns(trace)
    for name, column in columns.items():
        _i64_view(ffi, lib, mach, getattr(lib, f"A_T_{name.upper()}"),
                  len(column))[:] = column


def _export_warmup(ffi, lib, mach, warm_trace) -> None:
    """Copy the warm-up trace's (cached) replay columns into the Machine."""
    n = len(warm_trace.instructions)
    if n == 0:
        return
    columns = EXPORT_CACHE.warmup_columns(warm_trace)
    for name, column in columns.items():
        _i64_view(ffi, lib, mach, getattr(lib, f"A_WU_{name.upper()}"),
                  len(column))[:] = column


def _export_predictor(ffi, lib, mach, predictor) -> None:
    table = np.frombuffer(ffi.buffer(lib.sim_gs_table(mach),
                                     predictor.table_size), dtype=np.int8)
    table[:] = np.frombuffer(predictor.table, dtype=np.int8)
    lib.sim_set(mach, lib.SC_GS_HISTORY, predictor.history)


def _export_btb(ffi, lib, mach, btb) -> None:
    assoc = btb.associativity
    n_sets = btb.n_sets
    tag = _i64_view(ffi, lib, mach, lib.A_B_TAG, n_sets * assoc)
    target = _i64_view(ffi, lib, mach, lib.A_B_TARGET, n_sets * assoc)
    nway = _i64_view(ffi, lib, mach, lib.A_B_NWAY, n_sets)
    for index, ways in enumerate(btb._sets):
        if not ways:
            continue
        nway[index] = len(ways)
        base = index * assoc
        for pos, (entry_tag, entry_target) in enumerate(ways):
            tag[base + pos] = entry_tag
            target[base + pos] = entry_target


def _export_cache(ffi, lib, mach, cache, level: str) -> None:
    assoc = cache.config.associativity
    n_sets = cache._n_sets
    tag = _i64_view(ffi, lib, mach, getattr(lib, f"A_{level}_TAG"),
                    n_sets * assoc)
    dirty = _i64_view(ffi, lib, mach, getattr(lib, f"A_{level}_DIRTY"),
                      n_sets * assoc)
    nway = _i64_view(ffi, lib, mach, getattr(lib, f"A_{level}_NWAY"), n_sets)
    for index, ways in cache._sets.items():
        if not ways:
            continue
        nway[index] = len(ways)
        base = index * assoc
        for pos, (entry_tag, entry_dirty) in enumerate(ways):
            tag[base + pos] = entry_tag
            dirty[base + pos] = entry_dirty


# ----------------------------------------------------------------------
# Draw-buffer refills
# ----------------------------------------------------------------------
def _payload_columns(ffi, lib, mach, cap: int):
    """Views of the wrong-path payload buffer, keyed by column name."""
    return {name: _i64_view(ffi, lib, mach,
                            getattr(lib, f"A_W_{name.upper()}"),
                            lib.WP_MAX_SRCS * cap if name.startswith("src_")
                            else cap)
            for name in ("op", "dc", "dest", "nsrc", "src_class", "src_log",
                         "addr", "tdelta")}


def _fill_wrongpath(columns, generator, start: int, stop: int) -> None:
    """Draw payloads ``[start, stop)`` from the wrong-path generator.

    ``pc=0`` makes the drawn branch target equal ``4 * delta``, so the
    exported ``tdelta`` is pc-independent and the C core can stamp the
    real pc in at fetch time (matching the Python front end exactly).
    """
    w_op, w_dc = columns["op"], columns["dc"]
    w_dest, w_nsrc = columns["dest"], columns["nsrc"]
    w_src_class, w_src_log = columns["src_class"], columns["src_log"]
    w_addr, w_tdelta = columns["addr"], columns["tdelta"]
    stride = len(w_src_class) // len(w_op)
    next_instruction = generator.next_instruction
    for i in range(start, stop):
        inst = next_instruction(0)
        w_op[i] = int(inst.op)
        if inst.dest is None:
            w_dc[i] = -1
            w_dest[i] = 0
        else:
            w_dc[i] = int(inst.dest[0])
            w_dest[i] = inst.dest[1]
        srcs = inst.srcs
        w_nsrc[i] = len(srcs)
        for s, (reg_class, log) in enumerate(srcs):
            w_src_class[stride * i + s] = int(reg_class)
            w_src_log[stride * i + s] = log
        w_addr[i] = inst.mem_addr
        w_tdelta[i] = inst.target >> 2 if inst.is_branch else 0


def _refill_wrongpath(lib, mach, columns, generator, cap: int) -> None:
    head = lib.sim_get(mach, lib.SC_WP_HEAD)
    count = lib.sim_get(mach, lib.SC_WP_COUNT)
    remaining = count - head
    if remaining > 0 and head > 0:
        for column in columns.values():
            stride = len(column) // cap
            keep = column[stride * head:stride * count].copy()
            column[:stride * remaining] = keep
    _fill_wrongpath(columns, generator, remaining, cap)
    lib.sim_set(mach, lib.SC_WP_HEAD, 0)
    lib.sim_set(mach, lib.SC_WP_COUNT, cap)


def _refill_exceptions(ffi, lib, mach, rng, cap: int) -> None:
    buf = np.frombuffer(ffi.buffer(lib.sim_exc_buf(mach), 8 * cap),
                        dtype=np.float64)
    head = lib.sim_get(mach, lib.SC_EXC_HEAD)
    count = lib.sim_get(mach, lib.SC_EXC_COUNT)
    remaining = count - head
    if remaining > 0 and head > 0:
        buf[:remaining] = buf[head:count].copy()
    buf[remaining:cap] = rng.random(cap - remaining)
    lib.sim_set(mach, lib.SC_EXC_HEAD, 0)
    lib.sim_set(mach, lib.SC_EXC_COUNT, cap)


# ----------------------------------------------------------------------
# Stats assembly
# ----------------------------------------------------------------------
def _hit_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return 1.0 if total == 0 else hits / total


def _miss_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return 0.0 if total == 0 else misses / total


def _with_counters(cls, lib, prefix: str, block: "np.ndarray",
                   values: dict):
    """``cls(**values)``, every other field read from its STATS slot.

    The slot of field ``name`` is ``lib.<prefix><NAME>`` (an index into
    ``block``); a field without one raises ``AttributeError`` rather than
    keep its dataclass default.
    """
    for field in dataclasses.fields(cls):
        if field.name not in values:
            slot = getattr(lib, prefix + field.name.upper())
            values[field.name] = int(block[slot])
    return cls(**values)


def _register_file_stats(lib, st: "np.ndarray", base: int,
                         num_physical: int, cycles: int) -> RegisterFileStats:
    rf = st[base:base + lib.RF_N]
    totals = OccupancyTotals(cycles=cycles,
                             empty=float(rf[lib.RF_OCC_EMPTY]),
                             ready=float(rf[lib.RF_OCC_READY]),
                             idle=float(rf[lib.RF_OCC_IDLE]))
    return _with_counters(RegisterFileStats, lib, "RF_", rf, {
        "num_physical": num_physical,
        "occupancy": totals.averages(),
    })


def _assemble_stats(lib, state: "MachineState", st: "np.ndarray",
                    cycles: int) -> SimStats:
    cfg = state.config

    def count(name: str) -> int:
        return int(st[getattr(lib, "ST_" + name)])

    by_class = st[lib.ST_BY_CLASS:lib.ST_BY_CLASS + lib.N_OPS]
    stall_slots = sorted((getattr(lib, name), name[len("ST_STALL_"):].lower())
                         for name in dir(lib) if name.startswith("ST_STALL_"))
    return _with_counters(SimStats, lib, "ST_", st, {
        "benchmark": state.trace.name,
        "release_policy": cfg.release_policy,
        "cycles": cycles,
        "committed_by_class": {op.name: int(by_class[op])
                               for op in _OP_CLASSES if by_class[op]},
        "btb_hit_rate": _hit_rate(count("BTB_HITS"), count("BTB_MISSES")),
        "l1i_miss_rate": _miss_rate(count("L1I_HITS"), count("L1I_MISSES")),
        "l1d_miss_rate": _miss_rate(count("L1D_HITS"), count("L1D_MISSES")),
        "l2_miss_rate": _miss_rate(count("L2_HITS"), count("L2_MISSES")),
        "dispatch_stalls": {reason: int(st[slot])
                            for slot, reason in stall_slots},
        "int_registers": _register_file_stats(
            lib, st, lib.ST_RF_INT, cfg.num_physical_int, cycles),
        "fp_registers": _register_file_stats(
            lib, st, lib.ST_RF_FP, cfg.num_physical_fp, cycles),
    })


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_compiled(state: "MachineState", *,
                 max_instructions: Optional[int] = None,
                 max_cycles: Optional[int] = None,
                 deadlock_threshold: int = 50_000) -> Optional[CompiledRun]:
    """Run ``state``'s simulation on the compiled core.

    Returns a :class:`CompiledRun`, or ``None`` when the run must be
    (re)done by the Python engine.  The Python ``state`` is never
    mutated: the export copies structure contents and deep-copies the
    RNG-bearing generators, so a fallback run starts from pristine state.

    Raises :class:`~repro.engine.accel.loader.ToolchainError` when the
    core cannot be built/loaded (callers resolve that once per process).
    """
    reason = unsupported_reason(state)
    if reason is not None:
        logger.debug("compiled backend unavailable for this run: %s", reason)
        return None

    # A deferred warm-up (state constructed for the compiled backend)
    # runs inside sim_run from the exported warm-up trace; a state warmed
    # in Python instead exports its already-warm structures below and the
    # C pass is a no-op.  The Python state is left pending — a fallback
    # run warms itself via ensure_warm().
    warm_trace = (state._build_warmup_trace()
                  if getattr(state, "warmup_pending", False) else None)
    warm_len = len(warm_trace.instructions) if warm_trace is not None else 0

    ffi, lib = loader.load_core()
    vec = _config_vector(lib, state, warm_len)
    mach = lib.sim_new(ffi.cast("long long *", ffi.from_buffer(vec)),
                       lib.NCFG)
    if mach == ffi.NULL:
        logger.warning("compiled core rejected the configuration vector; "
                       "falling back to the Python engine")
        return None
    mach = ffi.gc(mach, lib.sim_free)

    _export_trace(ffi, lib, mach, state.trace)
    if warm_trace is not None:
        _export_warmup(ffi, lib, mach, warm_trace)
    _export_predictor(ffi, lib, mach, state.predictor)
    _export_btb(ffi, lib, mach, state.btb)
    memory = state.memory
    _export_cache(ffi, lib, mach, memory.l1i, "L1I")
    _export_cache(ffi, lib, mach, memory.l1d, "L1D")
    _export_cache(ffi, lib, mach, memory.l2, "L2")

    limit = (max_instructions if max_instructions is not None
             else len(state.trace.instructions))
    lib.sim_set(mach, lib.SC_COMMIT_LIMIT, limit)
    lib.sim_set(mach, lib.SC_MAX_CYCLES,
                -1 if max_cycles is None else max_cycles)
    lib.sim_set(mach, lib.SC_DEADLOCK, deadlock_threshold)
    lib.sim_set_exception_rate(mach, state.config.exception_rate)

    # Deep copies: the compiled attempt consumes these streams; a Python
    # fallback (deadlock, internal error) must see them untouched.
    wrongpath = (copy.deepcopy(state.fetch_unit.wrongpath)
                 if state.config.enable_wrong_path
                 and state.fetch_unit.wrongpath is not None else None)
    exc_rng = (copy.deepcopy(state.exception_rng)
               if state.config.exception_rate > 0.0 else None)
    if state.config.enable_wrong_path and wrongpath is None:
        # A wrong-path-enabled config without a generator cannot occur via
        # MachineState construction; refuse rather than diverge.
        logger.warning("wrong path enabled but no generator present; "
                       "falling back to the Python engine")
        return None

    wp_columns = (_payload_columns(ffi, lib, mach, WP_BUFFER)
                  if wrongpath is not None else None)

    status = lib.sim_run(mach)
    while status in (lib.RUN_NEED_WRONGPATH, lib.RUN_NEED_EXC):
        if status == lib.RUN_NEED_WRONGPATH:
            _refill_wrongpath(lib, mach, wp_columns, wrongpath, WP_BUFFER)
        else:
            _refill_exceptions(ffi, lib, mach, exc_rng, EXC_BUFFER)
        status = lib.sim_run(mach)

    if status == lib.RUN_DEADLOCK:
        # Let the Python engine reproduce its own DeadlockError (message
        # includes live pipeline details only it can render).
        logger.debug("compiled core hit the deadlock threshold; deferring "
                     "to the Python engine")
        return None
    if status != lib.RUN_FINISHED:
        logger.warning(
            "compiled core reported internal error %d (self-check escape); "
            "falling back to the Python engine",
            lib.sim_get(mach, lib.SC_ERROR)
            if status == lib.RUN_INTERNAL else status)
        return None

    st = _i64_view(ffi, lib, mach, lib.A_STATS, lib.ST_N).copy()
    cycles = int(lib.sim_get(mach, lib.SC_CYCLE))
    ready_peak = int(lib.sim_get(mach, lib.SC_READY_PEAK))
    return CompiledRun(stats=_assemble_stats(lib, state, st, cycles),
                      ready_peak=ready_peak)
