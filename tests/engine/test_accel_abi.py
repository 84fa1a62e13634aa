"""The compiled core's ABI has one declaration: the CDEF block of core.c.

Python reads every constant it shares with C from the loaded cffi
library by name, so drift between copies cannot happen.  These tests pin
what the names alone do not: that the C op codes and pool table are the
Python enums, that every ``SimStats`` counter has its STATS slot, that
the per-process self-check compares the full nested statistics, that a
library built from other source is refused, and that a new counter needs
edits to ``stats.py`` and ``core.c`` only.

They skip when no C toolchain can build the core.
"""

import dataclasses
import logging
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from repro.engine import SimulationEngine, accel
from repro.engine.accel import compiled, loader
from repro.isa import FU_KIND, FUKind, OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import RegisterFileStats, SimStats
from repro.trace.workloads import get_workload

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def lib():
    try:
        return loader.load_core()[1]
    except loader.ToolchainError as exc:
        pytest.skip(f"no C toolchain for the compiled core: {exc}")


def _counter_fields(cls, derived):
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls)
            if hints[f.name] is int and f.name not in derived]


def test_op_codes_and_pool_table_are_the_isa_enums(lib):
    for op in OpClass:
        assert getattr(lib, "OP_" + op.name) == op
    assert lib.N_OPS == len(OpClass)
    assert lib.N_FU_KINDS == len(FUKind)
    assert list(lib.FU_KIND_OF) == [FU_KIND[op] for op in OpClass]


def test_every_int_counter_has_its_slot(lib):
    sim_counters = _counter_fields(SimStats, {"cycles"})
    rf_counters = _counter_fields(RegisterFileStats, {"num_physical"})
    assert "squashed_instructions" in sim_counters
    assert "early_releases" in rf_counters
    sim_slots = [getattr(lib, "ST_" + name.upper()) for name in sim_counters]
    rf_slots = [getattr(lib, "RF_" + name.upper()) for name in rf_counters]
    assert len(set(sim_slots)) == len(sim_slots)
    assert len(set(rf_slots)) == len(rf_slots)
    assert all(0 <= slot < lib.ST_RF_INT for slot in sim_slots)
    assert all(0 <= slot < lib.RF_N for slot in rf_slots)


def test_field_without_a_slot_fails_loudly(lib):
    @dataclasses.dataclass
    class Grown:
        committed_instructions: int = 0
        counter_nobody_declared: int = 0

    block = np.zeros(lib.ST_N, dtype=np.int64)
    with pytest.raises(AttributeError, match="COUNTER_NOBODY_DECLARED"):
        compiled._with_counters(Grown, lib, "ST_", block, {})


def test_self_check_compares_nested_fields(lib, monkeypatch):
    assert accel._self_check()
    genuine = compiled.run_compiled

    def skewed(state, **kwargs):
        result = genuine(state, **kwargs)
        registers = result.stats.fp_registers
        registers.occupancy = dataclasses.replace(
            registers.occupancy, idle=registers.occupancy.idle + 1.0)
        return result

    monkeypatch.setattr(compiled, "run_compiled", skewed)
    assert not accel._self_check()


def test_library_built_from_other_source_is_refused(lib, tmp_path,
                                                    monkeypatch, caplog):
    import cffi

    cache = tmp_path / "cache"
    monkeypatch.setenv(loader.CACHE_DIR_ENV, str(cache))
    cc, flags = loader._compiler_command(), loader._extra_cflags()
    source = loader._SOURCE_PATH.read_text()
    expected = loader._build_digest(source, cc, flags, cffi.__version__)
    other = tmp_path / "core.c"
    other.write_text(source + "\n/* another build */\n")
    other_digest = loader._build_digest(other.read_text(), cc, flags,
                                        cffi.__version__)
    loader._compile(other, cache / f"repro_core_{expected[:16]}.so", cc,
                    flags, int(other_digest[:15], 16))

    accel.reset_backend_cache()
    try:
        with pytest.raises(loader.ToolchainError, match="ABI magic mismatch"):
            loader.load_core()
        accel.reset_backend_cache()
        with caplog.at_level(logging.WARNING, logger="repro.engine.accel"):
            engine = SimulationEngine(get_workload("swim", 500, seed=0),
                                      ProcessorConfig(engine="compiled",
                                                      warmup=False))
            engine.run()
        assert engine.backend_used == "python"
        assert any("ABI magic mismatch" in record.message
                   and "using the Python engine" in record.message
                   for record in caplog.records)
    finally:
        accel.reset_backend_cache()


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert text.count(old) == 1, f"{path.name}: expected one {old!r}"
    path.write_text(text.replace(old, new))


def test_new_counter_needs_only_the_field_the_slot_and_the_increment(
        lib, tmp_path):
    tree = tmp_path / "src"
    shutil.copytree(SRC_ROOT / "repro", tree / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    _edit(tree / "repro/pipeline/stats.py",
          "    committed_instructions: int = 0\n",
          "    committed_instructions: int = 0\n"
          "    retired_instructions: int = 0\n")
    core = tree / "repro/engine/accel/core.c"
    _edit(core, "    ST_STRUCTURAL_STALLS,\n",
          "    ST_STRUCTURAL_STALLS, ST_RETIRED_INSTRUCTIONS,\n")
    _edit(core, "    m->st[ST_COMMITTED_INSTRUCTIONS] += retire;\n",
          "    m->st[ST_COMMITTED_INSTRUCTIONS] += retire;\n"
          "    m->st[ST_RETIRED_INSTRUCTIONS] += retire;\n")
    # run_compiled directly: the Python engine does not count the new
    # field, so the backend self-check would (rightly) reject the core.
    script = (
        "from repro.engine import SimulationEngine\n"
        "from repro.engine.accel.compiled import run_compiled\n"
        "from repro.pipeline.config import ProcessorConfig\n"
        "from repro.trace.workloads import get_workload\n"
        "state = SimulationEngine(get_workload('gcc', 600, seed=0),\n"
        "                         ProcessorConfig(warmup=False)).state\n"
        "stats = run_compiled(state).stats\n"
        "print(stats.retired_instructions, stats.committed_instructions)\n")
    env = dict(os.environ, PYTHONPATH=str(tree),
               **{loader.CACHE_DIR_ENV: str(tmp_path / "cache")})
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    retired, committed = map(int, done.stdout.split())
    assert retired == committed > 0
