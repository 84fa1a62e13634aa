"""Oracle outcomes: pass paths, and every skip path recorded — never a
silent pass."""

import dataclasses

import pytest

import repro.engine.accel as accel
import repro.fuzz.oracles as oracles_mod
from repro.fuzz.oracles import (DEFAULT_ORACLES, ORACLES, SampleContext,
                                ephemeral_scenario, resolve_oracle_names,
                                run_oracle)
from repro.fuzz.runner import run_fuzz
from repro.fuzz.sampling import sample
from repro.trace.workloads import has_workload


@pytest.fixture(scope="module")
def good_sample():
    """One sampled point known to pass every oracle (seeded)."""
    return sample(20260808, 0)


class TestPassPaths:
    def test_all_oracles_pass_on_good_sample(self, good_sample):
        ctx = SampleContext(good_sample)
        for name in DEFAULT_ORACLES:
            outcome = run_oracle(name, good_sample, ctx)
            assert outcome.status in ("pass", "skip"), \
                f"{name}: {outcome.detail}"
            # Only the backend oracle may legitimately skip here (no C
            # toolchain on the host); the other two must pass.
            if name != "backend":
                assert outcome.status == "pass", f"{name}: {outcome.detail}"

    def test_context_shares_python_run(self, good_sample):
        ctx = SampleContext(good_sample)
        stats_first = ctx.python_stats()
        run_oracle("backend", good_sample, ctx)
        assert ctx.python_stats() is stats_first

    def test_default_oracles_run_the_python_engine_once(self, good_sample,
                                                        monkeypatch):
        # The conservation oracle's probed run seeds the context, so the
        # backend oracle compares against it instead of re-simulating.
        real_run = oracles_mod.SimulationEngine.run
        python_runs = []

        def counting_run(self):
            if self.state.config.engine == "python":
                python_runs.append(self)
            return real_run(self)

        monkeypatch.setattr(oracles_mod.SimulationEngine, "run", counting_run)
        ctx = SampleContext(good_sample)
        for name in DEFAULT_ORACLES:
            run_oracle(name, good_sample, ctx)
        assert len(python_runs) == 1
        assert python_runs[0].probe is not None


class TestGenerationSkips:
    def test_scalar_env_forces_skip(self, good_sample, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALAR", "1")
        outcome = run_oracle("generation", good_sample)
        assert outcome.status == "skip"
        assert "REPRO_TRACE_SCALAR" in outcome.detail

    def test_replay_probe_trip_forces_skip(self, good_sample, monkeypatch):
        monkeypatch.setattr(oracles_mod, "replay_supported", lambda: False)
        outcome = run_oracle("generation", good_sample)
        assert outcome.status == "skip"
        assert "scalar-fallback probe" in outcome.detail


class TestBackendSkips:
    def test_unsupported_config_skips_with_reason(self, good_sample):
        # A seventh functional-unit pool is outside the compiled core's
        # six-pool model.
        pools = good_sample.config.functional_units
        seven = dataclasses.replace(pools,
                                    counts={**pools.counts, "vector": 2})
        config = dataclasses.replace(good_sample.config,
                                     functional_units=seven)
        unsupported = dataclasses.replace(good_sample, config=config)
        outcome = run_oracle("backend", unsupported)
        assert outcome.status == "skip"
        assert "six-pool" in outcome.detail

    def test_toolchain_fallback_skips_with_reason(self, good_sample,
                                                  monkeypatch):
        monkeypatch.setattr(accel, "resolve_engine_backend",
                            lambda config=None: "python")
        monkeypatch.setattr(accel, "backend_fallback_reason",
                            lambda: "no C compiler found")
        outcome = run_oracle("backend", good_sample)
        assert outcome.status == "skip"
        assert "no C compiler found" in outcome.detail


class TestFailurePaths:
    def test_engine_exception_is_conservation_failure(self, good_sample,
                                                      monkeypatch):
        def explode(self):
            raise RuntimeError("injected engine fault")

        monkeypatch.setattr(oracles_mod.SimulationEngine, "run", explode)
        outcome = run_oracle("conservation", good_sample)
        assert outcome.status == "fail"
        assert "injected engine fault" in outcome.detail

    def test_stats_divergence_reported_by_field(self, good_sample):
        ctx = SampleContext(good_sample)
        stats = ctx.python_stats()
        ctx._python_stats = dataclasses.replace(stats,
                                                cycles=stats.cycles + 1)
        outcome = run_oracle("backend", good_sample, ctx)
        if outcome.status == "skip":
            pytest.skip(f"backend oracle unavailable: {outcome.detail}")
        assert outcome.status == "fail"
        assert "cycles" in outcome.detail


class TestSkipsAreCounted:
    """Satellite: skipped oracles must appear as counts in the report."""

    def test_report_counts_generation_skips(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALAR", "1")
        report = run_fuzz(5, samples=2,
                          oracles=("generation", "conservation"))
        assert report.outcomes["generation"]["skip"] == 2
        assert report.outcomes["generation"]["pass"] == 0
        (reason, count), = report.skip_reasons["generation"].items()
        assert "REPRO_TRACE_SCALAR" in reason and count == 2
        # The other oracle keeps running and passing.
        assert report.outcomes["conservation"]["pass"] == 2

    def test_report_counts_backend_fallback_skips(self, monkeypatch):
        monkeypatch.setattr(accel, "resolve_engine_backend",
                            lambda config=None: "python")
        monkeypatch.setattr(accel, "backend_fallback_reason",
                            lambda: "probe compile failed")
        report = run_fuzz(5, samples=2, oracles=("backend",))
        assert report.outcomes["backend"]["skip"] == 2
        reasons = report.skip_reasons["backend"]
        assert any("probe compile failed" in reason for reason in reasons)

    def test_summary_mentions_top_skip_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALAR", "1")
        report = run_fuzz(5, samples=2, oracles=("generation",))
        assert "REPRO_TRACE_SCALAR" in report.summary()


class TestOracleSelection:
    def test_default_selection(self):
        assert resolve_oracle_names(None) == DEFAULT_ORACLES
        assert set(DEFAULT_ORACLES) == set(ORACLES)

    def test_unknown_oracle_lists_known_sorted(self):
        with pytest.raises(ValueError) as err:
            resolve_oracle_names(("nope",))
        assert ", ".join(sorted(ORACLES)) in str(err.value)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="empty oracle selection"):
            resolve_oracle_names(())


class TestEphemeralScenario:
    def test_profile_resolvable_only_inside_block(self, good_sample):
        name = good_sample.scenario.name
        assert not has_workload(name)
        with ephemeral_scenario(good_sample.scenario):
            assert has_workload(name)
        assert not has_workload(name)

    def test_cleanup_survives_exceptions(self, good_sample):
        name = good_sample.scenario.name
        with pytest.raises(RuntimeError):
            with ephemeral_scenario(good_sample.scenario):
                raise RuntimeError("boom")
        assert not has_workload(name)
