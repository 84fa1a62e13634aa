"""Fuzz loop determinism, report shape, and the CLI surface."""

import json

import pytest

import repro.fuzz.oracles as oracles_mod
from repro.experiments.runner import main as experiments_main
from repro.experiments.scenarios import resolve_scenario_names
from repro.fuzz.cli import fuzz_main
from repro.fuzz.oracles import OracleOutcome
from repro.fuzz.runner import run_fuzz
from repro.trace.workloads import scenario_workloads


class TestRunFuzz:
    def test_two_runs_are_identical(self):
        kwargs = dict(samples=3, oracles=("generation", "conservation"))
        first = run_fuzz(77, **kwargs).to_dict()
        second = run_fuzz(77, **kwargs).to_dict()
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert first == second

    def test_budget_stop_is_a_prefix(self):
        # A budget-stopped run visits a prefix of the same sample
        # sequence; with a generous budget the outcomes match a
        # samples-stopped run point for point.
        by_samples = run_fuzz(77, samples=2, oracles=("generation",))
        by_both = run_fuzz(77, samples=2, budget_seconds=600,
                           oracles=("generation",))
        assert by_samples.outcomes == by_both.outcomes
        assert by_samples.stopped_by == "samples"

    def test_budget_stops_the_run(self):
        report = run_fuzz(77, budget_seconds=0.001,
                          oracles=("conservation",))
        assert report.stopped_by == "budget"

    def test_needs_a_limit(self):
        with pytest.raises(ValueError, match="sample count, a time budget"):
            run_fuzz(77)

    def test_report_dict_shape(self):
        report = run_fuzz(77, samples=1, oracles=("conservation",))
        data = report.to_dict()
        assert data["master_seed"] == 77
        assert data["samples_run"] == 1
        assert data["oracles"] == ["conservation"]
        assert data["outcomes"]["conservation"]["pass"] == 1
        assert data["failures"] == []

    def test_failure_carries_corpus_entry_and_repro(self, monkeypatch):
        def always_fail(sample, ctx):
            return OracleOutcome("fail", "synthetic failure")

        monkeypatch.setitem(oracles_mod.ORACLES, "conservation",
                            always_fail)
        report = run_fuzz(77, samples=1, oracles=("conservation",),
                          shrink_budget=10)
        assert report.failed
        failure = report.failures[0]
        entry = failure.corpus_entry()
        assert entry["scenario"]["name"] == failure.shrunk.scenario.name
        assert "repro-experiments fuzz --replay" in \
            failure.repro_command("x.json")
        # The always-failing predicate lets the shrinker reach floors.
        assert failure.shrunk.trace_length <= failure.sample.trace_length


class TestCli:
    def test_sampling_run_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = fuzz_main(["--seed", "77", "--samples", "2",
                          "--oracles", "conservation",
                          "--report", str(report_path)])
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["samples_run"] == 2
        assert data["failures"] == []
        assert "conservation" in capsys.readouterr().out

    def test_dispatched_from_experiments_runner(self, capsys):
        code = experiments_main(["fuzz", "--seed", "77", "--samples", "1",
                                 "--oracles", "conservation"])
        assert code == 0
        assert "fuzz: seed=77" in capsys.readouterr().out

    def test_replay_corpus_directory(self, capsys):
        from tests.fuzz.test_corpus_replay import CORPUS_DIR
        code = fuzz_main(["--replay", str(CORPUS_DIR)])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "0 oracle failures" in out

    def test_replay_excludes_sampling_flags(self, capsys):
        with pytest.raises(SystemExit):
            fuzz_main(["--replay", "x.json", "--samples", "5"])

    def test_needs_some_limit(self):
        with pytest.raises(SystemExit):
            fuzz_main(["--seed", "1"])

    def test_unknown_oracle_lists_known(self, capsys):
        with pytest.raises(SystemExit):
            fuzz_main(["--samples", "1", "--oracles", "quantum"])
        err = capsys.readouterr().err
        assert "unknown oracles: quantum" in err
        assert "backend, conservation, generation" in err

    def test_failures_exit_nonzero_and_write_entries(self, tmp_path,
                                                     monkeypatch, capsys):
        def always_fail(sample, ctx):
            return OracleOutcome("fail", "synthetic failure")

        monkeypatch.setitem(oracles_mod.ORACLES, "conservation",
                            always_fail)
        failure_dir = tmp_path / "failures"
        report_path = tmp_path / "report.json"
        code = fuzz_main(["--seed", "77", "--samples", "1",
                          "--oracles", "conservation",
                          "--no-shrink",
                          "--failure-dir", str(failure_dir),
                          "--report", str(report_path)])
        assert code == 1
        entries = list(failure_dir.glob("*.json"))
        assert len(entries) == 1
        entry = json.loads(entries[0].read_text())
        assert entry["oracles"] == ["conservation"]
        data = json.loads(report_path.read_text())
        assert data["failures"][0]["entry_path"] == str(entries[0])
        assert str(entries[0]) in data["failures"][0]["repro_command"]
        out = capsys.readouterr().out
        assert "corpus entry written" in out
        assert "repro: repro-experiments fuzz --replay" in out


class TestDirectedMode:
    def test_directed_run_uses_registered_scenarios(self, capsys):
        code = fuzz_main(["--seed", "77", "--samples", "2",
                          "--oracles", "conservation",
                          "--scenarios", "pointer_hop"])
        assert code == 0
        assert "directed mode" in capsys.readouterr().out

    def test_unknown_scenario_error_lists_known_sorted(self, capsys):
        """Satellite fix: the fuzz CLI shares resolve_scenario_names with
        the grid experiments, so its unknown-name error pins the same
        sorted known-scenario list."""
        with pytest.raises(SystemExit):
            fuzz_main(["--samples", "1", "--scenarios", "zz_nope"])
        err = capsys.readouterr().err
        assert "unknown scenarios: zz_nope" in err
        assert ", ".join(sorted(scenario_workloads())) in err


class TestResolveScenarioNamesSorted:
    """The shared validation path lists known scenarios in sorted order."""

    def test_unknown_name_error_is_sorted(self):
        with pytest.raises(ValueError) as err:
            resolve_scenario_names(["zz_nope"])
        message = str(err.value)
        assert f"known scenarios: {', '.join(sorted(scenario_workloads()))}" \
            in message

    def test_empty_selection_error_is_sorted(self):
        with pytest.raises(ValueError) as err:
            resolve_scenario_names([])
        assert ", ".join(sorted(scenario_workloads())) in str(err.value)

    def test_selection_returned_in_grid_order(self):
        known = scenario_workloads()
        assert resolve_scenario_names(list(reversed(known))) == known
