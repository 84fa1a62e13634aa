"""Framework behaviour: suppressions, baseline, JSON report, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.checks.base import (BASELINE_NAME, CHECKERS, Baseline, Project,
                               run_checks)
from repro.checks.cli import main as lint_main

from lint_helpers import make_project

#: A determinism violation used as the standard "one finding" fixture.
DIRTY = "src/repro/engine/dirty.py"
DIRTY_TEXT = "import random\n\nvalue = random.random()\n"


def test_all_four_rules_registered():
    assert set(CHECKERS) == {"determinism", "cache-key", "async-blocking",
                             "except-swallow"}
    for checker in CHECKERS.values():
        assert checker.description


def test_finding_fingerprint_ignores_line_numbers(tmp_path):
    project = make_project(tmp_path, {DIRTY: DIRTY_TEXT})
    first = run_checks(project, rules=["determinism"]).findings

    shifted = make_project(tmp_path / "other",
                           {DIRTY: "# a new comment line\n" + DIRTY_TEXT})
    second = run_checks(shifted, rules=["determinism"]).findings
    assert [f.fingerprint for f in first] == [f.fingerprint for f in second]
    assert first[0].line != second[0].line


def test_line_suppression_with_reason(tmp_path):
    text = ("import random\n\n"
            "value = random.random()  "
            "# repro-lint: disable=determinism -- fixture needs raw entropy\n")
    project = make_project(tmp_path, {DIRTY: text})
    result = run_checks(project, rules=["determinism"])
    assert result.clean
    assert [(f.rule, reason) for f, reason in result.suppressed] == \
        [("determinism", "fixture needs raw entropy")]


def test_file_suppression_covers_whole_file(tmp_path):
    text = ("# repro-lint: disable=determinism -- benchmark helper, "
            "not simulation\n"
            "import random\n\n"
            "a = random.random()\n"
            "b = random.random()\n")
    project = make_project(tmp_path, {DIRTY: text})
    result = run_checks(project, rules=["determinism"])
    assert result.clean
    assert len(result.suppressed) == 2


def test_suppression_without_reason_is_reported_and_ignored(tmp_path):
    text = ("import random\n\n"
            "value = random.random()  # repro-lint: disable=determinism\n")
    project = make_project(tmp_path, {DIRTY: text})
    result = run_checks(project, rules=["determinism"])
    rules = sorted(f.rule for f in result.findings)
    assert rules == ["bad-suppression", "determinism"]


def test_suppression_of_unknown_rule_is_reported(tmp_path):
    text = "# repro-lint: disable=made-up-rule -- because\n"
    project = make_project(tmp_path, {"src/repro/clean.py": text})
    result = run_checks(project, rules=["determinism"])
    assert [f.rule for f in result.findings] == ["bad-suppression"]
    assert "made-up-rule" in result.findings[0].message


def test_bad_suppression_found_in_files_without_findings(tmp_path):
    """A malformed suppression must surface even in an otherwise clean
    file — otherwise it hides until the rule it disables first fires."""
    project = make_project(tmp_path, {
        "src/repro/quiet.py": "# repro-lint: disable=determinism\nx = 1\n"})
    result = run_checks(project, rules=["cache-key"])
    assert any(f.rule == "bad-suppression" for f in result.findings)


def test_baseline_matches_and_reports_stale(tmp_path):
    project = make_project(tmp_path, {DIRTY: DIRTY_TEXT})
    first = run_checks(project, rules=["determinism"])
    assert not first.clean

    baseline = Baseline.from_findings(first.findings,
                                      justifications={
                                          first.findings[0].fingerprint:
                                          "grandfathered fixture"})
    second = run_checks(project, rules=["determinism"], baseline=baseline)
    assert second.clean
    assert len(second.baselined) == 1
    assert second.stale_baseline == []

    # Fix the finding: its baseline entry must be flagged as stale.
    (tmp_path / DIRTY).write_text("value = 4\n", encoding="utf-8")
    third = run_checks(Project(tmp_path), rules=["determinism"],
                       baseline=baseline)
    assert third.clean
    assert len(third.stale_baseline) == 1


def test_baseline_round_trips_through_disk(tmp_path):
    project = make_project(tmp_path, {DIRTY: DIRTY_TEXT})
    findings = run_checks(project, rules=["determinism"]).findings
    path = tmp_path / BASELINE_NAME
    Baseline.from_findings(findings).dump(path)
    loaded = Baseline.load(path)
    assert set(loaded.entries) == {f.fingerprint for f in findings}
    assert json.loads(path.read_text())["version"] == 1


def test_baseline_load_rejects_garbage(tmp_path):
    path = tmp_path / BASELINE_NAME
    path.write_text("not json at all", encoding="utf-8")
    with pytest.raises(ValueError):
        Baseline.load(path)
    path.write_text(json.dumps({"version": 99, "entries": []}),
                    encoding="utf-8")
    with pytest.raises(ValueError):
        Baseline.load(path)


def test_missing_baseline_is_empty(tmp_path):
    assert Baseline.load(tmp_path / "nope.json").entries == {}


def test_unknown_rule_raises(tmp_path):
    project = make_project(tmp_path, {})
    with pytest.raises(ValueError, match="unknown rule"):
        run_checks(project, rules=["not-a-rule"])


def test_result_json_shape(tmp_path):
    project = make_project(tmp_path, {DIRTY: DIRTY_TEXT})
    payload = run_checks(project, rules=["determinism"]).to_dict()
    assert payload["version"] == 1
    assert payload["clean"] is False
    assert payload["rules"] == ["determinism"]
    finding = payload["findings"][0]
    assert set(finding) == {"rule", "path", "line", "message", "fingerprint"}
    assert finding["path"] == DIRTY


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    make_project(tmp_path, {DIRTY: DIRTY_TEXT})
    assert lint_main(["--root", str(tmp_path)]) == 1
    assert "determinism" in capsys.readouterr().out

    clean_root = tmp_path / "clean"
    make_project(clean_root, {"src/repro/ok.py": "x = 1\n"})
    assert lint_main(["--root", str(clean_root),
                      "--rules", "determinism,except-swallow"]) == 0

    assert lint_main(["--root", str(tmp_path), "--rules", "bogus"]) == 2
    assert lint_main(["--root", str(tmp_path / "no-such-dir")]) == 2


def test_cli_json_output_and_artifact(tmp_path, capsys):
    make_project(tmp_path, {DIRTY: DIRTY_TEXT})
    artifact = tmp_path / "out" / "report.json"
    code = lint_main(["--root", str(tmp_path), "--format", "json",
                      "--output", str(artifact), "--rules", "determinism"])
    assert code == 1
    on_stdout = json.loads(capsys.readouterr().out)
    on_disk = json.loads(artifact.read_text())
    assert on_stdout == on_disk
    assert on_disk["findings"][0]["rule"] == "determinism"


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    make_project(tmp_path, {DIRTY: DIRTY_TEXT})
    assert lint_main(["--root", str(tmp_path), "--rules", "determinism",
                      "--write-baseline"]) == 0
    capsys.readouterr()
    assert lint_main(["--root", str(tmp_path),
                      "--rules", "determinism"]) == 0
    assert "baselined" in capsys.readouterr().out
    entries = json.loads((tmp_path / BASELINE_NAME).read_text())["entries"]
    assert len(entries) == 1
    assert entries[0]["justification"]  # never written empty


def test_cli_stale_baseline_fails_run(tmp_path, capsys):
    make_project(tmp_path, {DIRTY: DIRTY_TEXT})
    assert lint_main(["--root", str(tmp_path), "--rules", "determinism",
                      "--write-baseline"]) == 0
    (tmp_path / DIRTY).write_text("x = 1\n", encoding="utf-8")
    capsys.readouterr()
    assert lint_main(["--root", str(tmp_path),
                      "--rules", "determinism"]) == 1
    assert "stale" in capsys.readouterr().out


def test_cli_no_baseline_reports_everything(tmp_path):
    make_project(tmp_path, {DIRTY: DIRTY_TEXT})
    assert lint_main(["--root", str(tmp_path), "--rules", "determinism",
                      "--write-baseline"]) == 0
    assert lint_main(["--root", str(tmp_path), "--rules", "determinism",
                      "--no-baseline"]) == 1


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in CHECKERS:
        assert rule in out
