"""The committed corpus replays green, and the entry format is checked.

Every file under ``tests/fuzz/corpus/`` is a shrunk trigger of a bug that
was found by the fuzzer and then fixed; replaying them through their
pinned oracles on every test run keeps those regressions dead.  The
backend oracle may skip (no C toolchain); any other non-pass is a
failure.
"""

import json
from pathlib import Path

import pytest

from repro.fuzz.corpus import (CORPUS_FORMAT, entry_from_dict, load_corpus,
                               load_corpus_file, sample_to_entry_dict)
from repro.fuzz.runner import replay_corpus
from repro.fuzz.sampling import sample

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_not_empty():
    assert CORPUS_FILES, f"no committed corpus entries under {CORPUS_DIR}"


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[path.stem for path in CORPUS_FILES])
def test_corpus_entry_replays_green(path):
    entry = load_corpus_file(path)
    assert entry.comment, f"{path}: corpus entries must say what they pin"
    result = replay_corpus([entry])[0]
    for oracle, status in result.statuses.items():
        if status == "skip":
            assert oracle == "backend", (
                f"{path}: {oracle} skipped ({result.details[oracle]}) — "
                f"only the backend oracle may skip on replay")
            continue
        assert status == "pass", (
            f"{path}: pinned regression is back — {oracle}: "
            f"{result.details[oracle]}")


def test_load_corpus_directory():
    entries = load_corpus(CORPUS_DIR)
    assert len(entries) == len(CORPUS_FILES)
    names = [entry.sample.scenario.name for entry in entries]
    assert len(set(names)) == len(names)


class TestEntryFormat:
    def entry(self):
        return sample_to_entry_dict(sample(1, 0), ("conservation",),
                                    comment="format test")

    def test_round_trip(self):
        original = sample(1, 0)
        data = json.loads(json.dumps(self.entry()))
        assert entry_from_dict(data).sample == original

    def test_wrong_format_version(self):
        data = self.entry()
        data["format"] = CORPUS_FORMAT + 1
        with pytest.raises(ValueError, match="unsupported corpus format"):
            entry_from_dict(data, source="x.json")

    def test_unknown_keys_named(self):
        data = self.entry()
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown corpus keys.*extra"):
            entry_from_dict(data)

    def test_missing_scenario_named(self):
        data = self.entry()
        del data["scenario"]
        with pytest.raises(ValueError, match="missing required key "
                                             "'scenario'"):
            entry_from_dict(data)

    def test_bad_trace_length(self):
        data = self.entry()
        data["trace_length"] = -5
        with pytest.raises(ValueError, match="trace_length"):
            entry_from_dict(data)

    def test_unknown_oracle_rejected(self):
        data = self.entry()
        data["oracles"] = ["conservation", "nope"]
        with pytest.raises(ValueError, match="unknown oracles: nope"):
            entry_from_dict(data)

    def test_retired_clocks_oracle_names_file_and_known_oracles(
            self, tmp_path):
        # The retired ``clocks`` oracle compared two stepping modes of
        # the Python engine; an entry still naming it must fail loudly.
        data = self.entry()
        data["oracles"] = ["conservation", "clocks"]
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as err:
            load_corpus_file(path)
        message = str(err.value)
        assert str(path) in message
        assert "unknown oracles: clocks" in message
        assert "known oracles: backend, conservation, generation" in message

    def test_unknown_config_field_rejected(self):
        data = self.entry()
        data["config"]["not_a_field"] = 3
        with pytest.raises(ValueError, match="unknown config fields"):
            entry_from_dict(data)

    def test_scenario_errors_name_the_field(self):
        # Malformed scenario blocks go through parse_scenario_config, so
        # its field-naming errors surface with the entry as the source.
        data = self.entry()
        data["scenario"]["phases"][0]["kernel"] = "warp_drive"
        with pytest.raises(ValueError, match="unknown kernel 'warp_drive'"):
            entry_from_dict(data, source="bad.json")

    def test_invalid_json_file_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="broken.json.*not valid JSON"):
            load_corpus_file(path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no \\*.json corpus entries"):
            load_corpus(tmp_path)
