"""Reports must stay byte-identical across changes, and the benchmark
only pins what it runs (``pipeline``, ``prune --map`` and ``verify
--subset``); so every other command, and one input per documented
non-zero exit, must reproduce the exit code, stdout digest and stderr
recorded in ``golden_reports.json`` by ``record_golden.py``."""

import json

import pytest
from record_golden import COMMANDS, GOLDEN, outcome, write_inputs

EXPECTED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_golden_file_lists_every_command():
    assert [e["argv"] for e in EXPECTED] == COMMANDS
    assert {e["exit"] for e in EXPECTED} == {0, 1, 2, 3}


@pytest.mark.parametrize("expected", EXPECTED, ids=lambda e: " ".join(e["argv"]))
def test_report_matches_golden(expected, inputs, monkeypatch):
    monkeypatch.chdir(inputs)       # commands name their inputs relative to it
    assert outcome(expected["argv"]) == expected
