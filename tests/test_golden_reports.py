"""Reports must stay byte-identical across changes, and the benchmark
only pins what it runs (``pipeline``, ``prune --map`` and ``verify
--subset``); so every other command, and one input per documented
non-zero exit, must reproduce the exit code, stdout digest and stderr
recorded in ``golden_reports.json`` by ``record_golden.py``.  So must
the prune results of two seeded map families, where region numbering
can move, and the debug dumps of three covers."""

import json

import pytest
from record_golden import (
    COMMANDS,
    COVER_DUMPS,
    GOLDEN,
    PRUNE_FAMILIES,
    cover_dump,
    family_maps,
    outcome,
    prune_digest,
    write_inputs,
)

EXPECTED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_golden_file_lists_every_command():
    assert [e["argv"] for e in EXPECTED["commands"]] == COMMANDS
    assert {e["exit"] for e in EXPECTED["commands"]} == {0, 1, 2, 3}
    assert list(EXPECTED["prune_families"]) == PRUNE_FAMILIES
    assert sorted(EXPECTED["cover_dumps"]) == sorted(COVER_DUMPS)


@pytest.mark.parametrize("expected", EXPECTED["commands"], ids=lambda e: " ".join(e["argv"]))
def test_report_matches_golden(expected, inputs, monkeypatch):
    monkeypatch.chdir(inputs)       # commands name their inputs relative to it
    assert outcome(expected["argv"]) == expected


@pytest.mark.parametrize("family", PRUNE_FAMILIES)
def test_prune_family_matches_golden(family):
    assert prune_digest(family_maps(family)) == EXPECTED["prune_families"][family]


@pytest.mark.parametrize("name", COVER_DUMPS)
def test_cover_dump_matches_golden(name):
    assert cover_dump(name) == json.dumps(EXPECTED["cover_dumps"][name], sort_keys=True)
