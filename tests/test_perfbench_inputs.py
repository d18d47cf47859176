"""The benchmark writes its inputs with the package's own builders
(``MapBuilder`` makes the nested arrangements), and every invocation
fails when its inputs no longer match the recorded digest; so the seed-1
inputs of every workload must reproduce their recorded digests.  Reports
must stay byte-identical, so every seed-1 invocation must also reproduce
its recorded exit code and report digest."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from hyperbasis import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


def perfbench_module(name: str):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def gen():
    return perfbench_module("gen")


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_seed_inputs_match_recorded_digest(gen, workload, tmp_path):
    expected = EXPECTED[workload]
    manifest = gen.write_inputs(workload, expected["seed"], tmp_path)
    assert manifest["input_digest"] == expected["input_digest"]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_seed_reports_match_recorded_digest(gen, workload, tmp_path, monkeypatch, capsys):
    run = perfbench_module("run")
    expected = EXPECTED[workload]
    manifest = gen.write_inputs(workload, expected["seed"], tmp_path)
    monkeypatch.chdir(tmp_path)     # invocations name their inputs relative to it
    runner = run.Runner(tmp_path, expected["results"])
    runner.cli_main = cli.main
    runner.run_pass(manifest["batch"])
    capsys.readouterr()
    assert runner.attempted == len(expected["results"])
    assert runner.failures == []
