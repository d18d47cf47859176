"""The benchmark writes its inputs with the package's own builders
(``MapBuilder`` makes the nested arrangements), and every invocation
fails when its inputs no longer match the recorded digest; so the seed-1
inputs of every workload must reproduce their recorded digests."""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.fixture(scope="module")
def gen():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_seed_inputs_match_recorded_digest(gen, workload, tmp_path):
    expected = EXPECTED[workload]
    manifest = gen.write_inputs(workload, expected["seed"], tmp_path)
    assert manifest["input_digest"] == expected["input_digest"]
