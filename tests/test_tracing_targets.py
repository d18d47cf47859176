"""The benchmark's per-layer tracer wraps package functions by name; a
name that no longer resolves is skipped there and its layer metric
silently reads zero, so every target must resolve here."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing.PACKAGE, tracing.TARGETS


def test_every_tracing_target_resolves(targets):
    package, entries = targets
    assert entries
    for mod_name, path, _group in entries:
        owner = importlib.import_module(f"{package}.{mod_name}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        assert callable(owner), f"{mod_name}.{path} does not resolve"


def test_prune_imports_classify_arcs():
    """The benchmark self-test checks that the tracer wraps this alias."""
    prune = importlib.import_module("hyperbasis.prune")
    spheremap = importlib.import_module("hyperbasis.spheremap")
    assert prune.classify_arcs is spheremap.classify_arcs
