"""The benchmark's per-layer tracer wraps package functions by name; a
name that no longer resolves is skipped there and its layer metric
silently reads zero, so every target must resolve here.  Its size hooks
read fields of the returned objects; a field that disappears only logs a
hook error, so the hooks must run cleanly and count something here."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_tracing_target_resolves(tracing):
    package, entries = tracing.PACKAGE, tracing.TARGETS
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


def test_tracing_hooks_read_every_size(tracing, tmp_path, capsys):
    from hyperbasis import cli, families
    from mapfactory import map_json

    path = tmp_path / "blocks.json"
    path.write_text(map_json(families.block_family(3)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["pipeline", "--genus", "2"]) == 0
        assert cli.main(["prune", "--map", str(path)]) == 0
        assert cli.main(["verify", "--map", str(path), "--subset", "1,3,5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert not tracer.missing
    assert not tracer.hook_errors
    for key in (
        "spheremap.region_levels_max",
        "spheremap.faces",
        "cover.scaffold_edges",
        "prune.trace_steps",
        "growth.events",
    ):
        assert tracer.counters.get(key, 0) > 0, key
