"""Record the outcomes of the commands the benchmark never runs.

    python3 tests/record_golden.py

Writes the inputs below into a temporary directory, runs each command
once in process through ``hyperbasis.cli.main`` and writes its exit
code, the sha256 of its stdout and its stderr to ``golden_reports.json``,
which ``test_golden_reports.py`` checks.  The same file pins one sha256
of the prune results of each seeded map family (region ids in traces and
messages follow the order of region merges) and the cover debug dumps
of a few fixed systems.  Rerun it only when a change is meant to alter
a report or a message, and say so in the change.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_reports.json"
PERFBENCH = HERE.parent / "perfbench"

COMMANDS = [
    ["bounds", "--genus", "2"],
    ["bounds", "--genus", "5", "--lambda", "0.5"],
    ["bounds", "--genus", "2", "--format", "csv"],
    ["bounds", "--genus", "5", "--lambda", "0.5", "--format", "csv"],
    ["simulate", "--genus", "2"],
    ["simulate", "--genus", "7"],
    ["simulate", "--model", "synthetic.json"],
    ["verify", "--map", "kept.json"],
    ["verify", "--map", "bones.json"],          # exit 1: separating
    ["bounds", "--genus", "1"],                 # exit 2: invalid input
    ["prune", "--map", "truncated.json"],       # exit 2: invalid input
    ["prune", "--map", "siblings.json"],        # exit 3: geometric assumption
]


def write_inputs(directory: Path) -> None:
    """The map and model files the commands name, relative to ``directory``."""
    from mapfactory import bones, sibling_loops

    from hyperbasis import families, prune

    blocks = families.block_family(4)
    maps = {
        "kept.json": blocks.without_arcs(set(prune.prune(blocks).deleted)),
        "bones.json": bones([(1, 2), (3, 4), (5, 6)], 6),
        "siblings.json": sibling_loops(8),
    }
    for name, smap in maps.items():
        (directory / name).write_text(smap.to_json())
    (directory / "truncated.json").write_text('{"vertices": [')
    dist = [[0.0 if a == b else 2.0 for b in range(6)] for a in range(6)]
    dist[1][2] = dist[2][1] = dist[4][5] = dist[5][4] = 0.4
    model = {"genus": 2, "distances": dist, "loop_radii": [0.5, 10.0, 10.0, 0.55, 10.0, 10.0]}
    (directory / "synthetic.json").write_text(json.dumps(model))


PRUNE_FAMILIES = ["random_growth_map", "nested_arrangement"]
COVER_DUMPS = ["hexagon_sub([1, 3])", "block_family(3)", "nested_arrangement(16)"]


def perfbench_gen():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(str(PERFBENCH))


def family_maps(family: str) -> list:
    """The seeded maps of one prune family."""
    from hyperbasis import families, spheremap

    if family == "random_growth_map":
        rng = random.Random(15)
        return [families.random_growth_map(rng, rng.randrange(4, 81, 2)) for _ in range(300)]
    gen = perfbench_gen()
    rng = random.Random(16)
    return [
        spheremap.from_json(gen.nested_arrangement(rng, rng.randrange(8, 129, 2))[0])
        for _ in range(150)
    ]


def prune_digest(maps) -> str:
    """sha256 over every map's kept, deleted, blocks and trace, or the
    type and message of the error its prune raised."""
    from hyperbasis import prune
    from hyperbasis.errors import HyperbasisError

    digest = hashlib.sha256()
    for smap in maps:
        try:
            r = prune.prune(smap)
            row = {"kept": r.kept, "deleted": r.deleted, "trace": r.trace,
                   "blocks": [dataclasses.asdict(b) for b in r.blocks]}
        except HyperbasisError as e:
            row = {"error": type(e).__name__, "message": str(e)}
        digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def cover_dump(name: str) -> str:
    """``to_debug_json()`` of one of the ``COVER_DUMPS`` covers."""
    from mapfactory import hexagon_sub

    from hyperbasis import cover, families, spheremap

    if name == "hexagon_sub([1, 3])":
        smap, sub = hexagon_sub([1, 3]), [1, 3]
    elif name == "block_family(3)":
        smap = families.block_family(3)
        sub = sorted(smap.arcs)
    else:
        rng = random.Random(17)
        smap = spheremap.from_json(perfbench_gen().nested_arrangement(rng, 16)[0])
        sub = families.random_subgraph(rng, smap)
    return cover.build_cover(smap, sub).to_debug_json()


def outcome(argv: list[str]) -> dict:
    """Exit code, stdout digest and stderr of one in-process command,
    run in the directory holding its inputs."""
    from hyperbasis import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


if __name__ == "__main__":
    import os
    import tempfile

    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        rows = [json.dumps(outcome(argv)) for argv in COMMANDS]
    prunes = {f: prune_digest(family_maps(f)) for f in PRUNE_FAMILIES}
    dumps = [f"{json.dumps(name)}: {cover_dump(name)}" for name in COVER_DUMPS]
    GOLDEN.write_text(
        '{\n"commands": [\n' + ",\n".join(rows) + "\n],\n"
        f'"prune_families": {json.dumps(prunes, indent=1)},\n'
        '"cover_dumps": {\n' + ",\n".join(dumps) + "\n}\n}\n"
    )
