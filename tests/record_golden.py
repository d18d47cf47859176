"""Record the outcomes of the commands the benchmark never runs.

    python3 tests/record_golden.py

Writes the inputs below into a temporary directory, runs each command
once in process through ``hyperbasis.cli.main`` and writes its exit
code, the sha256 of its stdout and its stderr to ``golden_reports.json``,
which ``test_golden_reports.py`` checks.  Rerun it only when a change is
meant to alter a report or a message, and say so in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_reports.json"

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
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
