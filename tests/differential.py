"""Differential harness for the map and model commands: this tree
against another.

Seeded inputs go through ``prune --map``, ``verify --map --subset``,
``simulate --model`` and ``pipeline --model``, and the regular model of
each genus 2..40 through ``simulate --genus``, ``pipeline --genus`` and
``pipeline --genus --lambda 0.5``, in both trees.  The script prints,
per command, each tree's exit-code histogram and every input whose exit
code, stdout digest or stderr differs.  It exits 1 when any input
differs.

    python tests/differential.py --against ../other-checkout [--small]

The maps are ``families.block_family(2..39)``, ``random_growth_map`` with
6..60 cone points and ``perfbench/gen.nested_arrangement`` with 8..128,
each with random arc subsets and with one to three random JSON edits (the
replace, delete and repeat edits of ``test_cli.mutated``).  The models
are the synthetic models that replay the nested arrangements, each also
with one to three such edits, and once with one distance pair or loop
radius changed to another positive number (``edited``), so that growth
runs on a changed table.  ``--small`` takes a few of each, and genus
2..6.  The inputs are written once, by this tree's generators, into a
temporary directory; each tree then runs all of them in one child
process with its own ``src`` first on the path.  Standard library
only.  In stderr the tree's own path reads ``<tree>``, the stage
timings a ``pipeline`` writes read ``#s``, and a traceback is compared
by its last line, since line numbers move with any edit.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import importlib
import io
import json
import math
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

COMMANDS = ("prune", "verify", "simulate", "pipeline")
SEED = 1


# -- inputs ----------------------------------------------------------------


def json_value(rng: random.Random, leaves: int = 4):
    """A small JSON value like ``test_cli.JSON_VALUES``: a scalar, or a list
    or dict of them nested at most a few levels deep."""
    kind = rng.randrange(8) if leaves > 1 else rng.randrange(6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-3, 40)
    if kind == 3:
        return rng.choice([rng.uniform(0, 5), math.nan])
    if kind in (4, 5):
        return rng.choice(["", "1", "false", "loop"])
    size = rng.randint(0, min(3, leaves - 1))
    if kind == 6:
        return [json_value(rng, leaves // 2) for _ in range(size)]
    keys = rng.sample(["id", "kind", "i", "faces"], min(size, 2))
    return {k: json_value(rng, leaves // 2) for k in keys}


def json_paths(doc, prefix=()):
    """Every (container path, key) of a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def mutated(rng: random.Random, doc):
    """``doc`` with one to three entries replaced, deleted or repeated."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths = list(json_paths(doc))
        if not paths:
            break
        *head, key = rng.choice(paths)
        parent = doc
        for k in head:
            parent = parent[k]
        action = rng.choice(["replace", "delete", "repeat"])
        if action == "delete":
            del parent[key]
        elif action == "repeat" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = json_value(rng)
    return doc


def edited(rng: random.Random, model: dict) -> dict:
    """``model`` with one symmetric distance pair or one loop radius set to
    another positive number: a different value of the same table, as it is
    (so ties arise) or scaled by 0.5..1.5.  The model checks still pass, so
    growth runs on the changed table."""
    model = copy.deepcopy(model)
    dist, radii = model["distances"], model["loop_radii"]
    pair = rng.random() < 0.5
    if pair:
        a, b = rng.sample(range(len(radii)), 2)
        old, values = dist[a][b], {d for row in dist for d in row if d > 0}
    else:
        a = rng.randrange(len(radii))
        old, values = radii[a], set(radii)
    new = rng.choice(sorted(values - {old}) or [old]) * rng.choice([1.0, rng.uniform(0.5, 1.5)])
    if pair:
        dist[a][b] = dist[b][a] = new
    else:
        radii[a] = new
    return model


def generators():
    """This tree's ``families``, ``mapfactory`` and ``perfbench/gen``."""
    saved = list(sys.path)
    sys.path[:0] = [str(ROOT / "src"), str(TESTS), str(ROOT / "perfbench")]
    try:
        return [importlib.import_module(name) for name in ("hyperbasis.families", "mapfactory", "gen")]
    finally:
        sys.path[:] = saved


def seeded_maps(small: bool):
    """(label, map dict, model dict) of every input map; the model is the
    synthetic one that replays the map, or None."""
    families, mapfactory, gen = generators()
    rng = random.Random(SEED)
    for n in range(2, 6 if small else 40):
        yield f"blocks-{n}", families.block_family(n).to_dict(), None
    for n in range(6, 13 if small else 61, 2):
        yield f"growth-{n}", mapfactory.random_growth_map(rng, n).to_dict(), None
    for n in range(8, 17 if small else 129, 4 if small else 2):
        yield f"nested-{n}", *gen.nested_arrangement(rng, n)


def write_jobs(workdir: Path, small: bool) -> list[tuple[str, str, list[str]]]:
    """Write the input files; return (command, label, argv) of every run."""
    rng = random.Random(SEED + 1)
    model_rng = random.Random(SEED + 2)
    edit_rng = random.Random(SEED + 3)
    per_map = 1 if small else 2
    jobs = []
    for label, doc, model in seeded_maps(small):
        docs = [(label, doc)] + [
            (f"{label}-mutated-{k}", mutated(rng, doc)) for k in range(per_map)
        ]
        arc_ids = sorted(a["id"] for a in doc["arcs"])
        for name, body in docs:
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(body), encoding="utf-8")
            jobs.append(("prune", name, ["prune", "--map", str(path)]))
            for k in range(per_map):
                subset = [a for a in arc_ids if rng.random() < 0.6] or arc_ids[:1]
                jobs.append((
                    "verify", f"{name}-subset-{k}",
                    ["verify", "--map", str(path), "--subset", ",".join(map(str, subset))],
                ))
        if model is None:
            continue
        for name, body in ((f"{label}-model", model),
                           (f"{label}-model-mutated", mutated(model_rng, model)),
                           (f"{label}-model-edited", edited(edit_rng, model))):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(body), encoding="utf-8")
            jobs += [(command, name, [command, "--model", str(path)])
                     for command in ("simulate", "pipeline")]
    for g in range(2, 7 if small else 41):
        genus = ["--genus", str(g)]
        jobs += [("simulate", f"regular-{g}", ["simulate", *genus]),
                 ("pipeline", f"regular-{g}", ["pipeline", *genus]),
                 ("pipeline", f"regular-{g}-lambda", ["pipeline", *genus, "--lambda", "0.5"])]
    return jobs


# -- one tree ------------------------------------------------------------


def normalized(err: str, tree: str, command: str) -> str:
    err = err.replace(tree, "<tree>")
    if command == "pipeline":
        err = re.sub(r"\d+\.\d{3}s\b", "#s", err)
    head, sep, trace = err.partition("Traceback (most recent call last):")
    if sep:
        err = head + sep + " ... " + trace.rstrip("\n").rsplit("\n", 1)[-1] + "\n"
    return err


def worker(tree: Path, jobs_path: Path) -> None:
    """Run every job through this tree's ``cli.main``; print one JSON row
    (exit code, stdout SHA-256, stderr) per job."""
    sys.path.insert(0, str(tree / "src"))
    cli = importlib.import_module("hyperbasis.cli")
    rows = []
    for _command, _label, argv in json.loads(jobs_path.read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        rows.append([code, digest, normalized(err.getvalue(), str(tree), argv[0])])
    sys.stdout.write(json.dumps(rows))


def run_tree(tree: Path, jobs_path: Path) -> list[list]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), str(jobs_path)],
        capture_output=True, encoding="utf-8", check=True,
    )
    return json.loads(proc.stdout)


# -- comparison ------------------------------------------------------------


def compare(jobs, here, there) -> tuple[list[str], int]:
    """Report lines (per command, the histograms and every difference) and
    the number of inputs that differ."""
    lines, differing = [], 0
    for command in COMMANDS:
        picked = [i for i, job in enumerate(jobs) if job[0] == command]
        for name, rows in (("here", here), ("against", there)):
            hist = Counter(rows[i][0] for i in picked)
            lines.append(f"{command} {name}: " + ", ".join(
                f"exit {code}: {hist[code]}" for code in sorted(hist)
            ))
        for i in picked:
            if here[i] != there[i]:
                differing += 1
                fields = [f for f, a, b in zip(("exit", "stdout", "stderr"), here[i], there[i]) if a != b]
                lines.append(f"DIFFERS {jobs[i][1]} ({command}): {', '.join(fields)}")
                lines.append(f"  here:    {here[i][0]} {here[i][2]!r}")
                lines.append(f"  against: {there[i][0]} {there[i][2]!r}")
    lines.append(f"{len(jobs)} inputs, {differing} differ")
    return lines, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="root of the other checkout")
    parser.add_argument("--small", action="store_true", help="a few inputs of each family")
    parser.add_argument("--worker", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(*args.worker)
        return 0
    if args.against is None:
        parser.error("--against is required")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        jobs = write_jobs(workdir, args.small)
        jobs_path = workdir / "jobs.json"
        jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
        here = run_tree(ROOT, jobs_path)
        there = run_tree(args.against.resolve(), jobs_path)
    lines, differing = compare(jobs, here, there)
    print("\n".join(lines))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
