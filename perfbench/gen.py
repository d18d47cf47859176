"""Seeded input generators for the three benchmark workloads.

Every input is made here from the workload seed; the package only ever
receives the files written from these descriptions.  A batch is a list
of invocations, each a dict with the CLI ``argv`` (input files named
relative to the input directory, the working directory of the run),
the invocation ``kind`` and the input files it reads.  ``files`` maps
a file name to its bytes.

Every batch holds at least 101 invocations, so that the p90 over the
batch has ten invocations beyond it.  Where an invocation appears more
than once in a batch, the copies are the same input.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

WORKLOADS = ("regular-ladder", "block-prune", "nested-mix")

# -- regular-ladder ---------------------------------------------------

# (genus, invocations): the count falls as the cost rises (about the cube
# of the genus), so most rungs add comparable time to a pass.  Genus 9
# holds the median slot and genus 17 the p90 slot; both have several
# copies, so their best times rest on many executions.  The genera are
# fixed: one genus step moves a pipeline's time by 15-20%, so a seeded
# genus at those slots would move the figures between seeds.
REGULAR_LADDER = (
    (6, 17), (7, 14), (8, 12), (9, 10), (10, 9), (11, 7), (12, 5), (13, 4),
    (14, 3), (15, 2), (16, 2), (17, 6), (18, 2), (19, 1), (20, 1), (21, 1),
    (22, 1), (23, 1), (24, 1), (25, 1), (26, 1),
)


def regular_ladder(rng: random.Random, ladder=REGULAR_LADDER) -> tuple[list[dict], dict]:
    """Pipelines on the regular doubled-polygon model; the seed picks
    which genera carry ``--lambda 0.5`` and the order."""
    batch = []
    for g, count in ladder:
        argv = ["pipeline", "--model", "regular", "--genus", str(g)]
        if rng.random() < 0.5:
            argv += ["--lambda", "0.5"]
        batch += [{"kind": "pipeline", "argv": argv, "inputs": []}] * count
    rng.shuffle(batch)
    return batch, {}


def _stratified(rng: random.Random, lo: int, hi: int, count: int, step: int = 1) -> list[int]:
    """One size per equal-width stratum of [lo, hi), drawn uniformly
    inside it and rounded down to a multiple of ``step``."""
    width = (hi - lo) / count
    return [int(lo + (k + rng.random()) * width) // step * step for k in range(count)]


# -- block-prune ------------------------------------------------------

# 40 block counts spaced evenly on a log scale over [30, 120].  They are
# fixed: prune's time jumps by up to 1.5x between neighbouring counts
# (41 blocks against 40), so seeded counts would move the median slot
# between seeds.  Prune cost grows about as blocks**1.86, so a count n is
# invoked about 6 * (30 / n)**1.86 times, at least once, and every count
# adds comparable time to a pass.  43 blocks hold the median slot and 90
# the p90 slot; their extra copies keep each slot inside one input even
# where the time is not monotone in the block count.
BLOCK_SIZES = tuple(round(30 * 4 ** (k / 39)) for k in range(40))
BLOCK_COPIES = {n: max(1, round(6 * (30 / n) ** 1.86)) for n in BLOCK_SIZES} | {43: 14, 90: 6}


def block_map(n: int) -> dict:
    """Rotation-system JSON of n loop-surrounded bones side by side.

    Block k holds a bone (darts 4k, 4k+1) between vertices 3k+2 and 3k+3
    inside a loop (darts 4k+2, 4k+3) at vertex 3k+1; the loop's outer
    monogon lies in the common outer region, its inner monogon and the
    bone's face in a region of their own.  Odd n adds one bare cone
    vertex outside.  Ids follow block order: prune's time at one size
    varies up to 1.8x with the labelling, which would make the median
    slot's time depend on the seed.
    """
    vertices, arcs = [], []
    outer = {"faces": [], "isolated": []}
    inner = []
    for k in range(n):
        base, u, w = 3 * k + 1, 3 * k + 2, 3 * k + 3
        p, q, lp, lq = 4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3
        vertices += [
            {"id": base, "cone": True, "rotation": [lp, lq]},
            {"id": u, "cone": True, "rotation": [p]},
            {"id": w, "cone": True, "rotation": [q]},
        ]
        arcs += [
            {"id": 2 * k + 1, "darts": [p, q], "kind": "edge"},
            {"id": 2 * k + 2, "darts": [lp, lq], "kind": "loop"},
        ]
        outer["faces"].append(lq)
        inner.append({"faces": [p, lp], "isolated": []})
    if n % 2:
        vertices.append({"id": 3 * n + 1, "cone": True, "rotation": []})
        outer["isolated"].append(3 * n + 1)
    return {"genus": (len(vertices) - 2) // 2, "vertices": vertices, "arcs": arcs,
            "regions": [outer] + inner}


def block_prune(rng: random.Random, sizes=None) -> tuple[list[dict], dict]:
    """``prune --map`` on block arrangements, each invoked a number of
    times that falls with its cost; the seed picks the order."""
    copies = BLOCK_COPIES if sizes is None else dict.fromkeys(sizes, 1)
    batch, files = [], {}
    for n, count in copies.items():
        name = f"block_n{n}.json"
        files[name] = _dump(block_map(n))
        batch += [{"kind": "prune", "argv": ["prune", "--map", name],
                   "inputs": [name]}] * count
    rng.shuffle(batch)
    return batch, files


# -- nested-mix -------------------------------------------------------

NESTED_RANGE = (8, 66, 21)          # cone points: lo, hi, arrangements (even)
NESTED_VERIFY_PER_MAP = 3

_R0, _R_STEP = 0.02, 0.004      # event radii r_m = _R0 + _R_STEP * m
_FAR = 20.0                     # distance of pairs that never touch
_NO_LOOP = 10.0                 # loop radius of points that never self-touch


def _enclosure(rng, items, n_cone, p_in, tries=8):
    """Union of whole region items for a new loop, keeping at least two
    cone points on each side of it (the Gauss-Bonnet rule for a geodesic
    loop at an angle-pi cone point); None when no draw obeys the rule."""
    for _ in range(tries):
        enclosed: set[int] = set()
        for vs in items:
            if rng.random() < p_in:
                enclosed |= vs
        if 2 <= len(enclosed) <= n_cone - 3:
            return enclosed
    return None


def nested_arrangement(rng: random.Random, n_cone: int):
    """Random growth-shaped arrangement and the synthetic model that
    replays it.

    Insertions follow the growth rules (every new arc has a bare
    endpoint): a loop at a bare point around whole region items, a bone
    between two bare points of one region, or an edge from a bare point
    to a corner of an occupied one.  Per-map style weights vary how
    often loops appear and how much they swallow, which spreads the
    nesting depth.  Returns ``(map_dict, model_dict)``.
    """
    from hyperbasis.spheremap import MapBuilder

    p_self = rng.uniform(0.25, 0.6)
    p_in = rng.uniform(0.3, 0.9)
    b = MapBuilder(range(1, n_cone + 1))
    active = set(range(1, n_cone + 1))
    freeze_r: dict[int, float] = {}
    loop_radii = [_NO_LOOP] * n_cone
    dist = [[0.0 if a == c else _FAR for c in range(n_cone)] for a in range(n_cone)]
    table = []
    m = 0
    while active:
        m += 1
        r = _R0 + _R_STEP * m
        i = rng.choice(sorted(active))
        region = b.region_of_vertex(i)
        others = [v for v in sorted(active) if v != i and b.region_of_vertex(v) == region]
        hosts = [w for w in sorted(b.rotations)
                 if w not in active and b.rotations[w] and b.corners_on_region(w, region)]
        items = [it["vertices"] for it in b.region_item_contents(region)
                 if it["vertices"] != {i}]
        enclosed = _enclosure(rng, items, n_cone, p_in)
        moves, weights = [], []
        if enclosed is not None:
            moves.append("self")
            weights.append(p_self)
        if others:
            moves.append("pair")
            weights.append((1 - p_self) / 2)
        if hosts:
            moves.append("attach")
            weights.append((1 - p_self) / 2)
        move = rng.choices(moves, weights)[0]
        if move == "self":
            b.add_loop(m, i, enclosed)
            loop_radii[i - 1] = r
            table.append({"kind": "loop", "i": i, "enclosed": sorted(enclosed)})
            newly = (i,)
        elif move == "pair":
            w = rng.choice(others)
            b.add_bone(m, i, w)
            dist[i - 1][w - 1] = dist[w - 1][i - 1] = 2.0 * r
            table.append({"kind": "edge", "i": i, "j": w})
            newly = (i, w)
        else:
            w = rng.choice(hosts)
            corners = b.corners_on_region(w, region)
            at = rng.randrange(len(corners))
            b.attach_edge(m, i, w, corners[at])
            dist[i - 1][w - 1] = dist[w - 1][i - 1] = r + freeze_r[w]
            table.append({"kind": "edge", "i": w, "j": i, "at": at})
            newly = (i,)
        for v in newly:
            active.discard(v)
            freeze_r[v] = r
    smap = b.finalize()
    model = {"genus": (n_cone - 2) // 2, "distances": dist,
             "loop_radii": loop_radii, "arcs": table}
    return smap.to_dict(), model


def nested_mix(rng: random.Random, sizes=None) -> tuple[list[dict], dict]:
    """Per arrangement of stratified size: one synthetic-model pipeline,
    one prune and a few verify calls on random arc subsets of varied
    density."""
    sizes = sizes or _stratified(rng, *NESTED_RANGE, step=2)
    batch, files = [], {}
    for idx, n in enumerate(sizes):
        smap, model = nested_arrangement(rng, n)
        mname, sname = f"nested{idx:02d}_map.json", f"nested{idx:02d}_model.json"
        files[mname] = _dump(smap)
        files[sname] = _dump(model)
        batch.append({"kind": "pipeline", "argv": ["pipeline", "--model", sname],
                      "inputs": [sname]})
        batch.append({"kind": "prune", "argv": ["prune", "--map", mname],
                      "inputs": [mname]})
        arc_ids = [a["id"] for a in smap["arcs"]]
        for _ in range(NESTED_VERIFY_PER_MAP):
            keep = rng.uniform(0.2, 0.9)
            subset = [a for a in arc_ids if rng.random() < keep] or arc_ids[:1]
            batch.append({"kind": "verify",
                          "argv": ["verify", "--map", mname,
                                   "--subset", ",".join(map(str, subset))],
                          "inputs": [mname]})
    rng.shuffle(batch)
    return batch, files


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


# fixed tiny inputs for the untimed warm-up invocations, the same on every seed
_WARMUP_SEED = 0
_WARMUP_SIZES = {"regular-ladder": (3,), "block-prune": (4,), "nested-mix": (8,)}


def _make(workload: str, rng: random.Random, sizes=None):
    if workload == "regular-ladder":
        return regular_ladder(rng, [(g, 1) for g in sizes] if sizes else REGULAR_LADDER)
    if workload == "block-prune":
        return block_prune(rng, sizes)
    if workload == "nested-mix":
        return nested_mix(rng, sizes)
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, outdir, sizes=None) -> dict:
    """Write the workload's input files under ``outdir`` and return the
    manifest: the measured batch, the warm-up batch and a digest of all
    inputs.  ``sizes`` replaces the workload's sizes, for the self-test."""
    outdir = Path(outdir)
    batch, files = _make(workload, random.Random(seed), sizes)
    warm, warm_files = _make(workload, random.Random(_WARMUP_SEED), _WARMUP_SIZES[workload])
    for inv in warm:
        inv["argv"] = ["warm_" + a if a in inv["inputs"] else a for a in inv["argv"]]
        inv["inputs"] = ["warm_" + a for a in inv["inputs"]]
    files.update({"warm_" + k: v for k, v in warm_files.items()})
    digest = hashlib.sha256()
    digest.update(json.dumps([batch, warm], sort_keys=True).encode())
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name] + b"\0")
        (outdir / name).write_bytes(files[name])
    return {"workload": workload, "seed": seed, "batch": batch, "warmup": warm,
            "input_digest": digest.hexdigest()}


if __name__ == "__main__":
    # usage: gen.py WORKLOAD SEED OUTDIR  (writes OUTDIR/manifest.json)
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    manifest = write_inputs(workload, seed, outdir)
    (outdir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
