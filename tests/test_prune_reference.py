"""``prune.prune`` walks the region tree level by level with one heap per
level.  The former loop, which rescanned every open region for the
smallest (level, loop base) key and rewrote the loop sides on each merge,
is kept here as the reference: both must agree on the result, the
verification report and every error.  ``prune.prune`` reads the input
map and builds its region tree with the preliminary deletions as erased
arcs; the reference's preliminary steps erase them with ``without_arcs``
and prune the reduced map, so the two derive components and region ids
independently."""

import importlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from hyperbasis import families, growth, hypmodel, prune
from hyperbasis import spheremap as sm
from hyperbasis.errors import GeometricAssumptionViolated, InputError
from hyperbasis.prune import PruneResult
from mapfactory import random_growth_map

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@dataclass
class _Region:
    id: int
    level: int
    inner: set[int] = field(default_factory=set)
    outer: int | None = None
    isolated: set[int] = field(default_factory=set)
    free_bones: dict = field(default_factory=dict)

    def sort_key(self, smap) -> tuple:
        loops = self.inner | ({self.outer} if self.outer is not None else set())
        base = min((smap.arcs[a].base for a in loops), default=math.inf)
        return (self.level, base)


def reference_preliminary_steps(smap):
    """Drop loops of looped trees, then one leaf edge per big tree, each
    pass on a map rebuilt without the arcs the pass before dropped.

    Returns (reduced map, paired blocks, deleted arc ids, trace).
    """
    if any(c.kind is sm.ComponentKind.INVALID for c in smap.components):
        raise InputError("graph has a component outside the growth shapes")
    trace = []
    deleted = []
    for comp in smap.components:
        if comp.loops and comp.edges:
            deleted.append(comp.loops[0])
            trace.append(
                {"action": "prelim-drop-loop", "component": comp.key, "arc": comp.loops[0]}
            )
    work = smap.without_arcs(set(deleted)) if deleted else smap
    blocks = []
    second = []
    for comp in work.components:
        if len(comp.edges) < 2:
            continue
        degree = {v: 0 for v in comp.vertices}
        at_leaf = {}
        for a in comp.edges:
            arc = work.arcs[a]
            degree[arc.u] += 1
            degree[arc.v] += 1
            at_leaf[arc.u] = a
            at_leaf[arc.v] = a
        leaf = max(v for v, d in degree.items() if d == 1)
        drop = at_leaf[leaf]
        second.append(drop)
        kept = tuple(a for a in comp.edges if a != drop)
        blocks.append(
            {
                "kind": "paired",
                "arcs": kept,
                "vertices": tuple(v for v in comp.vertices if v != leaf),
                "isolated_vertex": leaf,
            }
        )
        trace.append(
            {"action": "prelim-drop-leaf", "component": comp.key, "arc": drop, "freed": leaf}
        )
    if second:
        work = work.without_arcs(set(second))
        deleted.extend(second)
    return work, blocks, deleted, trace


def reference_prune(smap) -> PruneResult:
    work, blocks, deleted, trace = reference_preliminary_steps(smap)
    paired_keys = {min(b["vertices"]) for b in blocks if b["arcs"]}

    tree = sm.region_tree(work, set(work.arcs))
    comp_by_key = {c.key: c for c in work.components}
    regions = {}
    for nid, node in tree.nodes.items():
        regions[nid] = _Region(id=nid, level=tree.levels[nid])
        regions[nid].isolated = set(node.isolated)
        for piece in node.pieces:
            comp = comp_by_key[min(piece.vertices)]
            if len(comp.edges) == 1 and comp.key not in paired_keys:
                regions[nid].free_bones[comp.key] = comp
    loop_sides = dict(tree.loop_sides)
    for lam, (child, parent) in loop_sides.items():
        regions[child].outer = lam
        regions[parent].inner.add(lam)
    paired_loops = set()
    alive = {a for a in work.arcs}
    g = smap.genus

    def pair_with_loop(lam, freed):
        if lam in paired_loops:
            raise GeometricAssumptionViolated(f"loop {lam} would join two paired blocks")
        paired_loops.add(lam)
        base = work.arcs[lam].base
        blocks.append(
            {"kind": "paired", "arcs": (lam,), "vertices": (base,), "isolated_vertex": freed}
        )

    def pair_with_bone(region, freed):
        if not region.free_bones:
            raise GeometricAssumptionViolated(f"region {region.id} offers no bone to pair with")
        key = min(region.free_bones)
        comp = region.free_bones.pop(key)
        blocks.append(
            {"kind": "paired", "arcs": comp.arcs, "vertices": comp.vertices,
             "isolated_vertex": freed}
        )

    def merge(lam, low, high):
        alive.discard(lam)
        deleted.append(lam)
        high.inner.discard(lam)
        low.inner.discard(lam)
        high.isolated |= low.isolated | {work.arcs[lam].base}
        high.free_bones.update(low.free_bones)
        high.inner |= low.inner
        for mu in low.inner:
            loop_sides[mu] = (loop_sides[mu][0], high.id)
        high.level = max(high.level, low.level)
        del regions[low.id]
        unprocessed.discard(low.id)
        return high

    unprocessed = set(regions)
    step = 0
    while unprocessed:
        rid = min(unprocessed, key=lambda r: regions[r].sort_key(work))
        unprocessed.discard(rid)
        region = regions[rid]
        step += 1
        entry = {"step": step, "region": rid, "level": region.level}
        if region.isolated:
            entry.update({"case": 1, "action": "skip"})
            trace.append(entry)
            continue
        if len(region.inner) >= 2:
            lam = min(region.inner, key=lambda a: work.arcs[a].base)
            candidates = region.inner - {lam}
            low = regions[loop_sides[lam][0]]
            merged = merge(lam, low, region)
            remaining = min(candidates, key=lambda a: work.arcs[a].base)
            pair_with_loop(remaining, work.arcs[lam].base)
            entry.update(
                {"case": 2, "action": "drop-inner-loop", "arc": lam, "paired_loop": remaining}
            )
            trace.append(entry)
            unprocessed.add(merged.id)
            continue
        if len(region.inner) == 1:
            lam = next(iter(region.inner))
            if region.free_bones:
                low = regions[loop_sides[lam][0]]
                merged = merge(lam, low, region)
                freed = work.arcs[lam].base
                entry.update({"case": 3, "action": "drop-inner-loop", "arc": lam})
                pair_with_bone(merged, freed)
                trace.append(entry)
                unprocessed.add(merged.id)
                continue
            if region.outer is None:
                raise GeometricAssumptionViolated(
                    "outermost region has one inner loop, no bones, and no "
                    "isolated vertex"
                )
            pi = region.outer
            high = regions[loop_sides[pi][1]]
            merged = merge(pi, region, high)
            pair_with_loop(lam, work.arcs[pi].base)
            entry.update({"case": 4, "action": "drop-outer-loop", "arc": pi, "paired_loop": lam})
            trace.append(entry)
            unprocessed.add(merged.id)
            continue
        if region.outer is not None:
            pi = region.outer
            if not region.free_bones:
                raise GeometricAssumptionViolated(
                    f"disk region {rid} holds no cone points; not realizable "
                    "by disk growth on a hyperbolic cone sphere"
                )
            high = regions[loop_sides[pi][1]]
            freed = work.arcs[pi].base
            merged = merge(pi, region, high)
            entry.update({"case": 5, "action": "drop-outer-loop", "arc": pi})
            pair_with_bone(merged, freed)
            trace.append(entry)
            unprocessed.add(merged.id)
            continue
        bones = region.free_bones
        bone_arcs = {a for c in bones.values() for a in c.arcs}
        if bone_arcs != set(alive) or len(bones) != g + 1:
            raise GeometricAssumptionViolated(f"sphere-level state is not {g + 1} disjoint bones")
        drop_key = min(bones, key=lambda k: bones[k].arcs[0])
        drop = bones.pop(drop_key)
        alive.discard(drop.arcs[0])
        deleted.append(drop.arcs[0])
        freed = sorted(drop.vertices)
        region.isolated |= set(freed)
        entry.update({"case": 6, "action": "drop-bone-edge", "arc": drop.arcs[0]})
        trace.append(entry)
        for v in freed:
            pair_with_bone(region, v)

    in_blocks = {a for b in blocks for a in b["arcs"]}
    for comp in sm.components(work, alive):
        extra = [a for a in comp.arcs if a in alive and a not in in_blocks]
        if not extra:
            continue
        kind = "loop" if work.arcs[extra[0]].kind == "loop" else "bone"
        blocks.append(
            {"kind": kind, "arcs": tuple(extra), "vertices": comp.vertices,
             "isolated_vertex": None}
        )

    return PruneResult(
        kept=tuple(sorted(alive)),
        deleted=tuple(deleted),
        blocks=blocks,
        trace=trace,
    )


def outcome(fn, *args):
    """Result of the call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:  # the comparison covers every error path
        return (type(e), str(e))


@pytest.fixture(scope="module")
def gen():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(str(PERFBENCH))


def assert_same_as_reference(m):
    got = outcome(prune.prune, m)
    want = outcome(reference_prune, m)
    assert got == want
    if isinstance(want, PruneResult):
        assert outcome(prune.verify, got, m) == outcome(prune.verify, want, m)
    return want


def test_block_family_matches_reference():
    for n in range(2, 120):
        assert isinstance(assert_same_as_reference(families.block_family(n)), PruneResult)


def test_random_growth_maps_match_reference():
    rng = random.Random(31)
    pruned = 0
    for _ in range(1500):
        m = random_growth_map(rng, rng.randrange(4, 61, 2))
        pruned += isinstance(assert_same_as_reference(m), PruneResult)
    assert 0 < pruned < 1500       # both the clean and the rejecting paths ran


def test_regular_model_matches_reference():
    for g in range(2, 31):
        model = hypmodel.regular_model(g)
        graph = growth.arc_graph(growth.simulate(model), model)
        assert isinstance(assert_same_as_reference(graph), PruneResult)


def test_nested_arrangements_match_reference(gen):
    rng = random.Random(17)
    for _ in range(200):
        smap, _model = gen.nested_arrangement(rng, rng.randrange(8, 65, 2))
        assert isinstance(assert_same_as_reference(sm.from_json(json.dumps(smap))), PruneResult)
