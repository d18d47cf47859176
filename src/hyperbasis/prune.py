"""Level-wise pruning of a growth arc graph down to an independent system.

Two preliminary passes first simplify the graph: every looped tree loses
its loop, and every tree with at least two edges loses one leaf edge,
the freed leaf forming a paired block with the rest of its tree.  The
remaining components are bones (single-edge trees), loops, and the
paired trees.

The main algorithm processes the regions of the sphere minus the loops
in increasing level order.  Each region triggers the first applicable
action: skip if it already contains an isolated vertex; with two or more
inner boundary loops delete one and pair the freed vertex with another
inner loop; with exactly one inner loop pair the freed vertex with a
bone, or, lacking bones, delete the outer boundary instead and pair with
the inner loop; with no inner loops delete the outer boundary and pair
with a bone; and with no loops left at all the graph is g+1 disjoint
bones, one of which donates an edge to free two vertices.  Deleting a
loop folds its child region into its parent, one level up; a region
that absorbed a child is queued again.  Every choice point is resolved
by smallest (or, for leaves, largest) id, so runs are reproducible.

The result keeps at least ceil((2g+2)/3) arcs, every region of the
complement contains an isolated vertex, and the lifted system passes the
double-cover independence oracle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from . import bounds, cover
from .errors import GeometricAssumptionViolated, InputError, VerificationFailure
from .spheremap import (
    Component,
    ComponentKind,
    SphereMap,
    classify_arcs,  # noqa: F401  unused; the benchmark tracer wraps this name
    region_admits_odd_curve,
    region_tree,
)

__all__ = [
    "Block",
    "PruneResult",
    "preliminary_steps",
    "prune",
    "verify",
]


@dataclass(frozen=True)
class Block:
    kind: str                       # "paired" | "bone" | "loop"
    arcs: tuple[int, ...]
    vertices: tuple[int, ...]       # vertices on the kept component
    isolated_vertex: int | None = None

    def ratio(self) -> float:
        nv = len(self.vertices) + (1 if self.isolated_vertex is not None else 0)
        return len(self.arcs) / nv


@dataclass
class PruneResult:
    genus: int
    kept: tuple[int, ...]
    deleted: tuple[int, ...]
    blocks: list[Block]
    trace: list[dict]
    input_isolated: int             # map vertices bare before pruning

    def guaranteed_count(self) -> int:
        """Arc-count floor: bare input vertices sit in no block."""
        return math.ceil((2 * self.genus + 2 - self.input_isolated) / 3)


def preliminary_steps(smap: SphereMap):
    """Drop loops of looped trees, then one leaf edge per big tree.

    Returns (reduced map, paired blocks, deleted arc ids, trace).

    Shapes are checked once, on the input's own ``components``: every
    subgraph of a graph of growth shapes has growth-shaped components
    again, so the maps derived from it need no second check.
    """
    if any(c.kind is ComponentKind.INVALID for c in smap.components):
        raise InputError("graph has a component outside the growth shapes")
    trace: list[dict] = []
    deleted: list[int] = []
    for comp in smap.components:
        if comp.loops and comp.edges:
            deleted.append(comp.loops[0])
            trace.append(
                {"action": "prelim-drop-loop", "component": comp.key, "arc": comp.loops[0]}
            )
    work = smap.without_arcs(set(deleted)) if deleted else smap
    blocks: list[Block] = []
    second: list[int] = []
    for comp in work.components:
        if len(comp.edges) < 2:
            continue
        degree = {v: 0 for v in comp.vertices}
        at_leaf: dict[int, int] = {}
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
            Block(
                kind="paired",
                arcs=kept,
                vertices=tuple(v for v in comp.vertices if v != leaf),
                isolated_vertex=leaf,
            )
        )
        trace.append(
            {"action": "prelim-drop-leaf", "component": comp.key, "arc": drop, "freed": leaf}
        )
    if second:
        work = work.without_arcs(set(second))
        deleted.extend(second)
    return work, blocks, deleted, trace


@dataclass
class _Region:
    """What merges change in a region; the region tree holds the rest."""

    inner: set[int] = field(default_factory=set)      # inner boundary loop arcs
    isolated: set[int] = field(default_factory=set)
    free_bones: dict[int, Component] = field(default_factory=dict)


def prune(smap: SphereMap) -> PruneResult:
    """Full pruning pass: preliminary steps, then the level-wise loop
    deletion, returning the kept subgraph with its block decomposition."""
    input_isolated = len(smap.isolated)
    work, blocks, deleted, trace = preliminary_steps(smap)
    paired_keys = {min(b.vertices) for b in blocks if b.arcs}

    tree = region_tree(work, set(work.arcs))
    comp_by_key = {c.key: c for c in work.components}
    regions: dict[int, _Region] = {}
    for nid, node in tree.nodes.items():
        regions[nid] = _Region(isolated=set(node.isolated))
        for piece in node.pieces:
            comp = comp_by_key[min(piece.vertices)]
            if len(comp.edges) == 1 and comp.key not in paired_keys:
                regions[nid].free_bones[comp.key] = comp
    outer: dict[int, int] = {}
    for lam, (child, parent) in tree.loop_sides.items():
        outer[child] = lam
        regions[parent].inner.add(lam)
    paired_loops: set[int] = set()
    alive = set(work.arcs)
    g = smap.genus

    def first_base(rid: int) -> float:
        loops = regions[rid].inner | ({outer[rid]} if rid in outer else set())
        return min((work.arcs[a].base for a in loops), default=math.inf)

    def pair_with_loop(lam: int, freed: int) -> None:
        if lam in paired_loops:
            raise GeometricAssumptionViolated(
                f"loop {lam} would join two paired blocks"
            )
        paired_loops.add(lam)
        base = work.arcs[lam].base
        blocks.append(
            Block(kind="paired", arcs=(lam,), vertices=(base,), isolated_vertex=freed)
        )

    def pair_with_bone(rid: int, freed: int) -> None:
        bones = regions[rid].free_bones
        if not bones:
            raise GeometricAssumptionViolated(
                f"region {rid} offers no bone to pair with"
            )
        comp = bones.pop(min(bones))
        blocks.append(
            Block(kind="paired", arcs=comp.arcs, vertices=comp.vertices, isolated_vertex=freed)
        )

    def merge(lam: int) -> int:
        """Delete loop ``lam``, folding its child region into its parent."""
        child, parent = tree.loop_sides[lam]
        low, high = regions.pop(child), regions[parent]
        alive.discard(lam)
        deleted.append(lam)
        high.inner.discard(lam)
        high.isolated |= low.isolated | {work.arcs[lam].base}
        high.free_bones.update(low.free_bones)
        high.inner |= low.inner
        return parent

    # A merge folds a region into its parent one level up, which keeps its
    # id, level and outer loop; so processing a level changes no key at that
    # level but the processed region's, and that region is queued again.
    by_level: list[list[int]] = [[] for _ in range(tree.levels[tree.root] + 1)]
    for rid, level in tree.levels.items():
        by_level[level].append(rid)
    step = 0
    for level, rids in enumerate(by_level):
        queue = [(first_base(rid), rid) for rid in rids]
        heapq.heapify(queue)
        while queue:
            _, rid = heapq.heappop(queue)
            region = regions[rid]
            step += 1
            entry = {"step": step, "region": rid, "level": level}
            if region.isolated:
                entry.update({"case": 1, "action": "skip"})
                trace.append(entry)
                continue
            if len(region.inner) >= 2:
                lam = min(region.inner, key=lambda a: work.arcs[a].base)
                # pair with one of this region's own remaining inner loops;
                # loops inherited from the absorbed child may already be paired
                candidates = region.inner - {lam}
                merge(lam)
                remaining = min(candidates, key=lambda a: work.arcs[a].base)
                pair_with_loop(remaining, work.arcs[lam].base)
                entry.update(
                    {"case": 2, "action": "drop-inner-loop", "arc": lam, "paired_loop": remaining}
                )
                trace.append(entry)
                heapq.heappush(queue, (first_base(rid), rid))
                continue
            pi = outer.get(rid)
            if len(region.inner) == 1:
                lam = next(iter(region.inner))
                if region.free_bones:
                    merge(lam)
                    entry.update({"case": 3, "action": "drop-inner-loop", "arc": lam})
                    pair_with_bone(rid, work.arcs[lam].base)
                    trace.append(entry)
                    heapq.heappush(queue, (first_base(rid), rid))
                    continue
                if pi is None:
                    raise GeometricAssumptionViolated(
                        "outermost region has one inner loop, no bones, and no "
                        "isolated vertex"
                    )
                merge(pi)
                pair_with_loop(lam, work.arcs[pi].base)
                entry.update(
                    {"case": 4, "action": "drop-outer-loop", "arc": pi, "paired_loop": lam}
                )
                trace.append(entry)
                continue
            if pi is not None:
                if not region.free_bones:
                    raise GeometricAssumptionViolated(
                        f"disk region {rid} holds no cone points; not realizable "
                        "by disk growth on a hyperbolic cone sphere"
                    )
                parent = merge(pi)
                entry.update({"case": 5, "action": "drop-outer-loop", "arc": pi})
                pair_with_bone(parent, work.arcs[pi].base)
                trace.append(entry)
                continue
            # the whole sphere: only disjoint bones can remain
            bones = region.free_bones
            bone_arcs = {a for c in bones.values() for a in c.arcs}
            if bone_arcs != alive or len(bones) != g + 1:
                raise GeometricAssumptionViolated(
                    f"sphere-level state is not {g + 1} disjoint bones"
                )
            drop_key = min(bones, key=lambda k: bones[k].arcs[0])
            drop = bones.pop(drop_key)
            alive.discard(drop.arcs[0])
            deleted.append(drop.arcs[0])
            freed = sorted(drop.vertices)
            region.isolated |= set(freed)
            entry.update({"case": 6, "action": "drop-bone-edge", "arc": drop.arcs[0]})
            trace.append(entry)
            for v in freed:
                pair_with_bone(rid, v)

    # leftover free components become singleton blocks; ``work``'s are those
    # of the alive arcs, as no loop disconnects and case 6 kills a whole bone
    in_blocks = {a for b in blocks for a in b.arcs}
    for comp in work.components:
        extra = [a for a in comp.arcs if a in alive and a not in in_blocks]
        if not extra:
            continue
        kind = "loop" if work.arcs[extra[0]].kind == "loop" else "bone"
        blocks.append(Block(kind=kind, arcs=tuple(extra), vertices=comp.vertices))

    return PruneResult(
        genus=g,
        kept=tuple(sorted(alive)),
        deleted=tuple(deleted),
        blocks=blocks,
        trace=trace,
        input_isolated=input_isolated,
    )


def verify(result: PruneResult, smap: SphereMap) -> dict:
    """Re-derive every invariant of a pruning result from scratch.

    Checks that each region of the complement contains an isolated
    vertex, the arc count meets the guaranteed floor, the blocks
    partition the kept arcs with healthy ratios, and the double-cover
    oracle confirms an independent lift.  Raises VerificationFailure
    naming the first broken invariant, and ConstructionError when the
    parity test and the cover oracle disagree.
    """
    final = smap.without_arcs(set(result.deleted))
    kept = set(result.kept)
    if set(final.arcs) != kept:
        raise VerificationFailure("kept arcs disagree with deletions")
    tree = region_tree(final, kept)
    for nid, node in tree.nodes.items():
        if not node.isolated:
            raise VerificationFailure(f"region {nid} contains no isolated vertex")
    floor = result.guaranteed_count()
    if len(kept) < floor:
        raise VerificationFailure(
            f"only {len(kept)} arcs kept, guaranteed {floor}"
        )
    block_arcs = [a for b in result.blocks for a in b.arcs]
    if sorted(block_arcs) != sorted(kept):
        raise VerificationFailure("blocks do not partition the kept arcs")
    for b in result.blocks:
        if b.ratio() < 1.0 / 3.0 - 1e-12:
            raise VerificationFailure(f"block {b} has ratio below one third")
    basis = cover.is_partial_basis(final, kept)
    parity = all(region_admits_odd_curve(tree, n) for n in tree.nodes)
    cover.check_agreement(kept, parity, basis)
    if not basis:
        raise VerificationFailure("cover oracle reports a separating system")
    return {
        "arcs_kept": len(kept),
        "kappa": bounds.kappa(result.genus),
        "guaranteed": floor,
        "regions": len(tree.nodes),
        "parity_nonseparating": True,
        "partial_basis": True,
        "rank": len(kept),
    }
