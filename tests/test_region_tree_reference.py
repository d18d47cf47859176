"""``region_tree`` checks growth shapes in its own piece pass, and
``RegionTree.units`` groups hanging branches by base once.  The former
``region_tree``, which ran a second component pass (``classify_arcs``)
to reject other shapes, and the former ``units``, which scanned every
piece for every boundary loop, are kept here as the reference: both must
give the same tree, the same units in every node, and the same error."""

import importlib
import json
import random
import sys
from pathlib import Path

import pytest

from hyperbasis import cover, families, growth, hypmodel
from hyperbasis.errors import EmbeddingError, InputError
from hyperbasis.spheremap import (
    Arc,
    ComponentKind,
    RegionNode,
    RegionTree,
    SphereMap,
    _Piece,
    _UnionFind,
    classify_arcs,
    from_json,
    region_tree,
)
from mapfactory import polygon_cycle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SHAPE_ERROR = "subgraph has a component outside the growth shapes"


def reference_region_tree(smap: SphereMap, subgraph) -> RegionTree:
    """Regions of the sphere minus the loop arcs of ``subgraph``, with
    their nesting levels and interior contents.

    The subgraph's components must classify as loops, trees, looped
    trees, or isolated vertices.
    """
    sub = frozenset(int(a) for a in subgraph)
    for aid in sub:
        if aid not in smap.arcs:
            raise InputError(f"unknown arc id {aid}")
    kinds = classify_arcs(smap, sub)
    if any(k is ComponentKind.INVALID for k in kinds.values()):
        raise InputError("subgraph has a component outside the growth shapes")
    loop_arcs = sorted(a for a in sub if smap.arcs[a].kind == "loop")
    bases = {smap.arcs[a].base for a in loop_arcs}
    if len(bases) != len(loop_arcs):
        raise InputError("two subgraph loops share a base vertex")

    # merge map regions across every arc that is not a subgraph loop
    uf = _UnionFind(range(len(smap.regions)))
    for aid in smap.arcs:
        if aid not in loop_arcs:
            r1, r2 = smap.side_regions(aid)
            uf.union(r1, r2)
    roots = sorted({uf.find(r) for r in range(len(smap.regions))})
    node_of_class = {root: i for i, root in enumerate(roots)}
    nodes = {i: RegionNode(id=i) for i in range(len(roots))}

    def node_of_region(r: int) -> int:
        return node_of_class[uf.find(r)]

    sides = {}
    for lam in loop_arcs:
        r1, r2 = smap.side_regions(lam)
        n1, n2 = node_of_region(r1), node_of_region(r2)
        if n1 == n2:
            raise EmbeddingError(f"loop {lam} does not separate the sphere")
        sides[lam] = (n1, n2)
        nodes[n1].boundary.append(lam)
        nodes[n2].boundary.append(lam)
    if len(nodes) != len(loop_arcs) + 1:
        raise EmbeddingError("regions and loops do not form a tree")

    # vertices isolated in the subgraph
    sub_degree = {v: 0 for v in smap.rotations}
    for aid in sub:
        a = smap.arcs[aid]
        sub_degree[a.u] += 1
        sub_degree[a.v] += 1
    for v in sorted(smap.rotations):
        if sub_degree[v] == 0:
            if smap.rotations[v]:
                r = smap.corner_region(smap.rotations[v][0])
            else:
                r = smap.region_of_isolated[v]
            nodes[node_of_region(r)].isolated.append(v)

    # pieces: components of the subgraph's non-loop arcs minus loop bases
    edge_arcs = [a for a in sub if smap.arcs[a].kind == "edge"]
    puf = _UnionFind()
    for aid in edge_arcs:
        a = smap.arcs[aid]
        for x in (a.u, a.v):
            if x not in bases:
                puf.add(x)
        if a.u not in bases and a.v not in bases:
            puf.union(a.u, a.v)
    piece_base: dict[int, int] = {}
    piece_node: dict[int, int] = {}
    for aid in sorted(edge_arcs):
        a = smap.arcs[aid]
        free = [x for x in (a.u, a.v) if x not in bases]
        root = puf.find(free[0])
        for x in (a.u, a.v):
            if x in bases:
                if piece_base.get(root, x) != x:
                    raise InputError("piece hangs off two loop bases")
                piece_base[root] = x
                # the stem dart at the base determines the side of the loop
                stem = a.darts[0] if a.u == x else a.darts[1]
                piece_node[root] = node_of_region(smap.corner_region(stem))
    for root, verts in puf.classes().items():
        if root not in piece_node:
            # all corners at a vertex off the loop bases lie in one node
            corner = smap.rotations[root][0]
            piece_node[root] = node_of_region(smap.corner_region(corner))
        piece = _Piece(tuple(sorted(verts)), piece_base.get(root))
        nodes[piece_node[root]].pieces.append(piece)

    for n in nodes.values():
        n.boundary.sort()
        n.isolated.sort()
        n.pieces.sort(key=lambda p: p.vertices[0])

    # root: disk region (one boundary loop) with smallest base vertex
    if loop_arcs:
        leaves = [n for n in nodes.values() if len(n.boundary) == 1]
        root = min(leaves, key=lambda n: smap.arcs[n.boundary[0]].base).id
    else:
        root = 0
    dist = {root: 0}
    loop_sides = {}                # breadth-first, so parents come first
    order = [root]
    for n in order:
        for lam in nodes[n].boundary:
            x, y = sides[lam]
            other = y if x == n else x
            if other not in dist:
                dist[other] = dist[n] + 1
                loop_sides[lam] = (other, n)
                order.append(other)
    if len(dist) != len(nodes):
        raise EmbeddingError("region adjacency is not connected")
    ecc = max(dist.values())
    levels = {n: ecc - d for n, d in dist.items()}
    below = {
        n: len(node.isolated) + sum(len(p.vertices) for p in node.pieces)
        for n, node in nodes.items()
    }
    for child, parent in reversed(loop_sides.values()):
        below[parent] += below[child] + 1      # + the base of the joining loop
    return RegionTree(
        smap=smap,
        nodes=nodes,
        loop_sides=loop_sides,
        root=root,
        levels=levels,
        below=below,
    )


def reference_units(tree: RegionTree, node_id: int) -> list[tuple[str, int]]:
    """Cone counts a simple closed curve inside the region can cut off.

    One unit per boundary loop (its base, everything strictly beyond,
    and any subgraph branches hanging off the base into this region:
    a branch cannot be separated from its loop, since the curve would
    have to cross the stem), one per free-standing interior piece,
    one per isolated vertex.
    """
    node = tree.nodes[node_id]
    units: list[tuple[str, int]] = []
    for lam in node.boundary:
        count = 1 + tree._beyond(lam, node_id)
        for p in node.pieces:
            if p.attach_base is not None and p.attach_base == tree.smap.arcs[lam].base:
                count += len(p.vertices)
        units.append((f"loop:{lam}", count))
    for p in node.pieces:
        if p.attach_base is None:
            units.append((f"piece:{min(p.vertices)}", len(p.vertices)))
    for v in node.isolated:
        units.append((f"vertex:{v}", 1))
    return units


def snapshot(tree: RegionTree, units) -> tuple:
    """Everything a caller reads off the tree, with ``units`` per node."""
    nodes = {
        nid: (
            list(n.boundary),
            list(n.isolated),
            [(p.vertices, p.attach_base) for p in n.pieces],
        )
        for nid, n in tree.nodes.items()
    }
    return (
        nodes,
        tree.loop_sides,
        tree.root,
        tree.levels,
        tree.below,
        {nid: units(tree, nid) for nid in tree.nodes},
    )


def outcome(build, units, smap, subgraph):
    """Snapshot of the tree, or the type and message of what it raised."""
    try:
        tree = build(smap, subgraph)
    except Exception as e:  # the comparison covers every error path
        return (type(e), str(e))
    return snapshot(tree, units)


class Tally:
    """Compares both builds on each input and counts the rejections."""

    def __init__(self):
        self.inputs = 0
        self.rejected = 0

    def check(self, smap, subgraph) -> bool:
        """True if the reference accepts the subgraph."""
        subgraph = list(subgraph)
        want = outcome(reference_region_tree, reference_units, smap, subgraph)
        got = outcome(region_tree, RegionTree.units, smap, subgraph)
        assert got == want
        self.inputs += 1
        rejected = isinstance(want[0], type)      # (exception type, message)
        self.rejected += rejected
        return not rejected

    def check_all_and_subset(self, smap, rng) -> None:
        self.check(smap, smap.arcs)
        self.check(smap, families.random_subgraph(rng, smap))


@pytest.fixture(scope="module")
def gen():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_block_family_matches_reference():
    rng = random.Random(5)
    tally = Tally()
    for n in range(2, 61):
        tally.check_all_and_subset(families.block_family(n), rng)
    assert (tally.inputs, tally.rejected) == (118, 0)


def test_random_growth_maps_match_reference():
    rng = random.Random(11)
    tally = Tally()
    for _ in range(1500):
        tally.check_all_and_subset(families.random_growth_map(rng, rng.randrange(4, 41, 2)), rng)
    assert (tally.inputs, tally.rejected) == (3000, 0)


def test_regular_arc_graphs_match_reference():
    rng = random.Random(17)
    tally = Tally()
    for g in range(2, 31):
        model = hypmodel.regular_model(g)
        tally.check_all_and_subset(growth.arc_graph(growth.simulate(model), model), rng)
    assert (tally.inputs, tally.rejected) == (58, 0)


def test_nested_arrangements_match_reference(gen):
    rng = random.Random(23)
    tally = Tally()
    for _ in range(200):
        smap, _model = gen.nested_arrangement(rng, rng.randrange(8, 65, 2))
        tally.check_all_and_subset(from_json(json.dumps(smap)), rng)
    assert (tally.inputs, tally.rejected) == (400, 0)


def master_map(smap: SphereMap, subgraph) -> SphereMap:
    """The cover's master complex as a sphere map: every master edge is
    an arc (a loop when its ends agree), scaffold chords included."""
    master = cover.build_cover(smap, subgraph).master
    arcs = {}
    for e in master.edges:
        u, w = (master.dart_vertex[d] for d in e.darts)
        arcs[e.idx] = Arc(id=e.idx, kind="loop" if u == w else "edge", u=u, v=w, darts=e.darts)
    return SphereMap(master.rotations, arcs)


def test_cover_master_subsets_match_reference():
    rng = random.Random(29)
    tally = Tally()
    for _ in range(250):
        smap = families.random_growth_map(rng, rng.randrange(4, 25, 2))
        master = master_map(smap, families.random_subgraph(rng, smap))
        for _ in range(4):
            tally.check(master, families.random_subgraph(rng, master, rng.uniform(0.2, 0.8)))
    assert tally.inputs == 1000
    assert 400 <= tally.rejected < tally.inputs


def dart_map(rotations: dict[int, list[int]]) -> SphereMap:
    """Sphere map on cone points whose arc k has darts 2k and 2k + 1."""
    owner = {d: v for v, rot in rotations.items() for d in rot}
    arcs = {}
    for k in range(len(owner) // 2):
        u, w = owner[2 * k], owner[2 * k + 1]
        arcs[k] = Arc(id=k, kind="loop" if u == w else "edge", u=u, v=w, darts=(2 * k, 2 * k + 1))
    return SphereMap(rotations, arcs)


SHAPES = {
    # square 1-2-3-4
    "cycle of edges": polygon_cycle(4),
    # square 1-2-3-4 with a loop at 1 in a corner
    "cycle through a loop base": dart_map({1: [0, 7, 8, 9], 2: [1, 2], 3: [3, 4], 4: [5, 6]}),
    # path 3-1-2-4 with loops at 1 and 2
    "edge joining two loop bases": dart_map({1: [0, 2, 3, 7], 2: [1, 4, 5, 8], 3: [6], 4: [9]}),
    # path 1-2-3-4 with two loops at 1
    "two loops at one vertex": dart_map({1: [0, 6, 7, 8, 9], 2: [1, 2], 3: [3, 4], 4: [5]}),
    # path 1-2-3 with loops at 1 and 3, and an edge 2-4
    "piece with two stems": dart_map({1: [0, 4, 5], 2: [1, 2, 8], 3: [3, 6, 7], 4: [9]}),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_each_bad_shape_is_rejected_like_the_reference(shape):
    smap = SHAPES[shape]
    assert not Tally().check(smap, smap.arcs)
    assert outcome(region_tree, RegionTree.units, smap, smap.arcs) == (InputError, SHAPE_ERROR)
