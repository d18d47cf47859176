import json
import random

import pytest

from hyperbasis import families
from hyperbasis import spheremap as sm
from hyperbasis.errors import EmbeddingError, InputError
from mapfactory import bones, euler_summary, hexagon_sub, polygon_cycle, sibling_loops


def test_hexagon_cycle_euler():
    m = polygon_cycle(6)
    v, e, f, c = euler_summary(m)
    assert (v, e, f, c) == (6, 6, 2, 1)
    assert v - e + f == 1 + c


def test_path_submap_face_count():
    p = hexagon_sub({1, 2, 3, 4, 5})
    assert euler_summary(p) == (6, 5, 1, 1)
    assert sm.classify_components(p) == [sm.ComponentKind.TREE]


def test_two_disjoint_loops_euler():
    b = sm.MapBuilder(range(1, 7))
    b.add_loop(1, 1, set())
    b.add_loop(2, 2, set())
    m = b.finalize()
    v, e, f, c = euler_summary(m)
    assert (v - e + f, c) == (1 + c, 6)  # 2 loops + 4 isolated vertices
    assert f == 3


def test_from_json_roundtrip():
    m = families.block_family(3)
    data = m.to_dict()
    again = sm.from_json(json.dumps(data))
    assert again.to_dict() == data


def test_from_json_rejects_garbage():
    with pytest.raises(InputError):
        sm.from_json("{truncated")
    with pytest.raises(InputError):
        sm.from_json(json.dumps({"vertices": "nope"}))


def test_from_json_rejects_nonplanar_k5():
    rot = {v: [] for v in range(1, 7)}
    arcs = []
    d = 0
    for u in range(1, 6):
        for w in range(u + 1, 6):
            arcs.append({"id": len(arcs) + 1, "darts": [d, d + 1], "kind": "edge"})
            rot[u].append(d)
            rot[w].append(d + 1)
            d += 2
    data = {
        "genus": 2,
        "vertices": [
            {"id": v, "cone": True, "rotation": rot[v]} for v in range(1, 7)
        ],
        "arcs": arcs,
        "regions": [{"faces": [0], "isolated": [6]}],
    }
    with pytest.raises(EmbeddingError):
        sm.from_json(json.dumps(data))


def test_disconnected_requires_regions():
    m = bones([(1, 2), (3, 4)], 4)
    data = m.to_dict()
    del data["regions"]
    with pytest.raises(EmbeddingError):
        sm.from_json(json.dumps(data))


def test_classification_shapes():
    b = sm.MapBuilder(range(1, 11))
    b.add_bone(1, 1, 2)                       # single edge: a tree
    b.add_loop(2, 3, set())                   # loop
    b.add_bone(3, 4, 5)
    b.attach_edge(4, 6, 5, 0)                 # 2-edge tree
    b.add_loop(5, 7, set())
    b.attach_edge(6, 8, 7, 0)                 # looped tree
    m = b.finalize()
    kinds = sm.classify_components(m)
    assert kinds == [
        sm.ComponentKind.TREE,
        sm.ComponentKind.LOOP,
        sm.ComponentKind.TREE,
        sm.ComponentKind.LOOPED_TREE,
        sm.ComponentKind.ISOLATED_VERTEX,
        sm.ComponentKind.ISOLATED_VERTEX,
    ]


def test_theta_graph_invalid():
    arcs = {
        i + 1: sm.Arc(id=i + 1, kind="edge", u=1, v=2, darts=(2 * i, 2 * i + 1))
        for i in range(3)
    }
    rot = {1: [0, 2, 4], 2: [5, 3, 1], 3: [], 4: []}
    theta = sm.SphereMap(
        rot,
        arcs,
        regions=[
            {"faces": [0], "isolated": []},
            {"faces": [1], "isolated": [3]},
            {"faces": [3], "isolated": [4]},
        ],
    )
    kinds = sm.classify_components(theta)
    assert kinds[0] is sm.ComponentKind.INVALID


def test_growth_outputs_classify_clean():
    rng = random.Random(4)
    for _ in range(50):
        m = families.random_growth_map(rng, rng.choice([4, 6, 8, 10]))
        assert sm.ComponentKind.INVALID not in sm.classify_components(m)


def test_region_tree_nested_siblings():
    m = families.block_family(2)
    tree = sm.region_tree(m, [2, 4])        # the two loops
    assert len(tree.nodes) == 3
    levels = sorted(tree.levels.values())
    assert levels == [0, 1, 2]
    root = tree.nodes[tree.root]
    assert tree.levels[tree.root] == 2
    assert root.boundary == [2]             # loop with the smallest base


def test_region_tree_empty_loop_set():
    m = bones([(1, 2), (3, 4), (5, 6)], 6)
    tree = sm.region_tree(m, m.arcs.keys())
    assert len(tree.nodes) == 1
    assert tree.levels == {0: 0}


def test_region_tree_deep_levels():
    # four nested loops: levels 0..4 across five regions
    b = sm.MapBuilder(range(1, 11))
    b.add_loop(1, 1, set())
    b.add_loop(2, 2, {1})
    b.add_loop(3, 3, {1, 2})
    b.add_loop(4, 4, {1, 2, 3})
    m = b.finalize()
    tree = sm.region_tree(m, m.arcs.keys())
    assert sorted(tree.levels.values()) == [0, 1, 2, 3, 4]
    # each non-extremal region has one neighbor exactly one level up
    for nid, node in tree.nodes.items():
        ups = []
        for lam in node.boundary:
            a, b2 = tree.loop_sides[lam]
            other = b2 if a == nid else a
            if tree.levels[other] > tree.levels[nid]:
                ups.append(tree.levels[other])
        if tree.levels[nid] < max(tree.levels.values()):
            assert ups == [tree.levels[nid] + 1]


def test_units_and_census():
    m = families.block_family(2)
    tree = sm.region_tree(m, m.arcs.keys())
    for nid in tree.nodes:
        assert sum(c for _, c in tree.units(nid)) == 6
    disk_units = {
        frozenset(c for _, c in tree.units(nid)) for nid in tree.nodes
    }
    assert frozenset({3}) in disk_units      # middle region: two odd clusters


def test_parity_examples():
    # three bones: units {2,2,2}, no odd curve anywhere
    m3 = bones([(1, 2), (3, 4), (5, 6)], 6)
    assert not sm.is_nonseparating(m3, m3.arcs.keys())
    # two bones and two bare vertices: odd singleton units
    m2 = bones([(1, 2), (3, 4)], 6)
    assert sm.is_nonseparating(m2, m2.arcs.keys())
    tree = sm.region_tree(m2, m2.arcs.keys())
    (nid,) = tree.nodes
    assert sm.region_admits_odd_curve(tree, nid)
    # empty subgraph: the bare vertices already provide odd units
    assert sm.is_nonseparating(m2, [])


def test_block_family_separating_until_pruned():
    m = families.block_family(2)
    assert not sm.is_nonseparating(m, m.arcs.keys())
    assert sm.is_nonseparating(m, [1, 3])


def test_attached_branch_is_not_a_unit():
    """A tree hanging off a loop base cannot be cut off alone: the curve
    would have to cross the stem."""
    b = sm.MapBuilder(range(1, 7))
    b.add_bone(1, 2, 3)
    b.add_loop(2, 1, {2, 3})
    outer = b.region_of_vertex(4)
    b.attach_edge(3, 4, 1, at=b.corners_on_region(1, outer)[0])
    m = b.finalize()
    tree = sm.region_tree(m, m.arcs.keys())
    inner = next(n for n in tree.nodes if tree.nodes[n].pieces
                 and tree.nodes[n].pieces[0].attach_base is None)
    outer_node = next(n for n in tree.nodes if n != inner)
    labels = [lab for lab, _ in tree.units(outer_node)]
    assert all(not lab.startswith("piece") for lab in labels)
    # the outer cluster swallows the branch: 1 base + 2 beyond + 1 branch
    assert ("loop:2", 4) in tree.units(outer_node)


def test_invalid_subgraph_rejected():
    m = polygon_cycle(6)
    with pytest.raises(InputError):
        sm.region_tree(m, m.arcs.keys())     # the full cycle is not a growth shape


def test_without_arcs_updates_regions():
    m = families.block_family(2)
    sub = m.without_arcs({2})        # drop one loop
    v, e, f, c = euler_summary(sub)
    assert v - e + f == 1 + c
    sub2 = sub.without_arcs({4})
    assert len(sub2.regions) == 1


def test_sibling_loops_map():
    m = sibling_loops(8)
    assert euler_summary(m) == (8, 8, 9, 8)
    kinds = sm.classify_components(m)
    assert all(k is sm.ComponentKind.LOOP for k in kinds)


def full_face_keys(b):
    """Face key of every dart, recomputed from the rotation lists alone."""
    sigma = {}
    for rot in b.rotations.values():
        for i, d in enumerate(rot):
            sigma[d] = rot[(i + 1) % len(rot)]
    key_of = {}
    for start in sorted(b.alpha):
        if start not in key_of:
            d = start
            while d not in key_of:
                key_of[d] = start
                d = sigma[b.alpha[d]]
    return sigma, key_of


def test_mapbuilder_face_lookup_matches_full_recompute(monkeypatch):
    checked = []

    def check(b):
        sigma, key_of = full_face_keys(b)
        assert b.sigma == sigma
        assert set(b._face_region) == set(key_of.values())
        for v, rot in b.rotations.items():
            for pos in range(len(rot)):
                assert b._corner_face_key(v, pos) == key_of[rot[(pos + 1) % len(rot)]]
        checked.append(len(b.arcs))

    for name in ("add_bone", "attach_edge", "add_loop"):
        def checked_insert(self, *args, _orig=getattr(sm.MapBuilder, name), **kwargs):
            _orig(self, *args, **kwargs)
            check(self)
        monkeypatch.setattr(sm.MapBuilder, name, checked_insert)
    rng = random.Random(11)
    for _ in range(60):
        families.random_growth_map(rng, rng.choice([4, 6, 8, 12, 16]))
    families.block_family(5)
    assert len(checked) > 300


def test_components_carry_kinds_and_arc_split():
    m = families.block_family(2)
    comps = sm.components(m, m.arcs)
    assert [(c.key, c.kind) for c in comps] == [
        (1, sm.ComponentKind.LOOP),
        (2, sm.ComponentKind.TREE),
        (4, sm.ComponentKind.LOOP),
        (5, sm.ComponentKind.TREE),
    ]
    assert comps == m.components
    for c in comps:
        assert set(c.loops) | set(c.edges) == set(c.arcs)
        assert all(m.arcs[a].kind == "loop" for a in c.loops)
    bare = sm.components(m, [])
    assert [c.kind for c in bare] == [sm.ComponentKind.ISOLATED_VERTEX] * 6
    assert sm.classify_arcs(m, [1, 3]) == {
        c.key: c.kind for c in sm.components(m, [1, 3])
    }


# -- without_arcs against the former replay of the constructor -----------


def replayed_without_arcs(smap, removed):
    """Reference: the former ``without_arcs``, which replayed the
    constructor's private steps on a bare ``SphereMap`` object."""
    removed = set(removed)
    kept_arcs = {a: smap.arcs[a] for a in smap.arcs if a not in removed}
    dead_darts = {d for a in removed for d in smap.arcs[a].darts}
    rotations = {
        v: [d for d in rot if d not in dead_darts]
        for v, rot in smap.rotations.items()
    }
    uf = sm._UnionFind(range(len(smap.regions)))
    for aid in removed:
        r1, r2 = smap.side_regions(aid)
        uf.union(r1, r2)
    classes = sorted(uf.classes())
    new_idx = {root: i for i, root in enumerate(classes)}
    groups = [{"faces": [], "isolated": []} for _ in classes]
    sub = sm.SphereMap.__new__(sm.SphereMap)
    sm.RotationSystem.__init__(sub, rotations)
    sub.arcs = kept_arcs
    sub._pair_darts()
    sub._build_faces()
    sub._build_components()
    sub.n_cone = smap.n_cone
    sub.genus = smap.genus
    sub._check_component_euler()
    for f in sub.faces:
        old_region = smap.region_of_face[smap.face_of[f[0]]]
        groups[new_idx[uf.find(old_region)]]["faces"].append(f[0])
    for v in sub.isolated:
        if v in smap.isolated:
            old_region = smap.region_of_isolated[v]
        else:
            old_region = smap.region_of_face[smap.face_of[smap.rotations[v][0]]]
        groups[new_idx[uf.find(old_region)]]["isolated"].append(v)
    sub._build_regions(groups)
    return sub


def removal_cases():
    rng = random.Random(11)
    for n in range(2, 21):
        m = families.block_family(n)
        yield m, set()
        yield m, set(m.arcs)
        yield m, set(m.arcs) - families.random_subgraph(rng, m)
    for _ in range(150):
        m = families.random_growth_map(rng, rng.choice([4, 6, 8, 12, 16, 24]))
        yield m, set(m.arcs) - families.random_subgraph(rng, m)


def test_without_arcs_matches_replayed_constructor():
    for m, removed in removal_cases():
        new = m.without_arcs(removed)
        assert new.to_dict() == replayed_without_arcs(m, removed).to_dict()
        assert set(new.arcs) == set(m.arcs) - removed


# -- region tree subtree counts against the breadth-first walks ----------


def bfs_beyond(tree, lam, node_id):
    """Reference: cone points strictly beyond ``lam``, found by walking
    the nodes on its far side."""
    a, b = tree.loop_sides[lam]
    far = {b if a == node_id else a}
    stack = list(far)
    while stack:
        n = stack.pop()
        for mu in tree.nodes[n].boundary:
            if mu == lam:
                continue
            x, y = tree.loop_sides[mu]
            other = y if x == n else x
            if other not in far:
                far.add(other)
                stack.append(other)
    count = 0
    for n in far:
        node = tree.nodes[n]
        count += len(node.isolated) + sum(len(p.vertices) for p in node.pieces)
    for mu, (x, y) in tree.loop_sides.items():
        if mu != lam and x in far and y in far:
            count += 1
    return count


def region_tree_cases():
    rng = random.Random(5)
    for n in range(2, 41):
        m = families.block_family(n)
        yield m, frozenset(m.arcs)
        yield m, families.random_subgraph(rng, m)
    for _ in range(200):
        m = families.random_growth_map(rng, rng.choice([4, 6, 8, 12, 16, 24]))
        yield m, families.random_subgraph(rng, m)


def test_region_tree_counts_match_breadth_first_walks():
    for m, sub in region_tree_cases():
        tree = sm.region_tree(m, sub)
        got = {n: tree.units(n) for n in tree.nodes}
        tree._beyond = lambda lam, node_id, t=tree: bfs_beyond(t, lam, node_id)
        want = {n: tree.units(n) for n in tree.nodes}
        assert got == want
        for units in want.values():
            assert sum(c for _, c in units) == len(m.rotations)
