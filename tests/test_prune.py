import dataclasses

import pytest

from hyperbasis import bounds, cover, families, growth, hypmodel, prune
from hyperbasis import spheremap as sm
from hyperbasis.errors import GeometricAssumptionViolated, VerificationFailure
from mapfactory import bones, random_growth_map, sibling_loops


def test_preliminary_drops_loop_of_looped_tree():
    b = sm.MapBuilder(range(1, 7))
    b.add_loop(1, 1, set())
    b.attach_edge(2, 2, 1, 0)
    m = b.finalize()
    blocks, loops, leaves, trace = prune.preliminary_steps(m)
    assert loops == [1] and leaves == []
    kinds = sm.classify_arcs(m, set(m.arcs) - set(loops + leaves)).values()
    assert sm.ComponentKind.LOOPED_TREE not in kinds
    assert sm.ComponentKind.TREE in kinds


def test_preliminary_pairs_big_tree():
    b = sm.MapBuilder(range(1, 7))
    b.add_bone(1, 1, 2)
    b.attach_edge(2, 3, 2, 0)
    b.attach_edge(3, 4, 3, 0)
    m = b.finalize()
    blocks, loops, leaves, trace = prune.preliminary_steps(m)
    # the leaf with the largest id goes; here the path is 1-2-3-4
    assert loops == [] and leaves == [3]
    kinds = sm.classify_arcs(m, set(m.arcs) - set(loops + leaves))
    assert kinds[1] is sm.ComponentKind.TREE and kinds[4] is sm.ComponentKind.ISOLATED_VERTEX
    (block,) = blocks
    assert block["isolated_vertex"] == 4
    assert sorted(block["arcs"]) == [1, 2]


def test_preliminary_keeps_bones():
    m = bones([(1, 2), (3, 4), (5, 6)], 6)
    blocks, loops, leaves, trace = prune.preliminary_steps(m)
    assert not loops and not leaves and not blocks and not trace


def test_pipeline_g2_prunes_to_four():
    model = hypmodel.regular_model(2)
    graph = growth.arc_graph(growth.simulate(model), model)
    res = prune.prune(graph)
    assert sorted(res.kept) == [1, 3, 4, 5]
    assert res.deleted == (2,)
    (block,) = res.blocks
    assert block["isolated_vertex"] == 6 and len(block["arcs"]) == 4
    rep = prune.verify(res, graph)
    assert rep["rank"] == 4 and rep["partial_basis"]


def test_block_family_case_trace():
    m = families.block_family(2)
    res = prune.prune(m)
    assert sorted(res.kept) == [1, 3]        # the two bones survive
    cases = [t["case"] for t in res.trace if "case" in t]
    assert cases[:3] == [5, 1, 3]
    levels = [t["level"] for t in res.trace if "case" in t]
    assert levels[0] == 0 and levels[-1] >= 1
    rep = prune.verify(res, m)
    assert rep["arcs_kept"] == 2 == bounds.kappa(2)


@pytest.mark.parametrize("n", range(2, 21))
def test_block_family_yields_n(n):
    m = families.block_family(n)
    res = prune.prune(m)
    assert len(res.kept) == n
    rep = prune.verify(res, m)
    assert rep["rank"] == n


def test_three_bones_case_six():
    m = bones([(1, 2), (3, 4), (5, 6)], 6)
    res = prune.prune(m)
    assert [t["case"] for t in res.trace if "case" in t] == [6]
    assert len(res.kept) == 2
    assert len(res.deleted) == 1
    paired = [b for b in res.blocks if b["kind"] == "paired"]
    assert len(paired) == 2
    assert {b["isolated_vertex"] for b in paired} == set(
        bones([(1, 2), (3, 4), (5, 6)], 6).arcs[res.deleted[0]].endpoints()
    )
    prune.verify(res, m)


def test_case_six_output_size_is_g():
    for g in (2, 3, 5):
        pairs = [(2 * i + 1, 2 * i + 2) for i in range(g + 1)]
        m = bones(pairs, 2 * g + 2)
        res = prune.prune(m)
        assert len(res.kept) == g
        assert g >= bounds.kappa(g) or len(res.kept) >= bounds.kappa(g)
        prune.verify(res, m)


def test_sibling_empty_loops_fail_case_five():
    with pytest.raises(GeometricAssumptionViolated):
        prune.prune(sibling_loops(8))


def test_nested_loops_without_contents_fail():
    b = sm.MapBuilder(range(1, 7))
    b.add_loop(1, 1, set())
    b.add_loop(2, 2, {1})
    b.add_loop(3, 3, {1, 2})
    b.add_loop(4, 4, set())
    b.add_loop(5, 5, set())
    b.add_loop(6, 6, set())
    with pytest.raises(GeometricAssumptionViolated):
        prune.prune(b.finalize())


@pytest.mark.parametrize("g", range(2, 13))
def test_simulated_pipeline_meets_floor(g):
    model = hypmodel.regular_model(g)
    graph = growth.arc_graph(growth.simulate(model), model)
    res = prune.prune(graph)
    rep = prune.verify(res, graph)
    assert rep["arcs_kept"] >= bounds.kappa(g)
    assert rep["partial_basis"]


def test_blocks_cover_kept_arcs_with_ratio():
    m = families.block_family(4)
    res = prune.prune(m)
    arcs_in_blocks = sorted(a for b in res.blocks for a in b["arcs"])
    assert arcs_in_blocks == sorted(res.kept)
    for b in res.blocks:
        nv = len(b["vertices"]) + (b["isolated_vertex"] is not None)
        assert len(b["arcs"]) / nv >= 1.0 / 3.0 - 1e-12


def test_corrupted_result_fails_verification():
    m = families.block_family(2)
    res = prune.prune(m)
    # restore a pruned loop: some region then lacks an isolated vertex
    restored = prune.PruneResult(
        kept=tuple(sorted(set(res.kept) | {2})),
        deleted=tuple(a for a in res.deleted if a != 2),
        blocks=res.blocks,
        trace=res.trace,
    )
    with pytest.raises(VerificationFailure):
        prune.verify(restored, m)


@pytest.mark.parametrize(
    "kept, deleted",
    [
        ((1, 2, 3), (2, 4)),           # arc 2 both kept and deleted
        ((1, 3), (4,)),                # arc 2 neither
        ((1, 3), (2, 4, 99)),          # arc 99 not in the map
    ],
)
def test_arc_split_mismatch_fails_verification(kept, deleted):
    m = families.block_family(2)
    res = prune.prune(m)
    assert (res.kept, sorted(res.deleted)) == ((1, 3), [2, 4])
    bad = prune.PruneResult(kept, deleted, res.blocks, res.trace)
    with pytest.raises(VerificationFailure, match="^kept arcs disagree with deletions$"):
        prune.verify(bad, m)


def test_floor_discounts_bare_input_vertices():
    m = families.block_family(3)            # 10 cone points, one of them bare
    assert (m.genus, len(m.isolated)) == (4, 1)
    rep = prune.verify(prune.prune(m), m)
    assert rep["guaranteed"] == 3 and rep["kappa"] == 4


def drop_arc_one(res):
    return dataclasses.replace(
        res,
        kept=tuple(a for a in res.kept if a != 1),
        deleted=res.deleted + (1,),
        blocks=[b for b in res.blocks if 1 not in b["arcs"]],
    )


def drop_a_block(res):
    return dataclasses.replace(res, blocks=res.blocks[1:])


def widen_a_block(res):
    first, *rest = res.blocks
    return dataclasses.replace(res, blocks=[first | {"vertices": (*first["vertices"], 10)}, *rest])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (drop_arc_one, "^only 2 arcs kept, guaranteed 3$"),
        (drop_a_block, "^blocks do not partition the kept arcs$"),
        (widen_a_block, "has ratio below one third$"),
    ],
)
def test_corrupted_accounting_fails_verification(corrupt, message):
    m = families.block_family(3)
    res = prune.prune(m)
    assert res.kept == (1, 3, 5) and len(res.blocks) == 3
    with pytest.raises(VerificationFailure, match=message):
        prune.verify(corrupt(res), m)


def breaks_gauss_bonnet(m) -> bool:
    """Whether some loop has fewer than two cone points on one side: a
    geodesic loop at an angle-pi cone point bounds a disk of area
    (k - 1)pi - theta, so disk growth never makes such a loop."""
    tree = sm.region_tree(m, m.arcs)
    for child, _parent in tree.loop_sides.values():
        far = tree.below[child]
        if min(far, m.n_cone - far - 1) < 2:
            return True
    return False


def test_random_growth_maps_prune_clean():
    import random

    rng = random.Random(9)
    clean = 0
    for _ in range(60):
        n = rng.choice([6, 8, 10, 12])
        m = random_growth_map(rng, n)
        try:
            res = prune.prune(m)
        except GeometricAssumptionViolated:
            # only maps that disk growth cannot make are rejected; the
            # converse fails, so maps breaking the rule may still prune
            assert breaks_gauss_bonnet(m)
            continue
        clean += 1
        rep = prune.verify(res, m)
        assert rep["partial_basis"]
        assert rep["arcs_kept"] >= 1
    assert clean >= 1


def test_deterministic_prune():
    m = families.block_family(6)
    a = prune.prune(m)
    b = prune.prune(families.block_family(6))
    assert a.kept == b.kept and a.deleted == b.deleted and a.trace == b.trace


def test_case_two_pairs_sibling_inner_loop():
    # ring region between a big loop and two small ones, each small loop
    # sheltering an isolated vertex: the ring fires case 2
    b = sm.MapBuilder(range(1, 7))
    b.add_loop(1, 2, {3})
    b.add_loop(2, 4, {5})
    b.add_loop(3, 1, {2, 3, 4, 5})
    m = b.finalize()
    res = prune.prune(m)
    cases = [t["case"] for t in res.trace if "case" in t]
    assert 2 in cases
    assert len(res.kept) == 2          # the paired sibling and the big loop
    rep = prune.verify(res, m)
    assert rep["partial_basis"] and rep["rank"] == 2
    paired = [blk for blk in res.blocks if blk["kind"] == "paired"]
    assert any(blk["isolated_vertex"] == 2 for blk in paired)


def test_case_four_drops_outer_of_empty_ring():
    # empty ring between two nested loops: its outer boundary goes and
    # the freed vertex pairs with the inner loop
    b = sm.MapBuilder(range(1, 7))
    b.add_loop(1, 2, {3})
    b.add_loop(2, 1, {2, 3})
    m = b.finalize()
    res = prune.prune(m)
    cases = [t["case"] for t in res.trace if "case" in t]
    assert 4 in cases
    assert res.deleted == (2,)
    assert res.kept == (1,)
    rep = prune.verify(res, m)
    assert rep["partial_basis"] and rep["rank"] == 1
    (blk,) = [blk for blk in res.blocks if blk["kind"] == "paired"]
    assert blk["arcs"] == (1,) and blk["isolated_vertex"] == 1
