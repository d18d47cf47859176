import importlib
import json
import random
import sys
from pathlib import Path

import pytest

import coverqueries
from hyperbasis import cover, families, prune
from hyperbasis import spheremap as sm
from hyperbasis.errors import ConstructionError, InputError
from mapfactory import (
    UnionFind,
    bones,
    hexagon_sub,
    polygon_cycle,
    random_growth_map,
    random_subgraph,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def census(cov):
    return {
        "chi": cov.euler(),
        "connected": coverqueries.is_connected(cov),
        "branch": len(cov.branch_vertices),
    }


def test_cover_census_g2():
    for kept in ([1], [1, 3], [1, 3, 5], [1, 2, 3, 4]):
        m = hexagon_sub(kept)
        cov = cover.build_cover(m, kept)
        assert census(cov) == {"chi": -2, "connected": True, "branch": 6}


def test_edge_lift_is_bigon():
    m = hexagon_sub([1])
    cov = cover.build_cover(m, [1])
    (cycle,) = coverqueries.lifted_cycles(cov, 1)
    assert len(cycle) == 2
    ends = {cov.edge_endpoints(ce) for ce in cycle}
    assert len(ends) == 1           # both lifts join the same two branch points
    a, b = ends.pop()
    assert a != b


def test_loop_lift_is_figure_eight():
    b = sm.MapBuilder(range(1, 7))
    b.add_loop(1, 1, {2, 3})
    m = b.finalize()
    cov = cover.build_cover(m, [1])
    cycles = coverqueries.lifted_cycles(cov, 1)
    assert [len(c) for c in cycles] == [1, 1]
    wedges = {cov.edge_endpoints(c[0]) for c in cycles}
    assert len(wedges) == 1
    v, w = wedges.pop()
    assert v == w                    # both loops hang at the one branch lift


def test_figure_eight_pair_is_separating_and_dependent():
    """Keeping both loops of a figure eight disconnects the double and
    makes their classes sum to a boundary, so the pair has rank one."""
    b = sm.MapBuilder(range(1, 7))
    b.add_loop(1, 1, {2, 3})
    m = b.finalize()
    cov = cover.build_cover(m, [1])
    kept, other = coverqueries.lifted_cycles(cov, 1)
    assert cover.complement_components(cov, set(kept)) == 1
    assert cover.complement_components(cov, set(kept) | set(other)) == 2
    assert cover.z2_cycle_rank(cov, [kept]) == 1
    assert cover.z2_cycle_rank(cov, [kept, other]) == 1


def test_loop_around_everything_is_separating():
    b = sm.MapBuilder(range(1, 7))
    b.add_loop(1, 1, {2, 3, 4, 5, 6})
    m = b.finalize()
    assert cover.verdict(m, [1], sm.is_nonseparating(m, [1])) == (2, 0)
    cov = cover.build_cover(m, [1])
    assert cover.complement_components(cov) == 2
    assert cover.z2_cycle_rank(cov, [cov.kept_cycle[1]]) == 0


def test_complement_counts_hexagon():
    m3 = hexagon_sub([1, 3, 5])
    assert cover.complement_components(cover.build_cover(m3, [1, 3, 5])) == 2
    m2 = hexagon_sub([1, 3])
    assert cover.complement_components(cover.build_cover(m2, [1, 3])) == 1
    m0 = polygon_cycle(6)
    assert cover.complement_components(cover.build_cover(m0, [])) == 1


def test_h1_dimension_is_twice_genus():
    for kept in ([1], [1, 3, 5]):
        m = hexagon_sub(kept)
        cov = cover.build_cover(m, kept)
        assert coverqueries.h1_dimension(cov) == 2 * m.genus
    m8 = bones([(1, 2), (3, 4)], 8)
    cov = cover.build_cover(m8, [1, 2])
    assert m8.genus == 3 and coverqueries.h1_dimension(cov) == 6


def test_full_path_gives_maximal_rank():
    m = hexagon_sub([1, 2, 3, 4])
    assert cover.verdict(m, [1, 2, 3, 4], sm.is_nonseparating(m, [1, 2, 3, 4])) == (1, 4)
    cov = cover.build_cover(m, [1, 2, 3, 4])
    assert cover.z2_cycle_rank(cov, [cov.kept_cycle[a] for a in (1, 2, 3, 4)]) == 4


def test_block_family_rank():
    m = families.block_family(2)
    assert cover.verdict(m, [1, 3], sm.is_nonseparating(m, [1, 3])) == (1, 2)
    cov = cover.build_cover(m, [1, 3])
    assert cover.z2_cycle_rank(cov, [cov.kept_cycle[1], cov.kept_cycle[3]]) == 2


def test_z2_rank_rejects_non_cycle():
    m = hexagon_sub([1])
    cov = cover.build_cover(m, [1])
    (ce0, ce1) = cov.kept_cycle[1]
    with pytest.raises(InputError):
        cover.z2_cycle_rank(cov, [{ce0}])    # half a bigon has boundary


def test_z2_rank_names_the_smallest_unknown_edge():
    cov = cover.build_cover(families.block_family(2), [1, 3])
    assert cov.n_edges == 18
    for cycle in ([33, 40], [40, 33]):
        with pytest.raises(InputError, match="unknown cover edge 33$"):
            cover.z2_cycle_rank(cov, [cycle])


def test_winding_parities():
    cov = cover.build_cover(polygon_cycle(6), [])
    circle = coverqueries.vertex_circle(cov, 1)
    assert coverqueries.winding_parity(cov, circle) == 1
    # two hexagon sides cut off the vertices between them
    e = {a: cov.master.edge_of_arc[a] for a in range(1, 7)}
    assert coverqueries.winding_parity(cov, [e[1], e[2]]) == 1        # encloses {2}
    assert coverqueries.winding_parity(cov, [e[1], e[3]]) == 0        # encloses {2,3}
    assert coverqueries.winding_parity(cov, [e[1], e[4]]) == 1
    assert coverqueries.winding_parity(cov, []) == 0
    assert coverqueries.winding_parity(cov, [e[1], e[1]]) == 0        # contractible


def test_winding_rejects_vertex_pinch():
    # innermost and outermost of three nested loops share no face, so a
    # walk crossing just these two would have to pass through a vertex
    b = sm.MapBuilder(range(1, 7))
    b.add_loop(1, 1, set())
    b.add_loop(2, 2, {1})
    b.add_loop(3, 3, {1, 2})
    m = b.finalize()
    cov = cover.build_cover(m, [1])
    inner = cov.master.edge_of_arc[1]
    outer = cov.master.edge_of_arc[3]
    with pytest.raises(InputError):
        coverqueries.winding_parity(cov, [inner, outer])
    # stepping through the middle loop on the way out and back is fine
    mid = cov.master.edge_of_arc[2]
    assert coverqueries.winding_parity(cov, [inner, mid, outer, outer, mid, inner]) == 0


def test_winding_parity_additivity_random():
    rng = random.Random(31)
    for _ in range(40):
        m = random_growth_map(rng, rng.choice([6, 8, 10]))
        cov = cover.build_cover(m, random_subgraph(rng, m))
        for v in sorted(m.rotations):
            if m.rotations[v]:
                assert coverqueries.winding_parity(cov, coverqueries.vertex_circle(cov, v)) == 1


def test_partial_basis_never_exceeds_2g():
    rng = random.Random(77)
    for _ in range(120):
        m = random_growth_map(rng, rng.choice([4, 6, 8]))
        H = random_subgraph(rng, m)
        if cover.verdict(m, H, sm.is_nonseparating(m, H))[0] == 1:
            assert len(H) <= 2 * m.genus


def test_parity_and_cover_agree_past_12_cone_points():
    """Arc systems on 14 to 60 cone points: the parity test and the
    cover's complement count and rank never disagree, and both verdicts
    occur."""
    basis = {True: 0, False: 0}
    for seed in range(400):
        rng = random.Random(seed)
        m = random_growth_map(rng, rng.randrange(14, 61, 2))
        for _ in range(3):
            H = random_subgraph(rng, m)
            components, _ = cover.verdict(m, H, sm.is_nonseparating(m, H))
            basis[components == 1] += 1
    assert basis[True] and basis[False]


def test_branch_cuts_avoid_arc_system():
    rng = random.Random(5)
    for _ in range(60):
        m = random_growth_map(rng, rng.choice([4, 6, 8, 10]))
        H = random_subgraph(rng, m)
        cov = cover.build_cover(m, H)
        for aid in H:
            assert cov.master.edge_of_arc[aid] not in cov.master.branch_cuts


def test_deck_involution_properties():
    m = hexagon_sub([1, 2, 3])
    cov = cover.build_cover(m, [1, 2, 3])
    fixed = [
        cv for cv in range(cov.n_vertices) if coverqueries.deck_vertex(cov, cv) == cv
    ]
    assert sorted(fixed) == cov.branch_vertices
    assert len(fixed) == 6


def test_debug_dump_roundtrips_json():
    m = hexagon_sub([1, 3])
    cov = cover.build_cover(m, [1, 3])
    data = json.loads(coverqueries.debug_json(cov))
    assert data["euler"] == -2
    assert data["n_vertices"] - data["n_edges"] + data["n_faces"] == -2


# -- differential references ---------------------------------------------


def rotation_faces(rotations, alpha):
    """Face orbits recomputed from the rotation lists alone, each
    starting at its smallest dart, sorted by it."""
    sigma = {}
    for rot in rotations.values():
        for i, d in enumerate(rot):
            sigma[d] = rot[(i + 1) % len(rot)]
    seen, faces = set(), []
    for start in sorted(alpha):
        if start not in seen:
            face, d = [], start
            while d not in seen:
                seen.add(d)
                face.append(d)
                d = sigma[alpha[d]]
            faces.append(tuple(face))
    return sigma, faces


class RestartMaster(cover.MasterComplex):
    """Scaffold chords by a naive fan.  The faces are taken once before
    any chord.  Each face is walked once, cyclically from its smallest
    dart y at its smallest vertex u, and every dart whose vertex is
    outside u's component gets a chord from the corner into y to the
    corner into that dart.  The union-find of the complex minus H is
    rebuilt before every dart, and corners are found by scanning every
    rotation list."""

    def _corner_handle(self, face: tuple[int, ...], vertex: int) -> int:
        """Dart d at ``vertex`` whose corner (d -> sigma(d)) lies on ``face``:
        the rotation predecessor of the face's smallest dart at the vertex."""
        y = min(d for d in face if self.dart_vertex[d] == vertex)
        return rotation_predecessor(self.rotations, y)

    def _scaffold_regions(self) -> None:
        """Chain the faces and bare vertices of each region together."""
        smap = self.smap
        for region in smap.regions:
            anchors: list[tuple[int, int | None]] = []
            for fkey in region["faces"]:
                face = smap.faces[fkey]
                v = min(self.dart_vertex[d] for d in face)
                anchors.append((v, self._corner_handle(face, v)))
            for v in region["isolated"]:
                anchors.append((v, None))
            anchors.sort(key=lambda a: (a[0], -1 if a[1] is None else a[1]))
            for i in range(len(anchors) - 1):
                u, du = anchors[i]
                w, dw = anchors[i + 1]
                p, q = self._insert_arc(u, du, w, dw)
                self.edges.append(cover._Edge(len(self.edges), (p, q), None))
                # subsequent hops leave from the dart just planted
                anchors[i + 1] = (w, q)

    def _reduced_components(self) -> UnionFind:
        uf = UnionFind(self.rotations)
        for e in self.edges:
            if e.arc_id not in self.subgraph:
                uf.union(self.dart_vertex[e.darts[0]], self.dart_vertex[e.darts[1]])
        return uf

    def _scaffold_connectivity(self):
        self.faces_before = rotation_faces(self.rotations, self.alpha)[1]
        self.edges_before = len(self.edges)
        self.components_before = len(self._reduced_components().classes())
        for face in self.faces_before:
            u = min(self.dart_vertex[d] for d in face)
            y = min(d for d in face if self.dart_vertex[d] == u)
            handle, i = rotation_predecessor(self.rotations, y), face.index(y)
            for x in face[i + 1:] + face[:i]:
                uf = self._reduced_components()
                w = self.dart_vertex[x]
                if uf.find(w) != uf.find(u):
                    darts = self._insert_arc(
                        u, handle, w, rotation_predecessor(self.rotations, x)
                    )
                    self.edges.append(cover._Edge(len(self.edges), darts, None))
        assert len(self._reduced_components().classes()) == 1


def rotation_predecessor(rotations, d):
    for rot in rotations.values():
        if d in rot:
            return rot[rot.index(d) - 1]
    raise AssertionError(f"unknown dart {d}")


def scan_edge_endpoints(cov, ce):
    lifts = [dl for dl, e in enumerate(cov.edge_of_lift) if e == ce]
    return tuple(sorted(cov.vertex_of_lift[dl] for dl in lifts))


def scan_deck_vertex(cov, cv):
    for dl, v in enumerate(cov.vertex_of_lift):
        if v == cv:
            return cov.vertex_of_lift[dl ^ 1]
    raise AssertionError(f"unknown cover vertex {cv}")


def perfbench_gen():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(str(PERFBENCH))


def pruned_masters(m):
    """The arcs prune keeps on m, over the map prune's verify covers (the
    input) and the one `verify --map kept.json` covers (deletions erased)."""
    kept = sorted(prune.prune(m).kept)
    yield m, kept
    yield m.without_arcs(set(m.arcs) - set(kept)), kept


def differential_cases():
    for n in range(2, 41):
        m = families.block_family(n)
        yield m, sorted(m.arcs)
        yield m, [a for a in sorted(m.arcs) if m.arcs[a].kind == "edge"]
    rng = random.Random(2024)
    for _ in range(150):
        m = random_growth_map(rng, rng.choice([4, 6, 8, 12, 16, 24]))
        yield m, random_subgraph(rng, m)


def scaffold_cases():
    yield from differential_cases()
    gen = perfbench_gen()
    for n in gen.BLOCK_SIZES:                  # the seed-1 block-prune maps
        m = sm.from_json(json.dumps(gen.block_map(n)))
        yield m, sorted(m.arcs)
        yield from pruned_masters(m)
    rng = random.Random(41)
    for _ in range(40):
        smap, _model = gen.nested_arrangement(rng, rng.randrange(8, 65, 2))
        m = sm.from_json(json.dumps(smap))
        yield m, sorted(m.arcs)
        yield m, random_subgraph(rng, m)


def test_single_pass_scaffold_matches_restart_loop(monkeypatch):
    for m, sub in scaffold_cases():
        cov = cover.build_cover(m, sub)
        with monkeypatch.context() as mp:
            mp.setattr(cover, "MasterComplex", RestartMaster)
            ref = cover.build_cover(m, sub)
        got, want = cov.master, ref.master
        assert type(want) is RestartMaster
        assert got.edges == want.edges
        assert got.rotations == want.rotations
        assert got.branch_cuts == want.branch_cuts
        # sigma kept up to date by every insertion
        assert got.sigma == rotation_faces(got.rotations, got.alpha)[0]
        assert cov.vertex_of_lift == ref.vertex_of_lift
        assert cov.edge_of_lift == ref.edge_of_lift
        assert cov.face_of_lift == ref.face_of_lift
        # one chord per merge, each across a face of the complex before
        # any chord: past the newer chords fanned out of the same corner,
        # the darts after its two ends in rotation share a face
        chords = got.edges[want.edges_before:]
        assert len(chords) == want.components_before - 1
        face_of = {d: f for f, face in enumerate(want.faces_before) for d in face}
        for e in chords:
            assert e.arc_id is None
            ends = []
            for d in e.darts:
                d = got.sigma[d]
                while d not in face_of:
                    d = got.sigma[d]
                ends.append(face_of[d])
            assert ends[0] == ends[1]


def test_lift_tables_match_linear_scans():
    for m, sub in differential_cases():
        cov = cover.build_cover(m, sub)
        for ce in range(cov.n_edges):
            assert cov.edge_endpoints(ce) == scan_edge_endpoints(cov, ce)
        for cv in range(cov.n_vertices):
            assert coverqueries.deck_vertex(cov, cv) == scan_deck_vertex(cov, cv)
    with pytest.raises(InputError):
        coverqueries.deck_vertex(cov, cov.n_vertices)


class CountingDict(dict):
    """A dict that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


class CountingParents:
    """A union-find parent table that counts its reads and writes through."""

    reads = 0

    def __init__(self, parent):
        self.parent = parent

    def __getitem__(self, x):
        CountingParents.reads += 1
        return self.parent[x]

    def __setitem__(self, x, p):
        self.parent[x] = p


ROOT = cover._root


def counting_root(parent, x):
    return ROOT(CountingParents(parent), x)


class CountingMaster(cover.MasterComplex):
    """Counts the sigma reads and union-find parent reads of the chord pass."""

    def _scaffold_connectivity(self):
        plain, self.sigma = self.sigma, CountingDict(self.sigma)
        CountingParents.reads = 0
        super()._scaffold_connectivity()
        plain.update(self.sigma)
        self.sigma_reads, self.sigma = self.sigma.reads, plain
        self.parent_reads = CountingParents.reads


def test_scaffold_work_grows_linearly(monkeypatch):
    """Each face is walked once, and the chords fanned out of it never
    send the walk back; a chord pass that re-walks the big outer face
    once per chord reads sigma about 400 times per dart at 400 blocks,
    and its reads grow 4x per doubling.  Each union-find lookup reads
    the parent table at least once, so a pass that stopped using
    ``_root`` would read 0 here."""
    monkeypatch.setattr(cover, "_root", counting_root)
    work = {}
    for n in (100, 200, 400):
        for which, case in enumerate(pruned_masters(families.block_family(n))):
            master = CountingMaster(*case)
            darts = len(master.dart_vertex)
            assert master.sigma_reads <= 10 * darts
            assert len(master.rotations) <= master.parent_reads <= 10 * darts
            work[n, which] = (master.sigma_reads, master.parent_reads)
    for which in (0, 1):
        assert work[400, which][0] <= 2.5 * work[200, which][0]
        assert work[400, which][1] <= 2.5 * work[200, which][1]


# -- the lift tables, one lift at a time --------------------------------


class PerLiftCover(cover.CoverComplex):
    """The cover with its lift tables filled one lift at a time, and its
    sheet swap and edge pairing checked one lift at a time."""

    def __init__(self, master):
        self.master = master
        self.n_cone = master.smap.n_cone
        self.darts = darts = sorted(master.dart_vertex)
        self.dart_index = index = {d: i for i, d in enumerate(darts)}
        cut = {d for e in master.branch_cuts for d in master.edges[e].darts}
        on_cut = [d in cut for d in darts]
        sigma_hat = [0] * (2 * len(darts))
        alpha_hat = [0] * (2 * len(darts))
        for i, d in enumerate(darts):
            si = index[master.sigma[d]]
            ai = index[master.alpha[d]]
            for s in (0, 1):
                sigma_hat[2 * i + s] = 2 * si + (s ^ on_cut[si])
                alpha_hat[2 * i + s] = 2 * ai + (s ^ on_cut[i])
        self.sigma_hat, self.alpha_hat = sigma_hat, alpha_hat
        self.vertex_of_lift, self.lift_of_vertex = cover._orbit_ids(sigma_hat)
        self.edge_of_lift, self.lift_of_edge = cover._orbit_ids(alpha_hat)
        self.face_of_lift, face_firsts = cover._orbit_ids([sigma_hat[a] for a in alpha_hat])
        self.n_vertices = len(self.lift_of_vertex)
        self.n_edges = len(self.lift_of_edge)
        self.n_faces = len(face_firsts)
        vertex_of = self.vertex_of_lift
        self.branch_vertices = sorted(
            {cv for dl, cv in enumerate(vertex_of) if cv == vertex_of[dl ^ 1]}
        )
        self.kept_cycle = {}
        self.hsharp = set()
        self._lift_arcs()
        self._validate()

    def _validate(self):
        for dl in range(len(self.sigma_hat)):
            if self.sigma_hat[dl ^ 1] != self.sigma_hat[dl] ^ 1:
                raise ConstructionError("sheet swap is not a map automorphism")
            if self.alpha_hat[dl ^ 1] != self.alpha_hat[dl] ^ 1:
                raise ConstructionError("sheet swap is not a map automorphism")
            if self.alpha_hat[self.alpha_hat[dl]] != dl:
                raise ConstructionError("edge pairing is not an involution")


def test_bulk_lift_tables_match_the_per_lift_reference(monkeypatch):
    for m, sub in scaffold_cases():
        cov = cover.build_cover(m, sub)
        ref = PerLiftCover(cov.master)
        for table in (
            "sigma_hat", "alpha_hat", "vertex_of_lift", "edge_of_lift", "face_of_lift",
            "branch_vertices", "kept_cycle", "hsharp",
        ):
            assert getattr(cov, table) == getattr(ref, table), table
        parity = sm.is_nonseparating(m, sub)
        got = cover.verdict(m, sub, parity)
        with monkeypatch.context() as mp:
            mp.setattr(cover, "CoverComplex", PerLiftCover)
            assert cover.verdict(m, sub, parity) == got


# -- fault injection: one corrupted table per cover invariant -------------


def faulty_master(corrupt):
    """Master complex of block_family(2) around arcs 1 (an edge) and 2 (a
    loop), with ``corrupt`` applied once it is built."""
    master = cover.MasterComplex(families.block_family(2), [1, 2])
    corrupt(master)
    return master


def faulty_cover(corrupt):
    """The cover over ``faulty_master``, with ``corrupt`` applied once it
    is built and validated."""
    cov = cover.CoverComplex(faulty_master(lambda master: None))
    corrupt(cov)
    return cov


def first_lifts(cov, aid):
    """The two lifts of arc ``aid``'s first dart."""
    i = cov.dart_index[cov.master.smap.arcs[aid].darts[0]]
    return 2 * i, 2 * i + 1


def merge_lifts(cov, aid):
    """Put both lifts of the arc's first dart on one cover edge."""
    dl0, dl1 = first_lifts(cov, aid)
    cov.edge_of_lift[dl1] = cov.edge_of_lift[dl0]


def move_end(cov, aid):
    """Move one end of the arc's first lifted edge to another vertex."""
    dl = cov.lift_of_edge[cov.edge_of_lift[first_lifts(cov, aid)[0]]]
    cov.vertex_of_lift[dl] = (cov.vertex_of_lift[dl] + 1) % cov.n_vertices


def pair_first_lifts(cov):
    """Pair the two lifts of dart 0 with each other: the sheet swap holds,
    and their old partners still point at them."""
    cov.alpha_hat[0], cov.alpha_hat[1] = 1, 0


# corruptions of sigma-hat or alpha-hat that only the last two checks see
SHEET_FAULTS = [
    pytest.param(lambda c: c.sigma_hat.__setitem__(1, c.sigma_hat[1] ^ 1),
                 "sheet swap is not a map automorphism", id="sigma swap"),
    pytest.param(lambda c: c.alpha_hat.__setitem__(1, c.alpha_hat[1] ^ 1),
                 "sheet swap is not a map automorphism", id="alpha swap"),
    pytest.param(pair_first_lifts, "edge pairing is not an involution", id="alpha involution"),
]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: faulty_master(lambda m: m.edges.append(m.edges[-1]))._check_euler(),
         "refined complex has Euler characteristic 1"),
        (lambda: cover.CoverComplex(faulty_master(lambda m: m.branch_cuts.add(m.edge_of_arc[1]))),
         "branch cut runs along arc 1"),
        (lambda: faulty_cover(lambda c: merge_lifts(c, 1))._lift_arcs(),
         "edge arc 1 lifted to one edge"),
        (lambda: faulty_cover(lambda c: move_end(c, 1))._lift_arcs(),
         "edge arc 1 lift is not a bigon"),
        (lambda: faulty_cover(lambda c: merge_lifts(c, 2))._lift_arcs(),
         "loop arc 2 lifted to one edge"),
        (lambda: faulty_cover(lambda c: move_end(c, 2))._lift_arcs(),
         "loop arc 2 lift is not a figure eight"),
        (lambda: faulty_cover(lambda c: setattr(c, "n_faces", c.n_faces + 1))._validate(),
         "cover Euler characteristic -1, expected -2"),
        (lambda: faulty_cover(lambda c: setattr(c, "alpha_hat", list(range(len(c.alpha_hat)))))._validate(),
         "cover is disconnected"),
        (lambda: faulty_cover(lambda c: c.branch_vertices.pop())._validate(),
         "sheet swap does not fix exactly the cone points"),
    ],
    ids=["refined euler", "cut along H", "edge on one edge", "edge not a bigon",
         "loop on one edge", "loop not a figure eight", "cover euler", "disconnected",
         "branch points"],
)
def test_a_corrupted_table_fails_its_check(build, message):
    with pytest.raises(ConstructionError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("corrupt, message", SHEET_FAULTS)
def test_a_corrupted_lift_table_fails_its_check_and_the_per_lift_one(corrupt, message):
    cov = faulty_cover(corrupt)
    for validate in (cover.CoverComplex._validate, PerLiftCover._validate):
        with pytest.raises(ConstructionError) as info:
            validate(cov)
        assert str(info.value) == message

