"""``MapBuilder`` against the former builder that recomputed its face,
component and region bookkeeping on every query: both are driven with
the same insertions, and every answer must agree after each one."""

import importlib
import random
import sys
from pathlib import Path

import pytest

from hyperbasis import families, growth, hypmodel
from hyperbasis import spheremap as sm
from hyperbasis.errors import EmbeddingError, HyperbasisError, InputError
from test_growth import attach_path_model, fig4_style_model, forced_selftouch_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MapBuilder = sm.MapBuilder       # the twin fixture replaces the module names


class ReferenceMapBuilder(sm.RotationSystem):
    """Reference: the former builder, with a component union-find, a
    face walk per corner lookup and a region search per item."""

    def __init__(self, vertex_ids):
        super().__init__({int(v): [] for v in vertex_ids})
        if len(self.rotations) < 2:
            raise InputError("need at least two vertices")
        self.arcs = {}
        self._regions = [{"faces": set(), "isolated": set(self.rotations)}]
        self._face_region = {}
        self._comp_uf = sm._UnionFind(self.rotations)

    def _corner_face_key(self, v, pos):
        rot = self.rotations[v]
        return min(self.face(rot[(pos + 1) % len(rot)]))

    def region_of_vertex(self, v):
        for i, r in enumerate(self._regions):
            if v in r["isolated"]:
                return i
        raise InputError(f"vertex {v} is not isolated")

    def corners_on_region(self, w, region):
        out = []
        for pos in range(len(self.rotations[w])):
            if self._face_region.get(self._corner_face_key(w, pos)) == region:
                out.append(pos)
        return out

    def region_item_contents(self, region):
        region_of_face = self._face_region
        comp_of_face = {
            fk: self._comp_uf.find(self.dart_vertex[fk]) for fk in region_of_face
        }
        comp_faces = {}
        for fk, c in comp_of_face.items():
            comp_faces.setdefault(c, []).append(fk)
        comp_vertices = {}
        for v in self.rotations:
            comp_vertices.setdefault(self._comp_uf.find(v), set()).add(v)

        def subtree(face_key, from_region):
            out = set()
            comp_stack = [(comp_of_face[face_key], from_region)]
            seen_regions = {from_region}
            while comp_stack:
                comp, via_region = comp_stack.pop()
                out |= comp_vertices[comp]
                for fk in comp_faces[comp]:
                    r = region_of_face[fk]
                    if r in seen_regions:
                        continue
                    seen_regions.add(r)
                    out |= self._regions[r]["isolated"]
                    for fk2 in self._regions[r]["faces"]:
                        c2 = comp_of_face[fk2]
                        if c2 != comp:
                            comp_stack.append((c2, r))
            return frozenset(out)

        items = []
        for fk in sorted(self._regions[region]["faces"]):
            items.append({"face": fk, "vertices": subtree(fk, region)})
        for v in sorted(self._regions[region]["isolated"]):
            items.append({"face": None, "vertices": frozenset({v})})
        return items

    def add_bone(self, arc_id, u, w):
        ru, rw = self.region_of_vertex(u), self.region_of_vertex(w)
        if ru != rw:
            raise EmbeddingError(f"vertices {u} and {w} lie in different regions")
        if u == w:
            raise EmbeddingError("a bone needs distinct endpoints")
        p, q = self._insert_arc(u, None, w, None)
        self._register(arc_id, "edge", u, w, (p, q))
        region = self._regions[ru]
        region["isolated"] -= {u, w}
        region["faces"].add(p)
        self._face_region[p] = ru
        self._comp_uf.union(u, w)

    def attach_edge(self, arc_id, fresh, host, at=0):
        if not self.rotations[host]:
            raise EmbeddingError(f"host vertex {host} has no darts")
        if self.rotations[fresh]:
            raise EmbeddingError(f"vertex {fresh} is not bare")
        at %= len(self.rotations[host])
        fkey = self._corner_face_key(host, at)
        region = self._face_region[fkey]
        if self.region_of_vertex(fresh) != region:
            raise EmbeddingError(
                f"vertex {fresh} is not in the region behind that corner"
            )
        p, q = self._insert_arc(host, self.rotations[host][at], fresh, None)
        self._register(arc_id, "edge", host, fresh, (p, q))
        self._regions[region]["isolated"].discard(fresh)
        self._comp_uf.union(host, fresh)

    def add_loop(self, arc_id, v, enclosed):
        region = self.region_of_vertex(v)
        enclosed = {int(x) for x in enclosed}
        if v in enclosed:
            raise EmbeddingError("a loop cannot enclose its own base")
        inside_faces = set()
        inside_isolated = set()
        covered = set()
        for item in self.region_item_contents(region):
            vs = item["vertices"]
            if not vs & enclosed:
                continue
            if vs == {v}:
                continue
            if not vs <= enclosed:
                raise EmbeddingError(
                    f"item with vertices {sorted(vs)} straddles the new loop"
                )
            covered |= vs
            if item["face"] is None:
                inside_isolated.update(vs)
            else:
                inside_faces.add(item["face"])
        if covered != enclosed:
            raise EmbeddingError(
                f"vertices {sorted(enclosed - covered)} are not in this region"
            )
        p, q = self._insert_arc(v, None, v, None)
        self._register(arc_id, "loop", v, v, (p, q))
        outer = self._regions[region]
        outer["isolated"].discard(v)
        outer["isolated"] -= inside_isolated
        outer["faces"] -= inside_faces
        outer["faces"].add(q)
        self._face_region[q] = region
        self._regions.append({"faces": inside_faces | {p}, "isolated": inside_isolated})
        ridx = len(self._regions) - 1
        self._face_region[p] = ridx
        for fk in inside_faces:
            self._face_region[fk] = ridx

    def _register(self, arc_id, kind, u, w, darts):
        if arc_id in self.arcs:
            raise InputError(f"duplicate arc id {arc_id}")
        self.arcs[arc_id] = sm.Arc(id=arc_id, kind=kind, u=u, v=w, darts=tuple(darts))

    def finalize(self):
        regions = [
            {"faces": sorted(r["faces"]), "isolated": sorted(r["isolated"])}
            for r in self._regions
        ]
        return sm.SphereMap(self.rotations, self.arcs, regions=regions)


class TwinBuilder:
    """Forwards every call to a ``MapBuilder`` and a reference builder,
    asserts equal answers, and after each insertion compares every
    region query on every vertex and region."""

    insertions = 0

    def __init__(self, vertex_ids):
        vertex_ids = list(vertex_ids)
        self.new = MapBuilder(vertex_ids)
        self.ref = ReferenceMapBuilder(vertex_ids)
        self.rotations = self.new.rotations

    def _both(self, name, *args):
        got = getattr(self.new, name)(*args)
        assert got == getattr(self.ref, name)(*args), (name, args)
        return got

    def region_of_vertex(self, v):
        return self._both("region_of_vertex", v)

    def corners_on_region(self, w, region):
        return self._both("corners_on_region", w, region)

    def region_item_contents(self, region):
        return self._both("region_item_contents", region)

    def add_bone(self, *args):
        self._both("add_bone", *args)
        self._check()

    def attach_edge(self, *args):
        self._both("attach_edge", *args)
        self._check()

    def add_loop(self, *args):
        self._both("add_loop", *args)
        self._check()

    def finalize(self):
        got = self.new.finalize()
        assert got.to_dict() == self.ref.finalize().to_dict()
        return got

    def _check(self):
        new, ref = self.new, self.ref
        TwinBuilder.insertions += 1
        assert new.rotations == ref.rotations and new.arcs == ref.arcs
        regions = range(len(ref._regions))
        assert new._n_regions == len(regions)
        for v, rot in ref.rotations.items():
            if not rot:
                assert new.region_of_vertex(v) == ref.region_of_vertex(v)
                continue
            for r in regions:
                assert new.corners_on_region(v, r) == ref.corners_on_region(v, r)
        for r in regions:
            assert new.region_item_contents(r) == ref.region_item_contents(r)


@pytest.fixture
def twin(monkeypatch):
    """Every builder that growth, the families and the benchmark's input
    generator make is a twin."""
    for owner in (sm, families, hypmodel):
        monkeypatch.setattr(owner, "MapBuilder", TwinBuilder)
    monkeypatch.setattr(TwinBuilder, "insertions", 0)
    return TwinBuilder


def test_random_growth_maps_match_reference(twin):
    rng = random.Random(8)
    for _ in range(300):
        families.random_growth_map(rng, rng.randrange(4, 41, 2))
    assert twin.insertions > 5000


def test_block_family_matches_reference(twin):
    for n in range(2, 31):
        families.block_family(n)
    assert twin.insertions == sum(2 * n for n in range(2, 31))


@pytest.mark.parametrize(
    "make",
    [lambda g=g: hypmodel.regular_model(g) for g in range(2, 31)]
    + [forced_selftouch_model, fig4_style_model, attach_path_model],
    ids=[f"regular-g{g}" for g in range(2, 31)] + ["selftouch", "fig4", "attach-path"],
)
def test_growth_arc_graphs_match_reference(twin, make):
    model = make()
    log = growth.simulate(model)
    model.build_arc_graph(log)
    assert twin.insertions == len(log.events)


def test_benchmark_nested_arrangements_match_reference(twin):
    sys.path.insert(0, str(PERFBENCH))
    try:
        gen = importlib.import_module("gen")
    finally:
        sys.path.remove(str(PERFBENCH))
    rng = random.Random(3)
    for _ in range(40):
        gen.nested_arrangement(rng, rng.randrange(8, 41, 2))
    assert twin.insertions > 500


def test_rejected_duplicate_arc_id_changes_nothing():
    b = MapBuilder(range(1, 7))
    b.add_bone(1, 1, 2)
    with pytest.raises(InputError, match="duplicate arc id 1"):
        b.add_bone(1, 3, 4)
    with pytest.raises(InputError, match="duplicate arc id 1"):
        b.attach_edge(1, 3, 1)
    with pytest.raises(InputError, match="duplicate arc id 1"):
        b.add_loop(1, 3, set())
    clean = MapBuilder(range(1, 7))
    clean.add_bone(1, 1, 2)
    assert b.finalize().to_dict() == clean.finalize().to_dict()
    b.add_bone(2, 3, 4)
    clean.add_bone(2, 3, 4)
    assert b.finalize().to_dict() == clean.finalize().to_dict()


@pytest.mark.parametrize(
    "insert",
    [
        lambda b: b.add_bone(9, 7, 8),          # 7 lies inside loop 2
        lambda b: b.add_bone(9, 1, 5),          # 1 is not bare
        lambda b: b.attach_edge(9, 7, 1, 0),    # corner outside loop 2
        lambda b: b.attach_edge(9, 8, 5, 0),    # host without darts
        lambda b: b.add_loop(9, 8, {1}),        # splits the tree {1, 2, 4}
        lambda b: b.add_loop(9, 8, {7}),        # splits loop 2 from its inside
        lambda b: b.add_loop(9, 7, {3}),        # the base of loop 2 from inside
        lambda b: b.add_loop(9, 8, {99}),
        lambda b: b.add_loop(9, 8, {8}),
    ],
)
def test_rejected_insertions_match_reference(insert):
    errors = []
    for make in (MapBuilder, ReferenceMapBuilder):
        b = make(range(1, 11))
        b.add_bone(1, 1, 2)
        b.add_loop(2, 3, {7})
        b.attach_edge(3, 4, 1, 0)
        with pytest.raises(HyperbasisError) as exc:
            insert(b)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
