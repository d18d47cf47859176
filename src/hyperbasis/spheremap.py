"""Embedded multigraphs on the marked sphere.

A map is a rotation system: every arc contributes two darts, ``alpha``
swaps the darts of an arc, and each vertex carries its incident darts in
counterclockwise cyclic order.  Faces are the orbits of sigma o alpha;
the two faces along an arc are the orbits of its two darts, and the
corner swept counterclockwise from dart ``d`` to its rotation successor
lies in the face orbit containing sigma(d).

``RotationSystem`` holds these permutations once for every layer that
walks them: the validated ``SphereMap``, the growth-order ``MapBuilder``
and the cover's ``MasterComplex`` all derive from it.  Its one arc
insertion keeps sigma up to date, ``face`` walks a single face, and
``face_orbits`` lists them all.  ``components`` is the one connected
component pass over a subgraph; the map's own components and the
component kinds come from it.

Rotation systems determine the embedding of each connected component,
but not how separate components nest inside one another's faces, so a
map additionally carries a region partition: the per-component faces
that bound one common complementary domain of the whole arrangement are
grouped together, and every degree-zero vertex is assigned to a region.
The partition is valid exactly when each component has genus zero and
the component/region incidence graph is a tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .errors import EmbeddingError, InputError
from .jsonio import json_int

__all__ = [
    "ComponentKind",
    "Arc",
    "Component",
    "RotationSystem",
    "SphereMap",
    "MapBuilder",
    "from_json",
    "components",
    "classify_components",
    "classify_arcs",
    "RegionNode",
    "RegionTree",
    "region_tree",
    "region_admits_odd_curve",
    "is_nonseparating",
]


class ComponentKind(Enum):
    ISOLATED_VERTEX = "isolated-vertex"
    LOOP = "loop"
    TREE = "tree"
    LOOPED_TREE = "looped-tree"
    INVALID = "invalid"


@dataclass(frozen=True)
class Arc:
    id: int
    kind: str                 # "edge" | "loop"
    u: int                    # vertex of darts[0]
    v: int                    # vertex of darts[1]
    darts: tuple[int, int]

    @property
    def base(self) -> int:
        if self.kind != "loop":
            raise InputError(f"arc {self.id} is not a loop")
        return self.u

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class Component:
    key: int                      # smallest vertex id
    vertices: tuple[int, ...]
    arcs: tuple[int, ...]
    loops: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def kind(self) -> ComponentKind:
        nl, ne, nv = len(self.loops), len(self.edges), len(self.vertices)
        if nl == 0 and ne == 0:
            return ComponentKind.ISOLATED_VERTEX
        if nl == 1 and ne == 0 and nv == 1:
            return ComponentKind.LOOP
        if nl == 0 and ne == nv - 1:
            return ComponentKind.TREE
        if nl == 1 and ne == nv - 1 and ne >= 1:
            return ComponentKind.LOOPED_TREE
        return ComponentKind.INVALID


class _UnionFind:
    """Union-find over arbitrary hashable items, path halving."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def _orbits(perm: dict[int, int]) -> list[tuple[int, ...]]:
    """Cycles of a permutation given as a dict, each starting at its
    smallest element, sorted by that element.  A scan in sorted order
    meets every cycle first at its smallest element."""
    seen = set()
    cycles = []
    for start in sorted(perm):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        d = perm[start]
        while d != start:
            cyc.append(d)
            seen.add(d)
            d = perm[d]
        cycles.append(tuple(cyc))
    return cycles


class RotationSystem:
    """Darts around vertices: ``rotations`` lists each vertex's darts
    counterclockwise, ``sigma`` maps a dart to its rotation successor,
    ``alpha`` swaps the two darts of an arc, and ``dart_vertex`` names
    each dart's vertex.  Faces are the orbits of sigma o alpha.

    The rotation lists are copied; ``alpha`` starts empty.
    """

    def __init__(self, rotations: dict[int, list[int]]):
        self.rotations = {v: list(r) for v, r in rotations.items()}
        self.sigma: dict[int, int] = {}
        self.dart_vertex: dict[int, int] = {}
        for v, rot in self.rotations.items():
            for i, d in enumerate(rot):
                if d in self.dart_vertex:
                    raise EmbeddingError(f"dart {d} listed twice in rotations")
                self.dart_vertex[d] = v
                self.sigma[d] = rot[(i + 1) % len(rot)]
        self.alpha: dict[int, int] = {}
        self._next_dart = max(self.dart_vertex, default=-1) + 1

    def _insert_arc(self, u: int, du: int | None, w: int, dw: int | None) -> tuple[int, int]:
        """New arc with fresh darts p < q: p goes into the corner after
        dart ``du`` at ``u``, q into the corner after ``dw`` at ``w``.  A
        handle of None puts the dart after the vertex's last dart, which
        at a bare vertex is its only place."""
        p, q = self._next_dart, self._next_dart + 1
        self._next_dart += 2
        for vertex, handle, dart in ((u, du, p), (w, dw, q)):
            rot = self.rotations[vertex]
            pos = len(rot) if handle is None else rot.index(handle) + 1
            rot.insert(pos, dart)
            prev = rot[pos - 1]        # the dart itself at a bare vertex
            self.sigma[dart] = self.sigma.get(prev, dart)
            self.sigma[prev] = dart
            self.dart_vertex[dart] = vertex
        self.alpha[p] = q
        self.alpha[q] = p
        return p, q

    def face(self, d: int) -> list[int]:
        """Darts of the face orbit through ``d``, starting at ``d``."""
        sigma, alpha = self.sigma, self.alpha
        out = [d]
        x = sigma[alpha[d]]
        while x != d:
            out.append(x)
            x = sigma[alpha[x]]
        return out

    def face_orbits(self) -> list[tuple[int, ...]]:
        """Every face, starting at its smallest dart, sorted by it."""
        sigma, alpha = self.sigma, self.alpha
        return _orbits({d: sigma[alpha[d]] for d in alpha})


def components(smap: "SphereMap", arc_ids) -> list[Component]:
    """Connected components of the subgraph on the given arcs, every map
    vertex included, ordered by smallest vertex id."""
    arcs = smap.arcs
    arc_ids = sorted(set(arc_ids))
    uf = _UnionFind(smap.rotations)
    for aid in arc_ids:
        a = arcs[aid]
        uf.union(a.u, a.v)
    groups = uf.classes()
    loops: dict[int, list[int]] = {r: [] for r in groups}
    edges: dict[int, list[int]] = {r: [] for r in groups}
    for aid in arc_ids:
        a = arcs[aid]
        (loops if a.kind == "loop" else edges)[uf.find(a.u)].append(aid)
    out = []
    for r, vs in groups.items():
        vertices = tuple(sorted(vs))
        out.append(
            Component(
                key=vertices[0],
                vertices=vertices,
                arcs=tuple(sorted(loops[r] + edges[r])),
                loops=tuple(loops[r]),
                edges=tuple(edges[r]),
            )
        )
    out.sort(key=lambda c: c.key)
    return out


class SphereMap(RotationSystem):
    """Immutable validated sphere arrangement of arcs on cone vertices.

    Every vertex is a cone point of angle pi (a branch point of the
    double cover), so the genus is (vertex count - 2) / 2.
    """

    def __init__(
        self,
        rotations: dict[int, list[int]],
        arcs: dict[int, Arc],
        genus: int | None = None,
        regions: list[dict] | None = None,
        *,
        _faces: list[tuple[int, ...]] | None = None,
    ):
        super().__init__(rotations)
        self.arcs = dict(arcs)
        self._pair_darts()
        self._build_faces(_faces)
        self._build_components()
        self.n_cone = len(self.rotations)
        if self.n_cone < 4 or self.n_cone % 2:
            raise EmbeddingError(
                f"need an even number >= 4 of cone vertices, got {self.n_cone}"
            )
        self.genus = (self.n_cone - 2) // 2
        if genus is not None and genus != self.genus:
            raise EmbeddingError(
                f"declared genus {genus} but {self.n_cone} cone vertices"
            )
        self._check_component_euler()
        self._build_regions(regions)

    # -- construction ------------------------------------------------

    def _pair_darts(self) -> None:
        for a in self.arcs.values():
            d1, d2 = a.darts
            if d1 == d2:
                raise EmbeddingError(f"arc {a.id} pairs a dart with itself")
            for d in (d1, d2):
                if d not in self.dart_vertex:
                    raise EmbeddingError(f"arc {a.id} uses unknown dart {d}")
                if d in self.alpha:
                    raise EmbeddingError(f"dart {d} belongs to two arcs")
            self.alpha[d1] = d2
            self.alpha[d2] = d1
            if self.dart_vertex[d1] != a.u or self.dart_vertex[d2] != a.v:
                raise EmbeddingError(f"arc {a.id} endpoints disagree with rotations")
            if (a.kind == "loop") != (a.u == a.v):
                raise EmbeddingError(f"arc {a.id} kind/endpoint mismatch")
        if set(self.alpha) != set(self.dart_vertex):
            raise EmbeddingError("rotation darts and arc darts differ")
        self.isolated = {v for v, rot in self.rotations.items() if not rot}

    def _build_faces(self, faces: list[tuple[int, ...]] | None = None) -> None:
        self.faces = self.face_orbits() if faces is None else faces
        self.face_of = {d: i for i, f in enumerate(self.faces) for d in f}

    def _build_components(self) -> None:
        self.components = components(self, self.arcs)
        self.component_of = {
            v: c.key for c in self.components for v in c.vertices
        }

    def _check_component_euler(self) -> None:
        nfaces = {c.key: 0 for c in self.components}
        for f in self.faces:
            nfaces[self.component_of[self.dart_vertex[f[0]]]] += 1
        for c in self.components:
            if not c.arcs:
                continue
            euler = len(c.vertices) - len(c.arcs) + nfaces[c.key]
            if euler != 2:
                raise EmbeddingError(
                    f"component at vertex {c.key} has Euler characteristic "
                    f"{euler}, not a sphere embedding"
                )

    def _build_regions(self, regions: list[dict] | None) -> None:
        nontrivial = [c for c in self.components if c.arcs]
        if regions is None:
            if not nontrivial:
                regions = [{"faces": [], "isolated": sorted(self.isolated)}]
            elif len(nontrivial) == 1 and not self.isolated:
                regions = [{"faces": [f[0]], "isolated": []} for f in self.faces]
            else:
                raise EmbeddingError(
                    "disconnected arrangement requires explicit regions"
                )
        face_by_min = {f[0]: i for i, f in enumerate(self.faces)}
        self.regions: list[dict] = []
        self.region_of_face: dict[int, int] = {}
        self.region_of_isolated: dict[int, int] = {}
        for ridx, r in enumerate(regions):
            keys = []
            for key in r.get("faces", []):
                if key not in face_by_min:
                    raise EmbeddingError(f"region lists unknown face key {key}")
                keys.append(key)
                fi = face_by_min[key]
                if fi in self.region_of_face:
                    raise EmbeddingError("face assigned to two regions")
                self.region_of_face[fi] = ridx
            for v in r.get("isolated", []):
                if v not in self.isolated:
                    raise EmbeddingError(f"vertex {v} is not isolated")
                if v in self.region_of_isolated:
                    raise EmbeddingError(f"isolated vertex {v} placed twice")
                self.region_of_isolated[v] = ridx
            self.regions.append(
                {"faces": sorted(keys), "isolated": sorted(r.get("isolated", []))}
            )
        if set(self.region_of_face) != set(range(len(self.faces))):
            raise EmbeddingError("every face must belong to exactly one region")
        if set(self.region_of_isolated) != self.isolated:
            raise EmbeddingError("every isolated vertex needs a region")
        self._check_region_tree(nontrivial)

    def _check_region_tree(self, nontrivial: list[Component]) -> None:
        """Components and regions must form a tree with one edge per face."""
        if not nontrivial:
            if len(self.regions) != 1:
                raise EmbeddingError("arc-free map must have a single region")
            return
        comp_of_face = {
            i: self.component_of[self.dart_vertex[f[0]]]
            for i, f in enumerate(self.faces)
        }
        seen_pairs = set()
        uf = _UnionFind()
        for c in nontrivial:
            uf.add(("c", c.key))
        for r in range(len(self.regions)):
            uf.add(("r", r))
        for fi, r in self.region_of_face.items():
            pair = (comp_of_face[fi], r)
            if pair in seen_pairs:
                raise EmbeddingError(
                    "two faces of one component bound the same region"
                )
            seen_pairs.add(pair)
            uf.union(("c", pair[0]), ("r", r))
        n_nodes = len(nontrivial) + len(self.regions)
        if len(self.faces) != n_nodes - 1:
            raise EmbeddingError("region incidence is not a tree (count)")
        roots = {uf.find(x) for x in uf.parent}
        if len(roots) != 1:
            raise EmbeddingError("region incidence is not connected")

    # -- queries -----------------------------------------------------

    def side_regions(self, arc_id: int) -> tuple[int, int]:
        """Regions on the two sides of an arc (region of each dart's face)."""
        a = self.arcs[arc_id]
        return (
            self.region_of_face[self.face_of[a.darts[0]]],
            self.region_of_face[self.face_of[a.darts[1]]],
        )

    def corner_region(self, dart: int) -> int:
        """Region of the corner swept from ``dart`` to its successor.

        That corner lies in the face orbit containing sigma(dart).
        """
        return self.region_of_face[self.face_of[self.sigma[dart]]]

    def without_arcs(self, removed: set[int]) -> "SphereMap":
        """The arrangement with the given arcs erased from the sphere: the
        regions on the two sides of an erased arc merge, and every kept
        face or newly bare vertex joins the merged region it lay in.  The
        kept faces are walked once and handed to the constructor."""
        removed = set(removed)
        for aid in removed:
            if aid not in self.arcs:
                raise InputError(f"unknown arc id {aid}")
        kept_arcs = {a: self.arcs[a] for a in self.arcs if a not in removed}
        dead_darts = {d for a in removed for d in self.arcs[a].darts}
        rotations = {
            v: [d for d in rot if d not in dead_darts]
            for v, rot in self.rotations.items()
        }
        uf = _UnionFind(range(len(self.regions)))
        for aid in removed:
            uf.union(*self.side_regions(aid))
        # regroup: old region class -> new region index
        new_idx = {root: i for i, root in enumerate(sorted(uf.classes()))}
        groups: list[dict] = [{"faces": [], "isolated": []} for _ in new_idx]

        def group(old_region: int) -> dict:
            return groups[new_idx[uf.find(old_region)]]

        # sigma o alpha off the kept rotations: alpha(d) -> successor of d
        faces = _orbits({self.alpha[d]: rot[(i + 1) % len(rot)]
                         for rot in rotations.values() for i, d in enumerate(rot)})
        for f in faces:
            group(self.region_of_face[self.face_of[f[0]]])["faces"].append(f[0])
        for v, rot in rotations.items():
            if not rot:
                old = self.rotations[v]
                region = (
                    self.region_of_face[self.face_of[old[0]]]
                    if old
                    else self.region_of_isolated[v]
                )
                group(region)["isolated"].append(v)
        return SphereMap(rotations, kept_arcs, regions=groups, _faces=faces)

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "vertices": [
                {
                    "id": v,
                    "cone": True,
                    "rotation": list(self.rotations[v]),
                }
                for v in sorted(self.rotations)
            ],
            "arcs": [
                {
                    "id": a.id,
                    "darts": list(a.darts),
                    "kind": a.kind,
                }
                for a in sorted(self.arcs.values(), key=lambda a: a.id)
            ],
            "regions": [
                {"faces": r["faces"], "isolated": r["isolated"]}
                for r in self.regions
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def from_json(data) -> SphereMap:
    """Build and validate a SphereMap from its JSON description.

    Ids and darts must be JSON integers, and vertex and arc ids unique;
    nothing is coerced.  ``cone``, when given, must be ``true``: every
    vertex is a cone point.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as e:   # also too deep, or an over-long int
            raise InputError(f"bad JSON: {e}") from e
    if not isinstance(data, dict):
        raise InputError("map description must be an object")
    try:
        rotations = {}
        for i, v in enumerate(data["vertices"]):
            vid = json_int(v["id"], f"vertices[{i}].id")
            if vid in rotations:
                raise InputError(f"vertices[{i}] repeats vertex id {vid}")
            rotations[vid] = _json_ints(v["rotation"], f"vertices[{i}].rotation")
            cone = v.get("cone", True)
            if not isinstance(cone, bool):
                raise InputError(f"vertices[{i}].cone must be a boolean, got {cone!r}")
            if not cone:
                raise InputError(f'vertex {vid} is not a cone point ("cone": false)')
        owner = {d: v for v, rot in rotations.items() for d in rot}
        entries = {}
        for i, a in enumerate(data["arcs"]):
            aid = json_int(a["id"], f"arcs[{i}].id")
            if aid in entries:
                raise InputError(f"arcs[{i}] repeats arc id {aid}")
            entries[aid] = (a["kind"], tuple(_json_ints(a["darts"], f"arcs[{i}].darts")))
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed map description: {e}") from e
    arcs = {}
    for aid, (kind, darts) in entries.items():
        if kind not in ("edge", "loop"):
            raise InputError(f"arc {aid}: kind must be edge or loop, got {kind!r}")
        if len(darts) != 2:
            raise InputError(f"arc {aid}: darts must list two darts")
        for d in darts:
            if d not in owner:
                raise InputError(f"arc {aid} uses unknown dart {d}")
        u, w = (owner[d] for d in darts)
        arcs[aid] = Arc(id=aid, kind=kind, u=u, v=w, darts=darts)
    regions = data.get("regions")
    if regions is not None:
        _check_regions(regions)
    genus = data.get("genus")
    return SphereMap(
        rotations,
        arcs,
        genus=None if genus is None else json_int(genus, "genus"),
        regions=regions,
    )


def _json_ints(items, what: str) -> list[int]:
    """``items`` if it is a list of JSON integers, else InputError."""
    if not isinstance(items, list):
        raise InputError(f"{what} must be a list, got {items!r}")
    for x in items:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"{what} must hold integers, got {x!r}")
    return items


def _check_regions(regions) -> None:
    """Regions are objects whose ``faces`` and ``isolated`` fields are
    lists of integers."""
    if not isinstance(regions, list):
        raise InputError(f"regions must be a list, got {regions!r}")
    for i, r in enumerate(regions):
        if not isinstance(r, dict):
            raise InputError(f"regions[{i}] must be an object, got {r!r}")
        for key in ("faces", "isolated"):
            _json_ints(r.get(key, []), f"regions[{i}].{key}")


# -- component classification ----------------------------------------


def classify_arcs(smap: SphereMap, arc_ids) -> dict[int, ComponentKind]:
    """Kind of every connected component of the subgraph on the given arcs,
    keyed by smallest vertex id (all map vertices participate)."""
    return {c.key: c.kind for c in components(smap, arc_ids)}


def classify_components(smap: SphereMap) -> list[ComponentKind]:
    """Kinds of the map's own components, ordered by smallest vertex id."""
    return [c.kind for c in smap.components]


# -- regions of the sphere minus the loop arcs of a subgraph ---------


@dataclass
class _Piece:
    """Maximal connected chunk of the subgraph's non-loop arcs after
    removing loop base vertices; hangs off a loop base by at most one
    stem edge."""

    vertices: tuple[int, ...]
    attach_base: int | None


@dataclass
class RegionNode:
    id: int
    boundary: list[int] = field(default_factory=list)    # loop arc ids
    isolated: list[int] = field(default_factory=list)    # subgraph-isolated cone vertices
    pieces: list[_Piece] = field(default_factory=list)


@dataclass
class RegionTree:
    smap: SphereMap
    nodes: dict[int, RegionNode]
    loop_sides: dict[int, tuple[int, int]]   # loop arc -> (child node, parent node)
    root: int
    levels: dict[int, int]
    below: dict[int, int]     # cone points in each node's subtree, seen from the root

    def units(self, node_id: int) -> list[tuple[str, int]]:
        """Cone counts a simple closed curve inside the region can cut off.

        One unit per boundary loop (its base, everything strictly beyond,
        and any subgraph branches hanging off the base into this region:
        a branch cannot be separated from its loop, since the curve would
        have to cross the stem), one per free-standing interior piece,
        one per isolated vertex.
        """
        node = self.nodes[node_id]
        hanging: dict[int, int] = {}     # base -> vertices of its branches here
        for p in node.pieces:
            if p.attach_base is not None:
                hanging[p.attach_base] = hanging.get(p.attach_base, 0) + len(p.vertices)
        arcs = self.smap.arcs
        units = [
            (f"loop:{lam}", 1 + self._beyond(lam, node_id) + hanging.get(arcs[lam].base, 0))
            for lam in node.boundary
        ]
        units += [
            (f"piece:{min(p.vertices)}", len(p.vertices))
            for p in node.pieces
            if p.attach_base is None
        ]
        units += [(f"vertex:{v}", 1) for v in node.isolated]
        return units

    def _beyond(self, lam: int, node_id: int) -> int:
        """Cone points strictly on the far side of ``lam`` seen from the
        node: the child's subtree if the node is the parent, else
        everything outside the node's subtree except the base of ``lam``."""
        child, parent = self.loop_sides[lam]
        if parent == node_id:
            return self.below[child]
        return self.below[self.root] - self.below[node_id] - 1


def region_tree(smap: SphereMap, subgraph) -> RegionTree:
    """Regions of the sphere minus the loop arcs of ``subgraph``, with
    their nesting levels and interior contents.

    The subgraph's components must be growth-shaped: loops, trees,
    looped trees, or isolated vertices.  Its pieces (the components of
    its edges after removing the loop bases) show this: a component is
    growth-shaped exactly when its loops have distinct bases, no edge
    joins two bases, no edge closes a cycle inside a piece, and no piece
    has two stems (edges to a base).
    """
    arcs = smap.arcs
    sub = frozenset(int(a) for a in subgraph)
    for aid in sub:
        if aid not in arcs:
            raise InputError(f"unknown arc id {aid}")
    bad_shape = InputError("subgraph has a component outside the growth shapes")
    ordered = sorted(sub)
    loop_arcs = [a for a in ordered if arcs[a].kind == "loop"]
    bases = {arcs[a].base for a in loop_arcs}
    if len(bases) != len(loop_arcs):
        raise bad_shape
    puf = _UnionFind()
    stems = []                     # (base, stem dart at the base, piece vertex)
    for aid in ordered:
        a = arcs[aid]
        if a.kind != "edge":
            continue
        if a.u in bases and a.v in bases:
            raise bad_shape
        if a.u in bases:
            stems.append((a.u, a.darts[0], a.v))
            puf.add(a.v)
        elif a.v in bases:
            stems.append((a.v, a.darts[1], a.u))
            puf.add(a.u)
        else:
            puf.add(a.u)
            puf.add(a.v)
            if puf.find(a.u) == puf.find(a.v):
                raise bad_shape
            puf.union(a.u, a.v)
    piece_stem: dict[int, tuple[int, int]] = {}     # piece root -> (base, stem)
    for base, stem, x in stems:
        root = puf.find(x)
        if root in piece_stem:
            raise bad_shape
        piece_stem[root] = (base, stem)

    # merge map regions across every arc that is not a subgraph loop
    loop_set = set(loop_arcs)
    uf = _UnionFind(range(len(smap.regions)))
    for aid in arcs:
        if aid not in loop_set:
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
        a = arcs[aid]
        sub_degree[a.u] += 1
        sub_degree[a.v] += 1
    for v in sorted(smap.rotations):
        if sub_degree[v] == 0:
            if smap.rotations[v]:
                r = smap.corner_region(smap.rotations[v][0])
            else:
                r = smap.region_of_isolated[v]
            nodes[node_of_region(r)].isolated.append(v)

    for root, verts in puf.classes().items():
        # a stem dart determines its side of the loop; all corners at a
        # vertex off the loop bases lie in one node
        base, corner = piece_stem.get(root, (None, smap.rotations[root][0]))
        piece = _Piece(tuple(sorted(verts)), base)
        nodes[node_of_region(smap.corner_region(corner))].pieces.append(piece)

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


def region_admits_odd_curve(tree: RegionTree, node_id: int) -> bool:
    """Whether the region contains a simple closed curve cutting the cone
    points into two odd halves: true iff some unit count is odd."""
    return any(count % 2 == 1 for _, count in tree.units(node_id))


def is_nonseparating(smap: SphereMap, subgraph) -> bool:
    """Parity test: the lifted curve system leaves the double connected
    iff every region admits an odd-separating curve."""
    tree = region_tree(smap, subgraph)
    return all(region_admits_odd_curve(tree, n) for n in tree.nodes)


# -- incremental construction in growth order ------------------------


class MapBuilder(RotationSystem):
    """Builds an embedded arc arrangement the way disk growth creates it:
    every new arc has a bare endpoint (a bone between two bare vertices,
    a loop at a bare vertex, or an edge from a bare vertex into a corner
    of an occupied one).  That order fixes what is recorded once here:

    - no face splits or merges: a bone opens the face of its smaller
      dart p, a loop the monogons {p} inside and {q} outside, and an
      attached edge's darts join their corner's face, so each dart's
      face key (smallest dart of its face) is set when it is made;
    - no two components with arcs join, and a component holds at most
      one loop, whose inside vertex set is the ``enclosed`` of
      ``add_loop``: behind a loop-free component's face lies just the
      component, behind a loop's outside face also that set, and behind
      its inside face every vertex outside it;
    - a bare vertex keeps its region until it gets an arc.
    """

    def __init__(self, vertex_ids):
        super().__init__({int(v): [] for v in vertex_ids})
        if len(self.rotations) < 2:
            raise InputError("need at least two vertices")
        self.arcs: dict[int, Arc] = {}
        self._n_regions = 1
        self._region_of = dict.fromkeys(self.rotations, 0)   # bare vertex -> region
        self._face_region: dict[int, int] = {}       # face key -> region
        self._face_key: dict[int, int] = {}          # dart -> face key
        self._component: dict[int, set[int]] = {}    # occupied vertex -> component
        self._behind: dict[int, frozenset[int]] = {}  # loop face key -> far side

    def _corner_face_key(self, v: int, pos: int) -> int:
        """Face key of the corner after rotation position ``pos`` at
        ``v``, which is the face of the successor dart."""
        rot = self.rotations[v]
        return self._face_key[rot[(pos + 1) % len(rot)]]

    def region_of_vertex(self, v: int) -> int:
        """Region of a currently isolated vertex."""
        if v not in self._region_of:
            raise InputError(f"vertex {v} is not isolated")
        return self._region_of[v]

    def corners_on_region(self, w: int, region: int) -> list[int]:
        """Rotation positions at ``w`` whose corner borders the region."""
        return [
            pos for pos in range(len(self.rotations[w]))
            if self._face_region[self._corner_face_key(w, pos)] == region
        ]

    def region_item_contents(self, region: int) -> list[dict]:
        """Direct items of a region with their total nested vertex sets.

        Each entry is ``{"face": key or None, "vertices": frozenset}``;
        for a component the set includes everything nested behind its
        face, so enclosing the item means enclosing all of it.
        """
        faces = sorted(fk for fk, r in self._face_region.items() if r == region)
        isolated = sorted(v for v, r in self._region_of.items() if r == region)
        items = [
            {
                "face": fk,
                "vertices": frozenset(self._component[self.dart_vertex[fk]])
                .union(self._behind.get(fk, ())),
            }
            for fk in faces
        ]
        items += [{"face": None, "vertices": frozenset({v})} for v in isolated]
        return items

    def add_bone(self, arc_id: int, u: int, w: int) -> None:
        """Edge between two bare vertices lying in a common region."""
        region = self.region_of_vertex(u)
        if self.region_of_vertex(w) != region:
            raise EmbeddingError(f"vertices {u} and {w} lie in different regions")
        if u == w:
            raise EmbeddingError("a bone needs distinct endpoints")
        p, q = self._add_arc(arc_id, "edge", u, None, w, None)
        self._face_key[p] = self._face_key[q] = p     # the bone's single face
        self._face_region[p] = region
        del self._region_of[u], self._region_of[w]
        self._component[u] = self._component[w] = {u, w}

    def attach_edge(self, arc_id: int, fresh: int, host: int, at: int = 0) -> None:
        """Edge from a bare vertex into the corner after rotation position
        ``at`` of an occupied vertex; the bare vertex must sit in the
        region that corner borders."""
        if not self.rotations[host]:
            raise EmbeddingError(f"host vertex {host} has no darts")
        if self.rotations[fresh]:
            raise EmbeddingError(f"vertex {fresh} is not bare")
        at %= len(self.rotations[host])
        fkey = self._corner_face_key(host, at)
        if self.region_of_vertex(fresh) != self._face_region[fkey]:
            raise EmbeddingError(
                f"vertex {fresh} is not in the region behind that corner"
            )
        p, q = self._add_arc(arc_id, "edge", host, self.rotations[host][at], fresh, None)
        self._face_key[p] = self._face_key[q] = fkey  # new darts are larger
        del self._region_of[fresh]
        self._component[fresh] = self._component[host]
        self._component[host].add(fresh)

    def add_loop(self, arc_id: int, v: int, enclosed) -> None:
        """Loop at a bare vertex; ``enclosed`` lists the cone vertices that
        end up strictly inside.  It must be a union of whole region items
        (a nested component drags its entire contents along)."""
        region = self.region_of_vertex(v)
        enclosed = frozenset(int(x) for x in enclosed)
        if v in enclosed:
            raise EmbeddingError("a loop cannot enclose its own base")
        items = [
            it for it in self.region_item_contents(region) if it["vertices"] & enclosed
        ]
        for it in items:
            if not it["vertices"] <= enclosed:
                raise EmbeddingError(
                    f"item with vertices {sorted(it['vertices'])} straddles the new loop"
                )
        covered = set().union(*(it["vertices"] for it in items))
        if covered != enclosed:
            raise EmbeddingError(
                f"vertices {sorted(enclosed - covered)} are not in this region"
            )
        p, q = self._add_arc(arc_id, "loop", v, None, v, None)     # rotation [p, q]
        inside = self._n_regions
        self._n_regions += 1
        del self._region_of[v]
        self._face_key[p], self._face_key[q] = p, q
        self._face_region[p], self._face_region[q] = inside, region
        for it in items:
            if it["face"] is None:
                self._region_of[min(it["vertices"])] = inside
            else:
                self._face_region[it["face"]] = inside
        self._component[v] = {v}
        self._behind[p] = frozenset(self.rotations) - enclosed
        self._behind[q] = enclosed

    def _add_arc(self, arc_id: int, kind: str, u: int, du, w: int, dw):
        """Insert and record a new arc, rejecting a duplicate id first."""
        if arc_id in self.arcs:
            raise InputError(f"duplicate arc id {arc_id}")
        p, q = self._insert_arc(u, du, w, dw)
        self.arcs[arc_id] = Arc(id=arc_id, kind=kind, u=u, v=w, darts=(p, q))
        return p, q

    def finalize(self) -> SphereMap:
        regions = [{"faces": [], "isolated": []} for _ in range(self._n_regions)]
        for fk, r in sorted(self._face_region.items()):
            regions[r]["faces"].append(fk)
        for v, r in sorted(self._region_of.items()):
            regions[r]["isolated"].append(v)
        return SphereMap(self.rotations, self.arcs, regions=regions)
