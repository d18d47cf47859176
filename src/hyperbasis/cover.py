"""Combinatorial branched double cover of the marked sphere.

Given an arrangement and a designated arc system H, the sphere is first
refined into one connected cell complex: scaffold edges chain the pieces
of every region together, and extra chords are inserted until the
complex stays connected after removing H's arcs.  The complex is a
``spheremap.RotationSystem``; the chords come from one queue of faces
ordered by smallest dart, where a split face keeps its table and only
the smaller half is walked again.  A branch-cut set B is then chosen
inside the non-H edges with odd degree exactly at the cone vertices (a
T-join), so that a walk crossing B an odd number of times encircles an
odd number of cone points.

The cover itself is the derived map on dart sheets (d, s):

    alpha*(d, s) = (alpha(d), s ^ B(d))        crossing the edge itself
    sigma*(d, s) = (sigma(d), s ^ B(sigma(d))) crossing the next edge
                                               around the vertex

Vertices with odd B-degree (exactly the cone points) have a single,
branched lift; all other cells lift twice.  Euler characteristic,
connectivity, the fixed points of the sheet swap, and the shapes of the
lifted arcs (edges become single cycles through two branch points,
loops become figure eights) are validated on every construction.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .errors import ConstructionError, InputError
from .spheremap import RotationSystem, SphereMap, _UnionFind

__all__ = [
    "MasterComplex",
    "CoverComplex",
    "build_cover",
    "complement_components",
    "z2_cycle_rank",
    "verdict",
    "is_partial_basis",
]


@dataclass(frozen=True)
class _Edge:
    idx: int
    darts: tuple[int, int]
    arc_id: int | None       # None for scaffold edges


class _FaceTable:
    """A queued face of the chord pass.  ``live`` holds its darts;
    ``order`` and ``at[v]`` hold every dart it has had, ascending, and
    shed dead ones from the front when read; ``vertices[j:]`` are the
    vertices that may still be w.  Chord darts are newer than all."""

    __slots__ = ("live", "order", "at", "vertices", "j")

    def __init__(self, darts, dart_vertex: dict[int, int]):
        self.order = deque(sorted(darts))
        self.live = set(self.order)
        self.at = at = defaultdict(deque)
        for d in self.order:
            at[dart_vertex[d]].append(d)
        self.vertices, self.j = sorted(at), 1

    def first(self, darts: deque) -> int | None:
        """Smallest live dart of ``darts``, or None."""
        while darts and darts[0] not in self.live:
            darts.popleft()
        return darts[0] if darts else None

    def next_w(self, uf: _UnionFind) -> int | None:
        """Smallest vertex on the face outside the component of u, its
        smallest vertex.  One passed over never qualifies again."""
        vs, root = self.vertices, uf.find(self.vertices[0])
        while self.j < len(vs):
            v = vs[self.j]
            if self.first(self.at[v]) is not None and uf.find(v) != root:
                return v
            self.j += 1
        return None


class MasterComplex(RotationSystem):
    """Connected genus-zero refinement of a sphere arrangement.

    Carries the original arcs plus scaffold edges, the branch-cut set B,
    and rotation/pairing permutations over its darts.
    """

    def __init__(self, smap: SphereMap, subgraph):
        self.smap = smap
        self.subgraph = frozenset(int(a) for a in subgraph)
        for aid in self.subgraph:
            if aid not in smap.arcs:
                raise InputError(f"unknown arc id {aid}")
        super().__init__(smap.rotations)
        self.alpha = dict(smap.alpha)
        self.edges: list[_Edge] = []
        self.edge_of_dart: dict[int, int] = {}
        self.edge_of_arc: dict[int, int] = {}
        for aid in sorted(smap.arcs):
            a = smap.arcs[aid]
            self._register_edge(a.darts, aid)
        self._scaffold_regions()
        self._scaffold_connectivity()
        self._check_euler()
        self.branch_cuts = self._t_join()

    # -- low-level surgery --------------------------------------------

    def _register_edge(self, darts, arc_id) -> int:
        e = _Edge(idx=len(self.edges), darts=tuple(darts), arc_id=arc_id)
        self.edges.append(e)
        for d in darts:
            self.edge_of_dart[d] = e.idx
        if arc_id is not None:
            self.edge_of_arc[arc_id] = e.idx
        return e.idx

    # -- scaffolding ----------------------------------------------------

    def _corner_handle(self, y: int) -> int:
        """Dart d whose corner (d -> sigma(d)) leads into dart y: the
        rotation predecessor of y."""
        rot = self.rotations[self.dart_vertex[y]]
        return rot[rot.index(y) - 1]

    def _scaffold_regions(self) -> None:
        """Chain the faces and bare vertices of each region together."""
        smap = self.smap
        for region in smap.regions:
            anchors: list[tuple[int, int | None]] = []
            for fkey in region["faces"]:
                face = smap.faces[smap.face_of[fkey]]
                v = min(self.dart_vertex[d] for d in face)
                y = min(d for d in face if self.dart_vertex[d] == v)
                anchors.append((v, self._corner_handle(y)))
            for v in region["isolated"]:
                anchors.append((v, None))
            anchors.sort(key=lambda a: (a[0], -1 if a[1] is None else a[1]))
            for i in range(len(anchors) - 1):
                u, du = anchors[i]
                w, dw = anchors[i + 1]
                p, q = self._insert_arc(u, du, w, dw)
                self._register_edge((p, q), None)
                # subsequent hops leave from the dart just planted
                anchors[i + 1] = (w, q)

    def _scaffold_connectivity(self) -> None:
        """Insert chords until the complex minus H's arcs is connected, so
        a T-join avoiding H exists.  Any face whose boundary meets two
        components of the reduced complex admits such a chord.

        Faces are tried in order of their smallest dart; a chord joins
        u, the face's smallest vertex, to w, its smallest vertex outside
        u's component, at the corners into their smallest face darts.
        Components only merge, so a face passed over never qualifies
        again.  The two halves of a split face both keep a dart at u.
        They are walked in step from the chord's darts until one closes;
        that smaller half gets a fresh ``_FaceTable``, and the larger one
        keeps the old table, so a dart is walked again only when its face
        at least halves.
        """
        uf = _UnionFind(self.rotations)
        for e in self.edges:
            if e.arc_id not in self.subgraph:
                uf.union(self.dart_vertex[e.darts[0]], self.dart_vertex[e.darts[1]])
        n_components = len({uf.find(v) for v in self.rotations})
        sigma, alpha, dart_vertex = self.sigma, self.alpha, self.dart_vertex
        queue = [f[0] for f in self.face_orbits()]     # sorted, so a heap
        tables: dict[int, _FaceTable] = {}
        while n_components > 1:
            if not queue:
                raise ConstructionError(
                    "no face joins two components of the reduced complex"
                )
            key = heapq.heappop(queue)
            face = tables.pop(key, None) or _FaceTable(self.face(key), dart_vertex)
            w = face.next_w(uf)
            if w is None:
                continue
            u = face.vertices[0]
            p, q = self._insert_arc(
                u, self._corner_handle(face.first(face.at[u])),
                w, self._corner_handle(face.first(face.at[w])),
            )
            self._register_edge((p, q), None)
            uf.union(u, w)
            n_components -= 1
            if n_components == 1:
                break
            half_p, half_q = [p], [q]
            x, y = sigma[q], sigma[p]              # face successors of p, q
            while x != p and y != q:
                half_p.append(x)
                half_q.append(y)
                x, y = sigma[alpha[x]], sigma[alpha[y]]
            # the larger half keeps ``face``, less the smaller, plus its chord dart
            small, chord_dart = (half_p, q) if x == p else (half_q, p)
            face.live.difference_update(small)
            face.live.add(chord_dart)
            face.order.append(chord_dart)
            face.at[dart_vertex[chord_dart]].append(chord_dart)
            for table in (face, _FaceTable(small, dart_vertex)):
                key = table.first(table.order)
                tables[key] = table
                heapq.heappush(queue, key)

    def _check_euler(self) -> None:
        v = len(self.rotations)
        e = len(self.edges)
        f = len(self.face_orbits())
        if v - e + f != 2:
            raise ConstructionError(
                f"refined complex has Euler characteristic {v - e + f}"
            )

    # -- branch cuts ----------------------------------------------------

    def _t_join(self) -> set[int]:
        """Edge set with odd degree exactly at cone vertices, inside the
        complex minus H (spanning-tree parity sweep)."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.rotations}
        for e in self.edges:
            if e.arc_id in self.subgraph:
                continue
            a, b = (self.dart_vertex[d] for d in e.darts)
            adj[a].append((b, e.idx))
            adj[b].append((a, e.idx))
        root = min(self.rotations)
        parent: dict[int, tuple[int, int]] = {}
        order = [root]
        seen = {root}
        for v in order:
            for w, eidx in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    parent[w] = (v, eidx)
                    order.append(w)
        if len(seen) != len(self.rotations):
            raise ConstructionError("reduced complex is not connected")
        need = {v: 1 if self.smap.cone.get(v, True) else 0 for v in self.rotations}
        cuts: set[int] = set()
        for v in reversed(order[1:]):
            if need[v]:
                pv, eidx = parent[v]
                cuts.add(eidx)
                need[pv] ^= 1
                need[v] = 0
        if need[root]:
            raise ConstructionError("odd number of branch points")
        return cuts

    def beta(self, dart: int) -> int:
        return 1 if self.edge_of_dart[dart] in self.branch_cuts else 0


@dataclass
class CoverComplex:
    master: MasterComplex
    n_cone: int
    genus: int
    # dart lifts are encoded 2*dart_index + sheet
    dart_index: dict[int, int] = field(default_factory=dict)
    darts: list[int] = field(default_factory=list)
    sigma_hat: list[int] = field(default_factory=list)
    alpha_hat: list[int] = field(default_factory=list)
    vertex_of_lift: list[int] = field(default_factory=list)   # cover vertex id per dart lift
    edge_of_lift: list[int] = field(default_factory=list)     # cover edge id per dart lift
    face_of_lift: list[int] = field(default_factory=list)     # cover face id per dart lift
    lift_of_vertex: list[int] = field(default_factory=list)   # smallest dart lift per cover vertex
    lift_of_edge: list[int] = field(default_factory=list)     # smallest dart lift per cover edge
    n_vertices: int = 0
    n_edges: int = 0
    n_faces: int = 0
    base_vertex: list[int] = field(default_factory=list)      # per cover vertex
    base_edge: list[int] = field(default_factory=list)        # per cover edge
    branch_vertices: list[int] = field(default_factory=list)
    lifted_cycles: dict[int, list[tuple[int, ...]]] = field(default_factory=dict)
    kept_cycle: dict[int, tuple[int, ...]] = field(default_factory=dict)
    hsharp: set[int] = field(default_factory=set)

    # -- derived structure -------------------------------------------

    def deck_vertex(self, cv: int) -> int:
        if not 0 <= cv < self.n_vertices:
            raise InputError(f"unknown cover vertex {cv}")
        return self.vertex_of_lift[self.lift_of_vertex[cv] ^ 1]

    def euler(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def is_connected(self) -> bool:
        n = len(self.sigma_hat)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            dl = stack.pop()
            for nxt in (self.sigma_hat[dl], self.alpha_hat[dl]):
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        return all(seen)

    def edge_endpoints(self, ce: int) -> tuple[int, int]:
        dl = self.lift_of_edge[ce]
        a, b = self.vertex_of_lift[dl], self.vertex_of_lift[self.alpha_hat[dl]]
        return (a, b) if a <= b else (b, a)

    def cover_edges_of_arc(self, arc_id: int) -> tuple[int, int]:
        d1, _ = self.master.smap.arcs[arc_id].darts
        i = self.dart_index[d1]
        return (self.edge_of_lift[2 * i], self.edge_of_lift[2 * i + 1])

    def to_debug_dict(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "n_faces": self.n_faces,
            "euler": self.euler(),
            "branch_vertices": list(self.branch_vertices),
            "branch_cuts": sorted(self.master.branch_cuts),
            "scaffold_edges": [
                e.idx for e in self.master.edges if e.arc_id is None
            ],
            "projection_vertices": {
                str(cv): self.base_vertex[cv] for cv in range(self.n_vertices)
            },
            "projection_edges": {
                str(ce): self.base_edge[ce] for ce in range(self.n_edges)
            },
            "sheet_of_lift": [dl % 2 for dl in range(len(self.sigma_hat))],
            "deck_vertex_map": {
                str(cv): self.deck_vertex(cv) for cv in range(self.n_vertices)
            },
            "lifted_cycles": {
                str(a): [list(c) for c in cs]
                for a, cs in sorted(self.lifted_cycles.items())
            },
            "hsharp_edges": sorted(self.hsharp),
        }

    def to_debug_json(self) -> str:
        return json.dumps(self.to_debug_dict(), sort_keys=True)


def build_cover(smap: SphereMap, subgraph) -> CoverComplex:
    """Branched double cover of the sphere with the arc system lifted."""
    master = MasterComplex(smap, subgraph)
    cov = CoverComplex(master=master, n_cone=smap.n_cone, genus=smap.genus)
    darts = sorted(master.dart_vertex)
    cov.darts = darts
    cov.dart_index = {d: i for i, d in enumerate(darts)}
    n = len(darts)
    sigma = master.sigma
    beta = [master.beta(d) for d in darts]

    sigma_hat = [0] * (2 * n)
    alpha_hat = [0] * (2 * n)
    for i, d in enumerate(darts):
        si = cov.dart_index[sigma[d]]
        ai = cov.dart_index[master.alpha[d]]
        for s in (0, 1):
            sigma_hat[2 * i + s] = 2 * si + (s ^ beta[si])
            alpha_hat[2 * i + s] = 2 * ai + (s ^ beta[i])
    cov.sigma_hat = sigma_hat
    cov.alpha_hat = alpha_hat

    def orbit_ids(perm: list[int]) -> tuple[list[int], list[int]]:
        """Orbit id per lift, and the smallest lift of every orbit."""
        ids = [-1] * len(perm)
        firsts = []
        for start in range(len(perm)):
            if ids[start] >= 0:
                continue
            dl = start
            while ids[dl] < 0:
                ids[dl] = len(firsts)
                dl = perm[dl]
            firsts.append(start)
        return ids, firsts

    cov.vertex_of_lift, cov.lift_of_vertex = orbit_ids(sigma_hat)
    cov.edge_of_lift, cov.lift_of_edge = orbit_ids(alpha_hat)
    phat = [sigma_hat[alpha_hat[dl]] for dl in range(2 * n)]
    cov.face_of_lift, face_firsts = orbit_ids(phat)
    cov.n_vertices = len(cov.lift_of_vertex)
    cov.n_edges = len(cov.lift_of_edge)
    cov.n_faces = len(face_firsts)

    cov.base_vertex = [0] * cov.n_vertices
    for dl in range(2 * n):
        cov.base_vertex[cov.vertex_of_lift[dl]] = master.dart_vertex[darts[dl // 2]]
    cov.base_edge = [0] * cov.n_edges
    for dl in range(2 * n):
        cov.base_edge[cov.edge_of_lift[dl]] = master.edge_of_dart[darts[dl // 2]]
    cov.branch_vertices = sorted(
        {
            cov.vertex_of_lift[dl]
            for dl in range(2 * n)
            if cov.vertex_of_lift[dl] == cov.vertex_of_lift[dl ^ 1]
        }
    )

    _lift_arcs(cov)
    _validate_cover(cov)
    return cov


def _lift_arcs(cov: CoverComplex) -> None:
    master = cov.master
    for aid in sorted(master.subgraph):
        arc = master.smap.arcs[aid]
        eidx = master.edge_of_arc[aid]
        if eidx in master.branch_cuts:
            raise ConstructionError(f"branch cut runs along arc {aid}")
        ce0, ce1 = cov.cover_edges_of_arc(aid)
        if arc.kind == "edge":
            # the two lifts close up into one cycle through two branch points
            cycle = tuple(sorted({ce0, ce1}))
            if len(cycle) != 2:
                raise ConstructionError(f"edge arc {aid} lifted to one edge")
            ends0 = cov.edge_endpoints(ce0)
            ends1 = cov.edge_endpoints(ce1)
            if ends0 != ends1 or ends0[0] == ends0[1]:
                raise ConstructionError(f"edge arc {aid} lift is not a bigon")
            cov.lifted_cycles[aid] = [cycle]
            cov.kept_cycle[aid] = cycle
            cov.hsharp.update(cycle)
        else:
            # figure eight: two loop lifts wedged at the single branch lift
            if ce0 == ce1:
                raise ConstructionError(f"loop arc {aid} lifted to one edge")
            e0, e1 = cov.edge_endpoints(ce0), cov.edge_endpoints(ce1)
            if not (e0[0] == e0[1] == e1[0] == e1[1]):
                raise ConstructionError(f"loop arc {aid} lift is not a figure eight")
            d_min = min(arc.darts)
            kept = cov.edge_of_lift[2 * cov.dart_index[d_min]]
            other = ce1 if kept == ce0 else ce0
            cov.lifted_cycles[aid] = [(kept,), (other,)]
            cov.kept_cycle[aid] = (kept,)
            cov.hsharp.add(kept)


def _validate_cover(cov: CoverComplex) -> None:
    expected_chi = 4 - cov.n_cone
    if cov.euler() != expected_chi:
        raise ConstructionError(
            f"cover Euler characteristic {cov.euler()}, expected {expected_chi}"
        )
    if not cov.is_connected():
        raise ConstructionError("cover is disconnected")
    branch_base = sorted(cov.base_vertex[cv] for cv in cov.branch_vertices)
    cone = sorted(
        v for v in cov.master.rotations if cov.master.smap.cone.get(v, True)
    )
    if branch_base != cone:
        raise ConstructionError("sheet swap does not fix exactly the cone points")
    n = len(cov.sigma_hat)
    for dl in range(n):
        if cov.sigma_hat[dl ^ 1] != cov.sigma_hat[dl] ^ 1:
            raise ConstructionError("sheet swap is not a map automorphism")
        if cov.alpha_hat[dl ^ 1] != cov.alpha_hat[dl] ^ 1:
            raise ConstructionError("sheet swap is not a map automorphism")
        if cov.alpha_hat[cov.alpha_hat[dl]] != dl:
            raise ConstructionError("edge pairing is not an involution")


# -- queries -----------------------------------------------------------


def complement_components(cov: CoverComplex, curve_edges=None) -> int:
    """Connected components of the cover minus a system of cover edges
    (defaults to the lifted arc system with one loop of each figure
    eight dropped)."""
    if curve_edges is None:
        curve_edges = cov.hsharp
    curve_edges = set(curve_edges)
    uf = _UnionFind(range(cov.n_faces))
    for dl in range(0, len(cov.alpha_hat)):
        ce = cov.edge_of_lift[dl]
        if ce in curve_edges:
            continue
        uf.union(cov.face_of_lift[dl], cov.face_of_lift[cov.alpha_hat[dl]])
    return len({uf.find(f) for f in range(cov.n_faces)})


def _gf2_extend(basis: dict[int, int], rows) -> int:
    """Add each row, reduced once, to ``basis`` (pivot -> row); count them."""
    rank = 0
    for row in rows:
        row = _gf2_reduce(row, basis)
        if row:
            basis[row.bit_length() - 1] = row
            rank += 1
    return rank


def _gf2_reduce(row: int, basis: dict[int, int]) -> int:
    while row:
        piv = row.bit_length() - 1
        if piv not in basis:
            return row
        row ^= basis[piv]
    return 0


def _boundary_rows(cov: CoverComplex) -> list[int]:
    rows = [0] * cov.n_faces
    for dl in range(len(cov.sigma_hat)):
        rows[cov.face_of_lift[dl]] ^= 1 << cov.edge_of_lift[dl]
    return rows


def z2_cycle_rank(cov: CoverComplex, cycles) -> int:
    """Rank over GF(2) of the given edge sets in first homology.

    Each cycle is an iterable of cover-edge ids and must have vanishing
    boundary; the rank is computed modulo the face boundary space, whose
    rows are eliminated once before the cycles are reduced against them.
    """
    masks = []
    for cyc in cycles:
        edge_set = set(int(e) for e in cyc)
        bound = 0
        mask = 0
        for ce in edge_set:
            if not 0 <= ce < cov.n_edges:
                raise InputError(f"unknown cover edge {ce}")
            a, b = cov.edge_endpoints(ce)
            bound ^= (1 << a) ^ (1 << b)
            mask |= 1 << ce
        if bound:
            raise InputError("input chain is not a cycle")
        masks.append(mask)
    basis: dict[int, int] = {}
    _gf2_extend(basis, _boundary_rows(cov))
    return _gf2_extend(basis, masks)


def verdict(smap: SphereMap, subgraph) -> tuple[int, int]:
    """Complement components of the lifted system (one loop per figure
    eight) in the cover, and the GF(2) rank of its classes.

    A connected complement means the system extends to a homology basis;
    then the rank must equal the number of arcs, at most 2*genus.
    """
    sub = frozenset(int(a) for a in subgraph)
    cov = build_cover(smap, sub)
    components = complement_components(cov)
    rank = z2_cycle_rank(cov, [cov.kept_cycle[a] for a in sorted(sub)])
    if components == 1:
        if rank != len(sub):
            raise ConstructionError(
                f"connected complement but rank {rank} != {len(sub)} curves"
            )
        if len(sub) > 2 * smap.genus:
            raise ConstructionError("more independent curves than 2*genus")
    return components, rank


def is_partial_basis(smap: SphereMap, subgraph) -> bool:
    """Whether the lifted system extends to a homology basis."""
    return verdict(smap, subgraph)[0] == 1
