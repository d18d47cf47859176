"""Combinatorial branched double cover of the marked sphere.

Given an arrangement and a designated arc system H, the sphere is first
refined into one connected cell complex: scaffold edges chain the pieces
of every region together, and extra chords are inserted until the
complex stays connected after removing H's arcs.  The complex is a
``spheremap.RotationSystem``; the chords come from one queue of faces
ordered by smallest dart, where a split face keeps its table and only
the smaller half is walked again.  A branch-cut set B is then chosen
inside the non-H edges with odd degree at every vertex, each a cone
point (a T-join), so that a walk crossing B an odd number of times
encircles an odd number of cone points.

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
from dataclasses import dataclass

from .errors import ConstructionError, InputError
from .spheremap import RotationSystem, SphereMap, _UnionFind

__all__ = [
    "MasterComplex",
    "CoverComplex",
    "build_cover",
    "complement_components",
    "z2_cycle_rank",
    "verdict",
    "check_agreement",
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
        """Edge set with odd degree at every vertex (each is a cone
        point), inside the complex minus H (spanning-tree parity sweep)."""
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
        need = dict.fromkeys(self.rotations, 1)
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


def _orbit_ids(perm: list[int]) -> tuple[list[int], list[int]]:
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


class CoverComplex:
    """Branched double cover of a master complex, with the arc system
    lifted; the constructor builds every table and validates the cover.

    Dart lifts are encoded 2*dart_index + sheet.  ``vertex_of_lift``,
    ``edge_of_lift`` and ``face_of_lift`` give each lift's cover cell;
    ``lift_of_vertex`` and ``lift_of_edge`` give each cover vertex or
    edge its smallest lift, whose dart projects the cell to the sphere.
    """

    def __init__(self, master: MasterComplex):
        self.master = master
        self.n_cone = master.smap.n_cone
        self.genus = master.smap.genus
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
        self.vertex_of_lift, self.lift_of_vertex = _orbit_ids(sigma_hat)
        self.edge_of_lift, self.lift_of_edge = _orbit_ids(alpha_hat)
        self.face_of_lift, face_firsts = _orbit_ids([sigma_hat[a] for a in alpha_hat])
        self.n_vertices = len(self.lift_of_vertex)
        self.n_edges = len(self.lift_of_edge)
        self.n_faces = len(face_firsts)
        vertex_of = self.vertex_of_lift
        self.branch_vertices = sorted(
            {cv for dl, cv in enumerate(vertex_of) if cv == vertex_of[dl ^ 1]}
        )
        self.lifted_cycles: dict[int, list[tuple[int, ...]]] = {}
        self.kept_cycle: dict[int, tuple[int, ...]] = {}
        self.hsharp: set[int] = set()
        self._lift_arcs()
        self._validate()

    def _lift_arcs(self) -> None:
        master = self.master
        for aid in sorted(master.subgraph):
            arc = master.smap.arcs[aid]
            if master.edge_of_arc[aid] in master.branch_cuts:
                raise ConstructionError(f"branch cut runs along arc {aid}")
            i = self.dart_index[arc.darts[0]]
            ce0, ce1 = self.edge_of_lift[2 * i], self.edge_of_lift[2 * i + 1]
            if arc.kind == "edge":
                # the two lifts close up into one cycle through two branch points
                cycle = tuple(sorted({ce0, ce1}))
                if len(cycle) != 2:
                    raise ConstructionError(f"edge arc {aid} lifted to one edge")
                ends0 = self.edge_endpoints(ce0)
                ends1 = self.edge_endpoints(ce1)
                if ends0 != ends1 or ends0[0] == ends0[1]:
                    raise ConstructionError(f"edge arc {aid} lift is not a bigon")
                self.lifted_cycles[aid] = [cycle]
                self.kept_cycle[aid] = cycle
                self.hsharp.update(cycle)
            else:
                # figure eight: two loop lifts wedged at the single branch lift
                if ce0 == ce1:
                    raise ConstructionError(f"loop arc {aid} lifted to one edge")
                e0, e1 = self.edge_endpoints(ce0), self.edge_endpoints(ce1)
                if not (e0[0] == e0[1] == e1[0] == e1[1]):
                    raise ConstructionError(f"loop arc {aid} lift is not a figure eight")
                kept = self.edge_of_lift[2 * self.dart_index[min(arc.darts)]]
                other = ce1 if kept == ce0 else ce0
                self.lifted_cycles[aid] = [(kept,), (other,)]
                self.kept_cycle[aid] = (kept,)
                self.hsharp.add(kept)

    def _validate(self) -> None:
        expected_chi = 4 - self.n_cone
        if self.euler() != expected_chi:
            raise ConstructionError(
                f"cover Euler characteristic {self.euler()}, expected {expected_chi}"
            )
        if not self.is_connected():
            raise ConstructionError("cover is disconnected")
        branch_base = sorted(map(self._projection_vertex, self.branch_vertices))
        if branch_base != sorted(self.master.rotations):
            raise ConstructionError("sheet swap does not fix exactly the cone points")
        for dl in range(len(self.sigma_hat)):
            if self.sigma_hat[dl ^ 1] != self.sigma_hat[dl] ^ 1:
                raise ConstructionError("sheet swap is not a map automorphism")
            if self.alpha_hat[dl ^ 1] != self.alpha_hat[dl] ^ 1:
                raise ConstructionError("sheet swap is not a map automorphism")
            if self.alpha_hat[self.alpha_hat[dl]] != dl:
                raise ConstructionError("edge pairing is not an involution")

    # -- derived structure -------------------------------------------

    def _projection_vertex(self, cv: int) -> int:
        """Sphere vertex under cover vertex ``cv``, read off its smallest lift."""
        return self.master.dart_vertex[self.darts[self.lift_of_vertex[cv] // 2]]

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
                str(cv): self._projection_vertex(cv) for cv in range(self.n_vertices)
            },
            "projection_edges": {
                str(ce): self.master.edge_of_dart[self.darts[dl // 2]]
                for ce, dl in enumerate(self.lift_of_edge)
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
    return CoverComplex(MasterComplex(smap, subgraph))


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


def check_agreement(subgraph, parity: bool, basis: bool) -> None:
    """The parity test and the cover oracle must give one verdict; when
    they differ, one of them is wrong."""
    if parity != basis:
        word = {True: "nonseparating", False: "separating"}
        raise ConstructionError(
            f"oracles disagree on arcs {sorted(subgraph)}: "
            f"parity {word[parity]}, cover {word[basis]}"
        )


def is_partial_basis(smap: SphereMap, subgraph) -> bool:
    """Whether the lifted system extends to a homology basis."""
    return verdict(smap, subgraph)[0] == 1
