"""Combinatorial branched double cover of the marked sphere.

Given an arrangement and a designated arc system H, the sphere is first
refined into one connected cell complex: scaffold edges chain the pieces
of every region together, and extra chords are inserted until the
complex stays connected after removing H's arcs.  The complex is a
``spheremap.RotationSystem`` that starts from copies of the map's
validated rotation, sigma, alpha and dart-vertex tables; the chords come
from one pass over its faces by smallest dart, each walked once and
fanning chords out of one corner at its smallest vertex.  A branch-cut
set B is then chosen inside the non-H edges with odd degree at every
vertex, each a cone point (a T-join), so that a walk crossing B an odd
number of times encircles an odd number of cone points.

The cover itself is the derived map on dart sheets (d, s):

    alpha*(d, s) = (alpha(d), s ^ B(d))        crossing the edge itself
    sigma*(d, s) = (sigma(d), s ^ B(sigma(d))) crossing the next edge
                                               around the vertex

Lift (d, s) is 2*i + s for the i-th dart d, so each lift table is its
sheet-0 slice, one entry per dart, interleaved with that slice with the
sheet bit flipped.  Vertices with odd B-degree (exactly the cone points)
have a single, branched lift; all other cells lift twice.  Euler
characteristic, connectivity, the fixed points of the sheet swap, and
the shapes of the lifted arcs (edges become single cycles through two
branch points, loops become figure eights) are validated on every
construction.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConstructionError, InputError
from .spheremap import RotationSystem, SphereMap, _root

__all__ = [
    "MasterComplex",
    "CoverComplex",
    "build_cover",
    "complement_components",
    "z2_cycle_rank",
    "verdict",
]


class _Edge(NamedTuple):
    idx: int
    darts: tuple[int, int]
    arc_id: int | None       # None for scaffold edges


class MasterComplex(RotationSystem):
    """Connected genus-zero refinement of a sphere arrangement.

    Carries the original arcs plus scaffold edges, the branch-cut set B,
    and rotation/pairing permutations over its darts.  It starts from
    copies of the map's validated tables, so no dart is checked twice.
    """

    def __init__(self, smap: SphereMap, subgraph):
        self.smap = smap
        self.subgraph = smap.arc_set(subgraph)
        self._copy_tables(smap)
        self.edges: list[_Edge] = [
            _Edge(idx, arc.darts, aid) for idx, (aid, arc) in enumerate(sorted(smap.arcs.items()))
        ]
        self.edge_of_arc: dict[int, int] = {e.arc_id: e.idx for e in self.edges}
        self._scaffold_regions()
        self._scaffold_connectivity()
        self._check_euler()
        self.branch_cuts = self._t_join()

    # -- scaffolding ----------------------------------------------------

    def _scaffold_regions(self) -> None:
        """Chain the faces and bare vertices of each region together.

        A face is anchored at its smallest vertex v, in the corner into
        its smallest dart y there (the rotation predecessor of y)."""
        faces, dart_vertex, rotations, edges = (
            self.smap.faces, self.dart_vertex, self.rotations, self.edges
        )
        for region in self.smap.regions:
            anchors: list[tuple[int, int | None]] = []
            for fkey in region["faces"]:
                v, y = min([(dart_vertex[d], d) for d in faces[fkey]])
                rot = rotations[v]
                anchors.append((v, rot[rot.index(y) - 1]))
            anchors += [(v, None) for v in region["isolated"]]
            # a region holds one face per component, so no two anchors share
            # a vertex and the sort never compares handles
            anchors.sort()
            for i in range(1, len(anchors)):
                (u, du), (w, dw) = anchors[i - 1], anchors[i]
                p, q = self._insert_arc(u, du, w, dw)
                edges.append(_Edge(len(edges), (p, q), None))
                # the next hop leaves from the dart just planted
                anchors[i] = (w, q)

    def _scaffold_connectivity(self) -> None:
        """Insert chords until the complex minus H's arcs is connected, so
        a T-join avoiding H exists.

        One pass over the faces, by smallest dart, fans chords out of
        one corner per face: u is the face's smallest vertex, at the
        corner into its smallest face dart there.  The face is walked
        once from that dart, and each dart whose vertex w lies outside
        u's component gets a chord from that corner to the corner into
        it.  The walk's remaining darts stay on the face holding the
        newest chord, so the chords never cross.  A walked face has all
        its vertices in one component, and both ends of every H arc lie
        on a common face, so one pass connects the complex.

        Components are a union-find on ``parent`` (see ``spheremap._root``).
        """
        dart_vertex, rotations, edges = self.dart_vertex, self.rotations, self.edges
        parent = {v: v for v in rotations}
        n_components = len(parent)
        for e in edges:
            if e.arc_id in self.subgraph:
                continue
            a = _root(parent, dart_vertex[e.darts[0]])
            b = _root(parent, dart_vertex[e.darts[1]])
            if a != b:
                parent[b] = a
                n_components -= 1
        for face in self.face_orbits():
            if n_components == 1:
                return
            u, y = min([(dart_vertex[d], d) for d in face])
            i = face.index(y)
            rot = rotations[u]
            handle, root = rot[rot.index(y) - 1], _root(parent, u)
            for x in face[i + 1:] + face[:i]:
                w = dart_vertex[x]
                rw = _root(parent, w)
                if rw != root:
                    rot = rotations[w]
                    p, q = self._insert_arc(u, handle, w, rot[rot.index(x) - 1])
                    edges.append(_Edge(len(edges), (p, q), None))
                    parent[rw] = root                # root stays u's root
                    n_components -= 1
        if n_components > 1:
            raise ConstructionError(
                "no face joins two components of the reduced complex"
            )

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
        orbit, dl = len(firsts), start
        while ids[dl] < 0:
            ids[dl] = orbit
            dl = perm[dl]
        firsts.append(start)
    return ids, firsts


def _flip(lifts: list[int]) -> list[int]:
    """The same lifts on the other sheet."""
    return [dl ^ 1 for dl in lifts]


def _sheets(sheet0: list[int]) -> list[int]:
    """A lift table from the images of the sheet-0 lifts: lift 2i maps to
    ``sheet0[i]``, and lift 2i + 1 to that image on the other sheet."""
    table = sheet0 * 2
    table[0::2] = sheet0
    table[1::2] = _flip(sheet0)
    return table


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
        self.darts = darts = sorted(master.dart_vertex)
        self.dart_index = index = {d: i for i, d in enumerate(darts)}
        cut = {d for e in master.branch_cuts for d in master.edges[e].darts}
        # the images of the sheet-0 lifts; crossing a cut edge changes sheet
        lift0 = {d: 2 * i + (d in cut) for i, d in enumerate(darts)}
        sigma0 = [lift0[master.sigma[d]] for d in darts]
        alpha0 = [2 * index[master.alpha[d]] + (d in cut) for d in darts]
        self.sigma_hat = sigma_hat = _sheets(sigma0)
        self.alpha_hat = alpha_hat = _sheets(alpha0)
        self.vertex_of_lift, self.lift_of_vertex = _orbit_ids(sigma_hat)
        self.edge_of_lift, self.lift_of_edge = _orbit_ids(alpha_hat)
        self.face_of_lift, face_firsts = _orbit_ids([sigma_hat[a] for a in alpha_hat])
        self.n_vertices = len(self.lift_of_vertex)
        self.n_edges = len(self.lift_of_edge)
        self.n_faces = len(face_firsts)
        vertex_of = self.vertex_of_lift
        self.branch_vertices = sorted(
            {cv for cv, other in zip(vertex_of[0::2], vertex_of[1::2]) if cv == other}
        )
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
                self.kept_cycle[aid] = (kept,)
                self.hsharp.add(kept)

    def _validate(self) -> None:
        expected_chi = 4 - self.n_cone
        if self.euler() != expected_chi:
            raise ConstructionError(
                f"cover Euler characteristic {self.euler()}, expected {expected_chi}"
            )
        # {sigma, alpha} and {sigma o alpha, alpha} generate one group, so
        # the cover is connected iff its faces are, across its edges
        if complement_components(self, ()) != 1:
            raise ConstructionError("cover is disconnected")
        branch_base = sorted(map(self._projection_vertex, self.branch_vertices))
        if branch_base != sorted(self.master.rotations):
            raise ConstructionError("sheet swap does not fix exactly the cone points")
        sigma_hat, alpha_hat = self.sigma_hat, self.alpha_hat
        if sigma_hat[1::2] != _flip(sigma_hat[0::2]) or alpha_hat[1::2] != _flip(alpha_hat[0::2]):
            raise ConstructionError("sheet swap is not a map automorphism")
        if [alpha_hat[a] for a in alpha_hat] != list(range(len(alpha_hat))):
            raise ConstructionError("edge pairing is not an involution")

    # -- derived structure -------------------------------------------

    def _projection_vertex(self, cv: int) -> int:
        """Sphere vertex under cover vertex ``cv``, read off its smallest lift."""
        return self.master.dart_vertex[self.darts[self.lift_of_vertex[cv] // 2]]

    def euler(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def edge_endpoints(self, ce: int) -> tuple[int, int]:
        dl = self.lift_of_edge[ce]
        a, b = self.vertex_of_lift[dl], self.vertex_of_lift[self.alpha_hat[dl]]
        return (a, b) if a <= b else (b, a)


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
    # a union-find on the faces; each merge joins two components
    parent = list(range(cov.n_faces))
    merges = 0
    face_of, alpha_hat = cov.face_of_lift, cov.alpha_hat
    for ce, dl in enumerate(cov.lift_of_edge):
        if ce in curve_edges:
            continue
        a, b = _root(parent, face_of[dl]), _root(parent, face_of[alpha_hat[dl]])
        if a != b:
            parent[b] = a
            merges += 1
    return cov.n_faces - merges


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
    for face, ce in zip(cov.face_of_lift, cov.edge_of_lift):
        rows[face] ^= 1 << ce
    return rows


def z2_cycle_rank(cov: CoverComplex, cycles) -> int:
    """Rank over GF(2) of the given edge sets in first homology.

    Each cycle is an iterable of cover-edge ids and must have vanishing
    boundary; an unknown id raises, naming the smallest.  The rank is
    computed modulo the face boundary space, whose rows are eliminated
    once before the cycles are reduced against them.
    """
    masks = []
    for cyc in cycles:
        edge_set = set(int(e) for e in cyc)
        bound = 0
        mask = 0
        for ce in sorted(edge_set):
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


def verdict(smap: SphereMap, subgraph, parity: bool) -> tuple[int, int]:
    """Complement components of the lifted system (one loop per figure
    eight) in the cover, and the GF(2) rank of its classes, checked
    against ``parity``, the parity test's verdict on the same system.

    A connected complement means the system extends to a homology basis;
    then the rank must equal the number of arcs, at most 2*genus.  The
    parity test must call the system nonseparating exactly then; when
    the two oracles differ, one of them is wrong.
    """
    cov = build_cover(smap, subgraph)
    sub = cov.master.subgraph
    components = complement_components(cov)
    rank = z2_cycle_rank(cov, [cov.kept_cycle[a] for a in sorted(sub)])
    basis = components == 1
    if basis:
        if rank != len(sub):
            raise ConstructionError(
                f"connected complement but rank {rank} != {len(sub)} curves"
            )
        if len(sub) > 2 * smap.genus:
            raise ConstructionError("more independent curves than 2*genus")
    if parity != basis:
        word = {True: "nonseparating", False: "separating"}
        raise ConstructionError(
            f"oracles disagree on arcs {sorted(sub)}: "
            f"parity {word[parity]}, cover {word[basis]}"
        )
    return components, rank
