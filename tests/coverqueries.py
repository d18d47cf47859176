"""Cover queries that only the tests use: connectivity by a walk over
the cover's darts, dual-walk winding parity, the dual circle around a
vertex, the dimension of first homology, the deck involution, the lifts
of each arc, and the cover debug dump that the golden file pins byte
for byte.

A ``CoverComplex`` keeps only what the independence check reads; the
tables below are derived here from its lift tables and master edges."""

import json

from hyperbasis import cover
from hyperbasis.cover import CoverComplex
from hyperbasis.errors import InputError


def is_connected(cov: CoverComplex) -> bool:
    """Whether sigma-hat and alpha-hat reach every dart lift from lift 0:
    a check of the cover's connectivity independent of its face count."""
    seen = [False] * len(cov.sigma_hat)
    stack = [0]
    seen[0] = True
    while stack:
        dl = stack.pop()
        for nxt in (cov.sigma_hat[dl], cov.alpha_hat[dl]):
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(nxt)
    return all(seen)


def winding_parity(cov: CoverComplex, crossings) -> int:
    """Parity of branch-cut crossings along a closed dual walk, given as
    the cyclic list of master-edge indices the walk crosses.

    Consecutive crossings must share a face; a walk that would need to
    squeeze through a vertex is rejected.
    """
    walk = [int(e) for e in crossings]
    for e in walk:
        if not 0 <= e < len(cov.master.edges):
            raise InputError(f"unknown master edge {e}")
    if walk:
        faces = cov.master.face_orbits()
        face_of = {d: i for i, f in enumerate(faces) for d in f}
        sides = [
            {face_of[d] for d in cov.master.edges[e].darts} for e in walk
        ]
        for i in range(len(walk)):
            if not sides[i] & sides[(i + 1) % len(walk)]:
                raise InputError(
                    "consecutive crossings share no face; the walk passes "
                    "through a vertex"
                )
    return sum(1 for e in walk if e in cov.master.branch_cuts) % 2


def vertex_circle(cov: CoverComplex, vertex: int) -> list[int]:
    """Edge crossings of a small dual circle around a master vertex."""
    rot = cov.master.rotations[vertex]
    if not rot:
        raise InputError(f"vertex {vertex} has no incident edges")
    edge_of_dart = master_edge_of_dart(cov)
    return [edge_of_dart[d] for d in rot]


def h1_dimension(cov: CoverComplex) -> int:
    """dim H_1 over GF(2); equals 2*genus for a connected cover."""
    z1 = cov.n_edges - cov.n_vertices + 1
    return z1 - cover._gf2_extend({}, cover._boundary_rows(cov))


def master_edge_of_dart(cov: CoverComplex) -> dict[int, int]:
    """Master edge index of every master dart."""
    return {d: e.idx for e in cov.master.edges for d in e.darts}


def deck_vertex(cov: CoverComplex, cv: int) -> int:
    """Image of cover vertex ``cv`` under the sheet swap."""
    if not 0 <= cv < cov.n_vertices:
        raise InputError(f"unknown cover vertex {cv}")
    return cov.vertex_of_lift[cov.lift_of_vertex[cv] ^ 1]


def lifted_cycles(cov: CoverComplex, aid: int) -> list[tuple[int, ...]]:
    """Cover cycles over arc ``aid`` of the lifted system: one cycle of
    two cover edges for an edge arc, or the two loops of a loop arc's
    figure eight, the kept one first."""
    kept = cov.kept_cycle[aid]
    arc = cov.master.smap.arcs[aid]
    if arc.kind == "edge":
        return [kept]
    i = cov.dart_index[arc.darts[0]]
    (other,) = {cov.edge_of_lift[2 * i], cov.edge_of_lift[2 * i + 1]} - set(kept)
    return [kept, (other,)]


def debug_dict(cov: CoverComplex) -> dict:
    """Every table of the cover, keyed for JSON."""
    edge_of_dart = master_edge_of_dart(cov)
    return {
        "n_vertices": cov.n_vertices,
        "n_edges": cov.n_edges,
        "n_faces": cov.n_faces,
        "euler": cov.euler(),
        "branch_vertices": list(cov.branch_vertices),
        "branch_cuts": sorted(cov.master.branch_cuts),
        "scaffold_edges": [
            e.idx for e in cov.master.edges if e.arc_id is None
        ],
        "projection_vertices": {
            str(cv): cov._projection_vertex(cv) for cv in range(cov.n_vertices)
        },
        "projection_edges": {
            str(ce): edge_of_dart[cov.darts[dl // 2]]
            for ce, dl in enumerate(cov.lift_of_edge)
        },
        "sheet_of_lift": [dl % 2 for dl in range(len(cov.sigma_hat))],
        "deck_vertex_map": {
            str(cv): deck_vertex(cov, cv) for cv in range(cov.n_vertices)
        },
        "lifted_cycles": {
            str(a): [list(c) for c in lifted_cycles(cov, a)]
            for a in sorted(cov.kept_cycle)
        },
        "hsharp_edges": sorted(cov.hsharp),
    }


def debug_json(cov: CoverComplex) -> str:
    """The debug dump as one line of JSON, keys sorted."""
    return json.dumps(debug_dict(cov), sort_keys=True)
