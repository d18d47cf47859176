"""Cover queries that only the tests use: dual-walk winding parity, the
dual circle around a vertex, and the dimension of first homology."""

from hyperbasis import cover
from hyperbasis.cover import CoverComplex
from hyperbasis.errors import InputError


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
    return [cov.master.edge_of_dart[d] for d in rot]


def h1_dimension(cov: CoverComplex) -> int:
    """dim H_1 over GF(2); equals 2*genus for a connected cover."""
    z1 = cov.n_edges - cov.n_vertices + 1
    return z1 - cover._gf2_extend({}, cover._boundary_rows(cov))
