"""Small arrangement builders shared across the test modules."""

from hyperbasis.spheremap import Arc, MapBuilder, SphereMap


def euler_summary(m: SphereMap) -> tuple[int, int, int, int]:
    """(V, E, F, C) with F counted as arrangement regions."""
    return (
        len(m.rotations),
        len(m.arcs),
        len(m.regions),
        len(m.components),
    )


def polygon_cycle(n: int) -> SphereMap:
    """Boundary cycle of an n-gon: side k joins vertices k and k+1."""
    rot = {v: [] for v in range(1, n + 1)}
    arcs = {}
    for k in range(n):
        u, w = k + 1, (k + 1) % n + 1
        arcs[k + 1] = Arc(id=k + 1, kind="edge", u=u, v=w, darts=(2 * k, 2 * k + 1))
        rot[u].append(2 * k)
        rot[w].append(2 * k + 1)
    return SphereMap(rot, arcs)


def hexagon_sub(kept) -> SphereMap:
    """Sub-arrangement of the hexagon cycle with the given side ids."""
    m = polygon_cycle(6)
    return m.without_arcs(set(m.arcs) - set(kept))


def bones(pairs, n_vertices: int) -> SphereMap:
    b = MapBuilder(range(1, n_vertices + 1))
    for aid, (u, w) in enumerate(pairs, start=1):
        b.add_bone(aid, u, w)
    return b.finalize()


def sibling_loops(n: int) -> SphereMap:
    """n empty loops side by side; not realizable by disk growth."""
    b = MapBuilder(range(1, n + 1))
    for v in range(1, n + 1):
        b.add_loop(v, v, set())
    return b.finalize()
