"""Arrangement builders shared across the test modules: small fixed
maps, random growth-shaped maps and arc subsets, map JSON, and the
reference checks' union-find.

Random growth-shaped maps replay the growth process combinatorially
with random choices: every inserted arc has a bare endpoint, so the
components stay loops, trees, and looped trees, while nesting, loop
contents, and attachment corners are randomized.  The golden family
digests pin their draws, so a change to them re-records the pins.
"""

from __future__ import annotations

import json
import random

from hyperbasis.errors import InputError
from hyperbasis.spheremap import MapBuilder, SphereMap


class UnionFind:
    """Plain union-find over hashable items for the reference checks:
    each union links the second root under the first, and no path is
    shortened, so it shares no code with the package's ``_root``."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self) -> dict:
        """Root -> members, in the order the members were added."""
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def map_json(m: SphereMap) -> str:
    """A map's JSON description, keys sorted, as ``from_json`` reads it."""
    return json.dumps(m.to_dict(), sort_keys=True)


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
        arcs[k + 1] = ("edge", (2 * k, 2 * k + 1))
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


def random_growth_map(rng: random.Random, n_cone: int) -> SphereMap:
    """Random arrangement produced by growth-rule insertions.

    ``n_cone`` must be even and at least 4.  Active vertices are exactly
    the bare ones; each step freezes one or two of them with a random
    feasible event.
    """
    if n_cone < 4 or n_cone % 2:
        raise InputError("cone count must be even and at least 4")
    builder = MapBuilder(range(1, n_cone + 1))
    active = set(range(1, n_cone + 1))
    aid = 0
    while active:
        aid += 1
        i = rng.choice(sorted(active))
        region = builder.region_of_vertex(i)
        others = [v for v in sorted(active) if v != i and builder.region_of_vertex(v) == region]
        hosts = []
        for w in sorted(builder.rotations):
            if w in active or not builder.rotations[w]:
                continue
            if builder.corners_on_region(w, region):
                hosts.append(w)
        moves = ["self"]
        if others:
            moves.append("pair")
        if hosts:
            moves.append("attach")
        move = rng.choice(moves)
        if move == "pair":
            w = rng.choice(others)
            builder.add_bone(aid, i, w)
            active -= {i, w}
        elif move == "attach":
            w = rng.choice(hosts)
            corners = builder.corners_on_region(w, region)
            builder.attach_edge(aid, i, w, rng.choice(corners))
            active.discard(i)
        else:
            enclosed: set[int] = set()
            for item in builder.region_item_contents(region):
                if item["vertices"] == {i}:
                    continue
                if rng.random() < 0.5:
                    enclosed |= item["vertices"]
            builder.add_loop(aid, i, enclosed)
            active.discard(i)
    return builder.finalize()


def random_subgraph(rng: random.Random, smap: SphereMap, keep_prob: float = 0.6):
    """Random arc subset of a map, for exercising the separation tests."""
    return frozenset(a for a in smap.arcs if rng.random() < keep_prob)
