"""The loop-around-bone block family.

The block family places n bones each surrounded by a loop, side by side
on the sphere; with 3n marked points (n even) pruning must recover
exactly the n bones.  For odd n one extra bare cone point keeps the
marked-point count even; it never joins a block.  The benchmark's
self-test checks its own block maps against this family.
"""

from __future__ import annotations

from .errors import InputError
from .spheremap import MapBuilder, SphereMap

__all__ = ["block_family"]


def block_family(n: int) -> SphereMap:
    """n loop-surrounded bones; vertex 3i-2 carries block i's loop around
    the bone {3i-1, 3i}.  Odd n adds one bare vertex at the end."""
    if n < 2:
        raise InputError("need at least two blocks")
    n_vertices = 3 * n + (1 if n % 2 else 0)
    builder = MapBuilder(range(1, n_vertices + 1))
    aid = 0
    for i in range(1, n + 1):
        base, u, w = 3 * i - 2, 3 * i - 1, 3 * i
        aid += 1
        builder.add_bone(aid, u, w)
        aid += 1
        builder.add_loop(aid, base, {u, w})
    return builder.finalize()
