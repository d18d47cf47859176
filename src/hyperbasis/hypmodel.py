"""Metric models of the quotient cone sphere consumed by the growth process.

The concrete testbed realizes the sphere as the double of a regular
right-angled (2g+2)-gon: each polygon vertex has angle pi/2, so the
double has 2g+2 cone points of angle pi, and its area is 2*pi*(g-1).
Distances between cone points and from cone points to boundary edges
are all that is ever needed, and each is a closed form in N = 2g+2.

A synthetic model loads an explicit distance matrix, loop radii, and an
arc placement table from a JSON file.  Its data is validated for
finiteness, symmetry and positivity only; whether it is realizable by an
actual cone metric is not certified, and geometric impossibilities
surface downstream as typed errors.  The placement table is indexed once
by kind and endpoints (a loop by its base, an edge by its unordered
ends): the first descriptor with an event's key places its arc, and
later duplicates are never read.  A loaded model is read-only, so one
model embeds any number of logs.

Both models embed a growth log the same way: ``realize_arc`` gives each
event's placement (an edge, or a loop with the cone points it encloses)
and ``MetricModel.build_arc_graph`` inserts the arcs in growth order
with ``MapBuilder``.  The regular model realizes only polygon sides, as
plain edges.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .errors import EmbeddingError, InputError
from .jsonio import json_int
from .spheremap import MapBuilder, SphereMap

__all__ = [
    "ArcEmbedding",
    "MetricModel",
    "RegularDoubledPolygonModel",
    "SyntheticModel",
    "regular_model",
    "load_synthetic",
]


@dataclass(frozen=True)
class ArcEmbedding:
    """Placement descriptor for inserting one growth arc into a sphere map."""

    kind: str                      # "edge" | "loop"
    i: int
    j: int | None = None
    at: int = 0                    # corner index at the occupied endpoint
    enclosed: tuple[int, ...] = ()  # cone points inside a new loop


class MetricModel:
    """Distance oracle for a cone sphere with 2g+2 marked points."""

    genus: int
    name: str

    @property
    def n_points(self) -> int:
        return 2 * self.genus + 2

    def pair_distance(self, i: int, j: int) -> float:
        raise NotImplementedError

    def loop_radius(self, i: int) -> float:
        raise NotImplementedError

    def realize_arc(self, event) -> ArcEmbedding:
        raise NotImplementedError

    def build_arc_graph(self, log) -> SphereMap:
        """Embed one arc per event in growth order, the event index as
        arc id; every arc has an endpoint that is still bare."""
        builder = MapBuilder(range(1, self.n_points + 1))
        for ev in log.events:
            m = ev["m"]
            emb = self.realize_arc(ev)
            if emb.kind == "loop":
                builder.add_loop(m, emb.i, emb.enclosed)
                continue
            i, j = emb.i, emb.j
            i_bare = not builder.rotations[i]
            j_bare = not builder.rotations[j]
            if i_bare and j_bare:
                builder.add_bone(m, i, j)
            elif i_bare or j_bare:
                fresh, host = (i, j) if i_bare else (j, i)
                corners = builder.corners_on_region(
                    host, builder.region_of_vertex(fresh)
                )
                if not corners:
                    raise EmbeddingError(
                        f"vertex {host} has no corner on the region of {fresh}"
                    )
                builder.attach_edge(m, fresh, host, corners[emb.at % len(corners)])
            else:
                raise EmbeddingError(
                    f"event {m} joins two occupied vertices; not a growth arc"
                )
        return builder.finalize()

    def _check_vertex(self, i: int) -> int:
        if not 1 <= i <= self.n_points:
            raise InputError(f"vertex {i} out of range 1..{self.n_points}")
        return i


class RegularDoubledPolygonModel(MetricModel):
    """Double of the regular right-angled N-gon, N = 2g+2.

    Every oracle value is a closed form in N: cosh R = cot(pi/N) for the
    circumradius and cosh(s/2) = sqrt(2) cos(pi/N) for the side length.
    Both polygon copies are geodesically convex in the double, so the
    distance between cone points is the chord of the circumcircle, and
    the shortest geodesic loop based at a vertex runs to the nearest
    non-incident boundary edge and back through the other copy.

    The N - 1 chord lengths are computed once, at construction, indexed
    by the label difference |i - j| rather than the shorter way round:
    d(1, N) and d(1, 2) are one chord but differ in the last bits, and
    the reports keep the bits of each.  ``pair_distance`` is then a
    range check and a table lookup.
    """

    def __init__(self, g: int):
        if not isinstance(g, int) or g < 2:
            raise InputError(f"genus must be an integer >= 2, got {g!r}")
        self.genus = g
        self.name = "regular"
        n = self.n_points
        self.circumradius = math.acosh(1.0 / math.tan(math.pi / n))
        self.side = 2.0 * math.acosh(math.sqrt(2.0) * math.cos(math.pi / n))
        cr, sr = math.cosh(self.circumradius), math.sinh(self.circumradius)
        self.chords = [0.0] + [
            math.acosh(cr * cr - sr * sr * math.cos(2.0 * math.pi * m / n))
            for m in range(1, n)
        ]

    def pair_distance(self, i: int, j: int) -> float:
        n = len(self.chords)
        if not (1 <= i <= n and 1 <= j <= n):
            self._check_vertex(i)
            self._check_vertex(j)
        return self.chords[abs(i - j)]

    def loop_radius(self, i: int) -> float:
        """Distance to the nearest non-incident side: the side length.
        Every angle is right, so the perpendicular from a vertex to the
        side after its neighbour's has that neighbour as its foot."""
        self._check_vertex(i)
        return self.side

    def realize_arc(self, event) -> ArcEmbedding:
        if event["kind"] != "pair":
            raise EmbeddingError(
                "the regular model only realizes boundary-side arcs; "
                f"cannot place a {event['kind']} event"
            )
        n = self.n_points
        i, j = sorted((event["i"], event["j"]))
        if not (j - i == 1 or (i == 1 and j == n)):
            raise EmbeddingError(
                f"arc {i}-{j} is not a polygon side; the growth process on "
                "the regular model only touches adjacent vertices"
            )
        return ArcEmbedding(kind="edge", i=i, j=j)


def regular_model(g: int) -> RegularDoubledPolygonModel:
    """Regular doubled right-angled polygon testbed for the given genus."""
    return RegularDoubledPolygonModel(g)


class SyntheticModel(MetricModel):
    """Cone sphere given by explicit tables instead of geometry."""

    def __init__(self, data: dict, name: str = "synthetic"):
        if not isinstance(data, dict):
            raise InputError("synthetic model must be a JSON object")
        g = json_int(data.get("genus"), "genus")
        if g < 2:
            raise InputError(f"genus must be >= 2, got {g}")
        self.genus = g
        self.name = name
        n = self.n_points
        dist = data.get("distances")
        if (
            not isinstance(dist, list)
            or len(dist) != n
            or any(not isinstance(row, list) or len(row) != n for row in dist)
        ):
            raise InputError(f"distances must be a {n}x{n} matrix")
        self.distances = [_finite_floats(row, "distances") for row in dist]
        for a in range(n):
            if self.distances[a][a] != 0.0:
                raise InputError("distance matrix has nonzero diagonal")
            for b in range(a + 1, n):
                if self.distances[a][b] != self.distances[b][a]:
                    raise InputError("distance matrix is not symmetric")
                if self.distances[a][b] <= 0.0:
                    raise InputError("off-diagonal distances must be positive")
        radii = data.get("loop_radii")
        if not isinstance(radii, list) or len(radii) != n:
            raise InputError(f"loop_radii must list {n} values")
        self.loop_radii = _finite_floats(radii, "loop_radii")
        if any(r <= 0 for r in self.loop_radii):
            raise InputError("loop radii must be positive")
        entries = data.get("arcs", [])
        if not isinstance(entries, list):
            raise InputError("arcs must be a list")
        # keyed (i,) for a loop, (min, max) for an edge; the first entry wins
        self.placements: dict[tuple[int, ...], ArcEmbedding] = {}
        for idx, entry in enumerate(entries):
            emb = self._arc_entry(idx, entry)
            key = (emb.i,) if emb.kind == "loop" else (min(emb.i, emb.j), max(emb.i, emb.j))
            self.placements.setdefault(key, emb)

    def _arc_entry(self, idx: int, entry) -> ArcEmbedding:
        """Validated placement descriptor of ``arcs[idx]``."""
        if not isinstance(entry, dict):
            raise InputError(f"arc entry {idx} must be an object, got {entry!r}")
        kind = entry.get("kind")
        if kind not in ("edge", "loop"):
            raise InputError(
                f"arc entry {idx}: kind must be edge or loop, got {kind!r}"
            )

        def integer(key, value):
            return json_int(value, f"arc entry {idx}: {key!r}")

        def vertex(key):
            if key not in entry:
                raise InputError(f"arc entry {idx}: missing {key!r}")
            return self._check_vertex(integer(key, entry[key]))

        enclosed = entry.get("enclosed", [])
        if not isinstance(enclosed, list):
            raise InputError(
                f"arc entry {idx}: 'enclosed' must be a list, got {enclosed!r}"
            )
        return ArcEmbedding(
            kind=kind,
            i=vertex("i"),
            j=vertex("j") if kind == "edge" else None,
            at=integer("at", entry.get("at", 0)),
            enclosed=tuple(integer("enclosed", x) for x in enclosed),
        )

    def pair_distance(self, i: int, j: int) -> float:
        self._check_vertex(i)
        self._check_vertex(j)
        return self.distances[i - 1][j - 1]

    def loop_radius(self, i: int) -> float:
        self._check_vertex(i)
        return self.loop_radii[i - 1]

    def realize_arc(self, event) -> ArcEmbedding:
        kind, i, j = event["kind"], event["i"], event["j"]
        key = (i,) if kind == "self" else (min(i, j), max(i, j))
        emb = self.placements.get(key)
        if emb is None:
            raise EmbeddingError(f"no arc descriptor for event {kind} ({i}, {j})")
        return emb


def _finite_floats(values, field: str) -> list[float]:
    """JSON numbers as finite floats; a string or a boolean is no number."""
    for x in values:
        if type(x) is not float and (isinstance(x, bool) or not isinstance(x, (int, float))):
            raise InputError(f"{field} must hold numbers, got {x!r}")
    bad = [x for x in values if not abs(x) <= sys.float_info.max]  # nan, inf, huge int
    if bad:
        raise InputError(f"{field} must be finite, got {bad[0]}")
    return [float(x) for x in values]


def load_synthetic(path) -> SyntheticModel:
    """Load a synthetic model from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read model file: {e}") from e
    except (ValueError, RecursionError) as e:   # also too deep, or an over-long int
        raise InputError(f"bad model JSON: {e}") from e
    return SyntheticModel(data, str(path))
