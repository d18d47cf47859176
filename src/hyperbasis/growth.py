"""Event-driven simulation of simultaneous disk growth on a cone sphere.

All still-active disks share one radius that only grows.  The next event
is the smallest of three candidate radii: a disk reaching its own
shortest-loop radius (self touch), two active disks meeting halfway
(pair touch), or an active disk reaching a frozen one (pair touch with
one side frozen, consuming a single new point).  Every event freezes the
touched active disk(s) at the event radius and records one geodesic arc:
a loop at the self-touching point, or an edge between the touching pair.

Simultaneous candidates (within 1e-9 relative) are ordered pair-before-
self, then lexicographically by endpoint pair, which makes every run
reproducible bit for bit.

Each event is a report row: a dict with keys ``m`` (its 1-based index),
``kind``, ``i``, ``j`` (``None`` for a self touch), ``other_frozen``,
``r``, ``k`` (disks it consumes) and ``j_before`` (disks consumed
before it).  ``GrowthLog`` holds ``genus``, ``model`` and ``events``,
and the ``simulate`` command writes exactly these fields.

``simulate`` reads the metric model once per vertex (its loop radius)
and once per unordered pair (their distance) before the first event; a
non-finite value raises ``InvalidMetric``.  Each candidate is built
once, with a radius that never changes, into one heap: every self touch
and active pair at the start, and a vertex's pairs with the still-active
ones when it freezes.  A candidate whose active end has frozen is
dropped when it reaches the top.  Each event pops the candidates tied
with the top, takes the first by the tie rule and pushes the others
back, so a run with n cone points costs O(n^2 log n) (a tied set of
O(n) per event, as in the regular model, stays within that).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from . import bounds
from .errors import BoundViolation, InputError, InvalidMetric

__all__ = ["GrowthLog", "simulate", "verify_radius_bounds", "arc_graph"]

_TIE_REL = 1e-9
_RADIUS_TOL = 1e-9


def _decreases(r: float, r_prev: float) -> bool:
    """Whether an event radius falls below the one before it by more than
    the tie window (1e-9 relative), or by more than 1e-9 below radius 1:
    a tie may take the larger of two radii first."""
    return r < r_prev - max(_RADIUS_TOL, abs(r_prev) * _TIE_REL)


@dataclass
class GrowthLog:
    genus: int
    model: str
    events: list[dict]

    @property
    def M(self) -> int:
        return len(self.events)

    def consumed_total(self) -> int:
        return sum(ev["k"] for ev in self.events)

    def j_final(self) -> int:
        return sum(ev["k"] for ev in self.events[:-1])

    def validate(self) -> None:
        """Structural bookkeeping of a complete run; radius bounds are
        checked separately."""
        g = self.genus
        n = 2 * g + 2
        if not g >= 2:
            raise InputError(f"genus must be >= 2, got {g}")
        if not (g + 1 <= self.M <= n):
            raise InputError(f"M = {self.M} outside [{g + 1}, {n}]")
        if self.consumed_total() != n:
            raise InputError(
                f"events consume {self.consumed_total()} disks, expected {n}"
            )
        if self.j_final() not in (2 * g, 2 * g + 1):
            raise InputError(f"final consumed count {self.j_final()} invalid")
        frozen: set[int] = set()
        j = 0
        r_prev = 0.0
        for idx, ev in enumerate(self.events, start=1):
            kind, i, w, k, r = ev["kind"], ev["i"], ev["j"], ev["k"], ev["r"]
            if ev["m"] != idx:
                raise InputError(f"event {idx} misnumbered as {ev['m']}")
            if ev["j_before"] != j:
                raise InputError(f"event {idx} has j_before {ev['j_before']} != {j}")
            if _decreases(r, r_prev):
                raise InputError(f"event {idx} radius decreases")
            newly: tuple[int, ...]
            if kind == "self":
                if k != 1 or w is not None or ev["other_frozen"]:
                    raise InputError(f"self event {idx} malformed")
                newly = (i,)
            elif kind == "pair":
                if w is None or i == w:
                    raise InputError(f"pair event {idx} malformed")
                if ev["other_frozen"]:
                    if k != 1 or w not in frozen:
                        raise InputError(f"pair event {idx} malformed")
                    newly = (i,)
                else:
                    if k != 2 or w in frozen:
                        raise InputError(f"pair event {idx} malformed")
                    newly = (i, w)
            else:
                raise InputError(f"unknown event kind {kind!r}")
            for v in newly:
                if v in frozen or not 1 <= v <= n:
                    raise InputError(f"event {idx} refreezes vertex {v}")
                frozen.add(v)
            j += k
            r_prev = max(r_prev, r)
        if len(frozen) != n:
            raise InputError("some vertices never froze")


def simulate(model) -> GrowthLog:
    """Run the growth process to completion on a metric model."""
    n = model.n_points
    vertices = range(1, n + 1)
    # The oracle values never change during a run, so each is read once:
    # loop[i] per vertex, and dist[i][w] per unordered pair, filled on both
    # sides (the models are exactly symmetric).
    loop = [0.0] * (n + 1)
    dist = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i in vertices:
        loop[i] = model.loop_radius(i)
        if not math.isfinite(loop[i]):
            raise InvalidMetric(f"loop radius of vertex {i} is {loop[i]}")
        for w in range(i + 1, n + 1):
            d = model.pair_distance(i, w)
            if not math.isfinite(d):
                raise InvalidMetric(f"distance between {i} and {w} is {d}")
            dist[i][w] = dist[w][i] = d
    # Every candidate is built once and keeps its radius: a self touch is
    # worth loop[i], an active pair dist[i][w] / 2, and once f freezes at r,
    # a pair (i, f) with i active is worth dist[i][f] - r.  Heap entries are
    # (radius, kind rank, endpoint pair, other_frozen, payload); pairs beat
    # self touches, and other_frozen tells a stale active pair from the live
    # frozen pair on the same endpoints, so no two payloads are compared.
    heap: list[tuple[float, int, tuple[int, int], bool, dict]] = []
    for i in vertices:
        heap.append(
            (
                loop[i],
                1,
                (i, i),
                False,
                {"kind": "self", "i": i, "j": None, "other_frozen": False, "k": 1},
            )
        )
        for w in range(i + 1, n + 1):
            heap.append(
                (
                    dist[i][w] / 2.0,
                    0,
                    (i, w),
                    False,
                    {"kind": "pair", "i": i, "j": w, "other_frozen": False, "k": 2},
                )
            )
    heapq.heapify(heap)
    active = [False] + [True] * n

    def live(entry) -> bool:
        # the payload's i is active in every kind; an active pair needs its j too
        ev = entry[4]
        return active[ev["i"]] and (ev["k"] == 1 or active[ev["j"]])

    events: list[dict] = []
    j = 0
    r_prev = 0.0

    while j < n:
        while not live(heap[0]):
            heapq.heappop(heap)
        r_min = heap[0][0]
        tol = abs(r_min) * _TIE_REL + 1e-18
        tied = []
        while heap and heap[0][0] <= r_min + tol:
            entry = heapq.heappop(heap)
            if live(entry):
                tied.append(entry)
        best = min(tied, key=lambda c: (c[1], c[2]))
        for entry in tied:
            if entry is not best:
                heapq.heappush(heap, entry)
        r, ev = best[0], best[4]
        if _decreases(r, r_prev):
            raise InvalidMetric(
                f"event radius {r} decreases below {r_prev} at step {len(events) + 1}"
            )
        if r <= 0:
            raise InvalidMetric(f"nonpositive event radius {r}")
        events.append(ev | {"m": len(events) + 1, "r": r, "j_before": j})
        newly = (ev["i"],) if ev["k"] == 1 else (ev["i"], ev["j"])
        for f in newly:
            active[f] = False
        # both ends of a bone freeze before their pairs go in: no pair of two frozen
        for f in newly:
            for i in vertices:
                if active[i]:
                    heapq.heappush(
                        heap,
                        (
                            dist[i][f] - r,
                            0,
                            (i, f) if i < f else (f, i),
                            True,
                            {"kind": "pair", "i": i, "j": f, "other_frozen": True, "k": 1},
                        ),
                    )
        j += ev["k"]
        r_prev = max(r_prev, r)

    log = GrowthLog(genus=model.genus, model=model.name, events=events)
    log.validate()
    return log


def verify_radius_bounds(log: GrowthLog) -> list[dict]:
    """Check every event radius against the packing bound; returns the
    per-step slack, raises BoundViolation on the first offending step."""
    report = []
    for ev in log.events:
        m, r = ev["m"], ev["r"]
        limit = bounds.radius_bound(log.genus, ev["j_before"])
        if r > limit + _RADIUS_TOL:
            raise BoundViolation(m, r, limit)
        report.append({"m": m, "r": r, "bound": limit, "slack": limit - r})
    return report


def arc_graph(log: GrowthLog, model):
    """Embedded arc arrangement of a growth log, one arc per event with
    the event index as arc id.  Accepts prefixes of a run; untouched
    vertices come out isolated.  The log is not checked again here:
    ``simulate`` validates every log it makes."""
    return model.build_arc_graph(log)
