import copy
import functools
import importlib
import json
import math
import random
import sys
from pathlib import Path

import pytest

from hyperbasis import bounds, growth, hypmodel, prune
from hyperbasis.errors import (
    BoundViolation,
    EmbeddingError,
    HyperbasisError,
    InputError,
    InvalidMetric,
)
from hyperbasis.spheremap import ComponentKind, SphereMap, classify_components
from mapfactory import euler_summary, polygon_cycle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_regular_g2_golden_sequence():
    m = hypmodel.regular_model(2)
    log = growth.simulate(m)
    half_side = math.acosh(2.0) / 2.0
    assert log.M == 5
    expected = [
        ("pair", 1, 2, False, 2),
        ("pair", 6, 1, True, 1),
        ("pair", 3, 2, True, 1),
        ("pair", 4, 3, True, 1),
        ("pair", 5, 4, True, 1),
    ]
    for ev, (kind, i, j, frozen, k) in zip(log.events, expected):
        assert (ev["kind"], ev["i"], ev["j"], ev["other_frozen"], ev["k"]) == (
            kind, i, j, frozen, k
        )
        assert ev["r"] == pytest.approx(half_side, abs=1e-12)
        assert ev["r"] == pytest.approx(0.6584789, abs=1e-7)
    assert log.consumed_total() == 6
    assert log.j_final() == 5
    assert [ev["j_before"] for ev in log.events] == [0, 2, 3, 4, 5]
    assert [ev["m"] for ev in log.events] == [1, 2, 3, 4, 5]


def test_first_radius_below_acosh2():
    for g in range(2, 13):
        log = growth.simulate(hypmodel.regular_model(g))
        assert log.events[0]["r"] < math.acosh(2.0)


@pytest.mark.parametrize("g", range(2, 13))
def test_regular_soundness(g):
    log = growth.simulate(hypmodel.regular_model(g))
    assert g + 1 <= log.M <= 2 * g + 2
    assert log.consumed_total() == 2 * g + 2
    assert log.j_final() in (2 * g, 2 * g + 1)
    radii = [ev["r"] for ev in log.events]
    assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))
    report = growth.verify_radius_bounds(log)
    assert all(row["slack"] >= -1e-9 for row in report)


def test_determinism_byte_identical():
    from hyperbasis import jsonio

    m = hypmodel.regular_model(5)
    a = jsonio.dumps(vars(growth.simulate(m)))
    b = jsonio.dumps(vars(growth.simulate(hypmodel.regular_model(5))))
    assert a == b


def test_tampered_log_violates_bound():
    log = growth.simulate(hypmodel.regular_model(2))
    bad = growth.GrowthLog(
        genus=2,
        model="tampered",
        events=[
            {"m": 1, "kind": "pair", "i": 1, "j": 2, "other_frozen": False,
             "r": 10.0, "k": 2, "j_before": 0}
        ]
        + [ev | {"r": 10.0} for ev in log.events[1:]],
    )
    with pytest.raises(BoundViolation) as exc:
        growth.verify_radius_bounds(bad)
    assert exc.value.step == 1


def forced_selftouch_data():
    n = 6
    dist = [[0.0 if a == b else 2.0 for b in range(n)] for a in range(n)]
    return {
        "genus": 2,
        "distances": dist,
        "loop_radii": [0.3, 0.35, 0.4, 0.45, 0.5, 0.55],
        "arcs": [
            {"kind": "loop", "i": 1, "enclosed": []},
            {"kind": "loop", "i": 2, "enclosed": [1]},
            {"kind": "loop", "i": 3, "enclosed": []},
            {"kind": "loop", "i": 4, "enclosed": []},
            {"kind": "loop", "i": 5, "enclosed": []},
            {"kind": "loop", "i": 6, "enclosed": []},
        ],
    }


def forced_selftouch_model():
    return hypmodel.SyntheticModel(forced_selftouch_data())


def test_synthetic_forced_self_touch():
    m = forced_selftouch_model()
    log = growth.simulate(m)
    first = log.events[0]
    assert (first["kind"], first["i"], first["k"], first["r"]) == ("self", 1, 1, 0.3)
    assert log.M == 6 and log.consumed_total() == 6


def fig4_style_data():
    """Two quick bones, then loops around them: the block picture."""
    n = 6
    dist = [[0.0 if a == b else 2.0 for b in range(n)] for a in range(n)]
    dist[1][2] = dist[2][1] = 0.4
    dist[4][5] = dist[5][4] = 0.4
    return {
        "genus": 2,
        "distances": dist,
        "loop_radii": [0.5, 10.0, 10.0, 0.55, 10.0, 10.0],
        "arcs": [
            {"kind": "edge", "i": 2, "j": 3},
            {"kind": "edge", "i": 5, "j": 6},
            {"kind": "loop", "i": 1, "enclosed": [2, 3]},
            {"kind": "loop", "i": 4, "enclosed": [5, 6]},
        ],
    }


def fig4_style_model():
    return hypmodel.SyntheticModel(fig4_style_data())


def test_fig4_style_synthetic_log():
    m = fig4_style_model()
    log = growth.simulate(m)
    assert [(ev["kind"], ev["i"]) for ev in log.events] == [
        ("pair", 2),
        ("pair", 5),
        ("self", 1),
        ("self", 4),
    ]
    growth.verify_radius_bounds(log)
    graph = growth.arc_graph(log, m)
    kinds = classify_components(graph)
    assert sorted(k.value for k in kinds) == ["loop", "loop", "tree", "tree"]
    from hyperbasis.spheremap import region_tree

    tree = region_tree(graph, graph.arcs.keys())
    assert len(tree.nodes) == 3


def test_arc_graph_regular_path():
    m = hypmodel.regular_model(2)
    graph = growth.arc_graph(growth.simulate(m), m)
    assert euler_summary(graph) == (6, 5, 1, 1)
    assert classify_components(graph) == [ComponentKind.TREE]
    assert {(a.u, a.v) for a in graph.arcs.values()} == {
        (1, 2), (1, 6), (2, 3), (3, 4), (4, 5)
    }


def test_log_roundtrip_and_validation():
    m = hypmodel.regular_model(3)
    log = growth.simulate(m)
    back = growth.GrowthLog(**json.loads(json.dumps(vars(log))))
    assert back == log
    back.validate()
    with pytest.raises(InputError):
        growth.GrowthLog(genus=3, model="?", events=[]).validate()
    mangled = log.events[0] | {"k": 1}
    with pytest.raises(InputError):
        growth.GrowthLog(log.genus, log.model, [mangled] + log.events[1:]).validate()


def test_validate_rejects_genus_one():
    with pytest.raises(InputError, match="genus must be >= 2, got 1"):
        growth.GrowthLog(genus=1, model="?", events=[]).validate()


def test_validate_checks_each_event():
    log = growth.simulate(hypmodel.regular_model(3))
    prefix = growth.GrowthLog(log.genus, log.model, log.events[:2])
    with pytest.raises(InputError, match="M = 2 outside"):
        prefix.validate()
    # one field changed in a full log keeps the termination arithmetic
    misnumbered = log.events[1] | {"m": 3}
    with pytest.raises(InputError, match="event 2 misnumbered as 3"):
        growth.GrowthLog(
            log.genus, log.model, [log.events[0], misnumbered, *log.events[2:]]
        ).validate()
    # vertex 2 froze in event 1; event 2 reaches frozen vertex 1 from it
    refreezing = log.events[1] | {"i": 2}
    with pytest.raises(InputError, match="event 2 refreezes vertex 2"):
        growth.GrowthLog(
            log.genus, log.model, [log.events[0], refreezing, *log.events[2:]]
        ).validate()


@pytest.mark.parametrize(
    "changes, message",
    [
        # event 1 is bone 1-2; event 2 reaches frozen 1 from 8; 7 events, n = 8
        ({0: {"k": 3}, 6: {"k": 0}}, "final consumed count 8 invalid"),
        ({1: {"j_before": 5}}, "event 2 has j_before 5 != 2"),
        ({1: {"r": 0.5}}, "event 2 radius decreases"),
        ({0: {"kind": "self"}}, "self event 1 malformed"),
        ({0: {"j": None}}, "pair event 1 malformed"),
        ({0: {"other_frozen": True}}, "pair event 1 malformed"),
        ({1: {"other_frozen": False}}, "pair event 2 malformed"),
        ({0: {"kind": "bone"}}, "unknown event kind 'bone'"),
    ],
    ids=["final count", "j_before", "radius", "self", "pair without j",
         "frozen pair of two", "active pair of one", "kind"],
)
def test_validate_rejects_a_changed_event(changes, message):
    log = growth.simulate(hypmodel.regular_model(3))
    events = [ev | changes.get(idx, {}) for idx, ev in enumerate(log.events)]
    with pytest.raises(InputError) as info:
        growth.GrowthLog(log.genus, log.model, events).validate()
    assert str(info.value) == message


def test_validate_allows_a_decrease_inside_the_tie_window():
    def log(r2):
        rows = [("pair", 1, 2, 1000.0000005, 2), ("self", 3, None, r2, 1),
                ("pair", 4, 5, 1001.0, 2), ("self", 6, None, 1002.0, 1)]
        events, j = [], 0
        for m, (kind, i, w, r, k) in enumerate(rows, start=1):
            events.append({"m": m, "kind": kind, "i": i, "j": w, "other_frozen": False,
                           "r": r, "k": k, "j_before": j})
            j += k
        return growth.GrowthLog(2, "synthetic", events)

    log(1000.0).validate()              # 5e-7 lower, inside the window of 1e-6
    with pytest.raises(InputError) as info:
        log(999.999999).validate()      # 1.5e-6 lower
    assert str(info.value) == "event 2 radius decreases"


def test_missing_arc_descriptor():
    data = forced_selftouch_data()
    data["arcs"] = data["arcs"][:1]
    m = hypmodel.SyntheticModel(data)
    log = growth.simulate(m)
    with pytest.raises(EmbeddingError):
        growth.arc_graph(log, m)


def test_every_event_has_bound():
    for g in (2, 4, 8):
        log = growth.simulate(hypmodel.regular_model(g))
        for ev in log.events:
            assert ev["r"] <= bounds.radius_bound(g, ev["j_before"]) + 1e-9


def test_partial_log_single_self_touch():
    m = forced_selftouch_model()
    partial = growth.GrowthLog(
        genus=2,
        model=m.name,
        events=[
            {"m": 1, "kind": "self", "i": 1, "j": None, "other_frozen": False,
             "r": 0.3, "k": 1, "j_before": 0}
        ],
    )
    graph = growth.arc_graph(partial, m)
    kinds = classify_components(graph)
    assert kinds.count(ComponentKind.LOOP) == 1
    assert kinds.count(ComponentKind.ISOLATED_VERTEX) == 5


# -- arc graphs against the former polygon-cycle construction -----------


def boundary_cycle_arc_graph(model, log):
    """Reference: the former regular-model construction, which erased the
    unrealized sides of the polygon boundary cycle and relabelled the
    rest by event index."""
    n = model.n_points
    master = polygon_cycle(n)
    side_event = {}
    for ev in log.events:
        emb = model.realize_arc(ev)
        side = emb.i if emb.j - emb.i == 1 else n
        assert side not in side_event
        side_event[side] = ev["m"]
    sub = master.without_arcs(set(master.arcs) - set(side_event))
    arcs = {
        side_event[a.id]: (a.kind, a.darts) for a in sub.arcs.values()
    }
    return SphereMap(
        sub.rotations, arcs, regions=[dict(r) for r in sub.regions]
    )


def region_contents(smap):
    """Every region as its isolated vertices and the arcs along its
    faces, free of dart numbering."""
    arc_of = {d: a.id for a in smap.arcs.values() for d in a.darts}
    return sorted(
        (
            tuple(r["isolated"]),
            tuple(sorted({arc_of[d] for k in r["faces"] for d in smap.faces[k]})),
        )
        for r in smap.regions
    )


@pytest.mark.parametrize("g", range(2, 41))
def test_regular_arc_graph_matches_boundary_cycle(g):
    m = hypmodel.regular_model(g)
    log = growth.simulate(m)
    new, old = growth.arc_graph(log, m), boundary_cycle_arc_graph(m, log)
    assert {a.id: {a.u, a.v} for a in new.arcs.values()} == {
        a.id: {a.u, a.v} for a in old.arcs.values()
    }
    assert all(a.kind == "edge" for a in new.arcs.values())
    assert classify_components(new) == classify_components(old)
    assert euler_summary(new) == euler_summary(old)
    assert region_contents(new) == region_contents(old)
    new_result, old_result = prune.prune(new), prune.prune(old)
    assert new_result == old_result
    assert prune.verify(new_result, new) == prune.verify(old_result, old)


def attach_path_data():
    """Two quick bones, then a fresh vertex attached to each."""
    n = 6
    dist = [[0.0 if a == b else 2.0 for b in range(n)] for a in range(n)]
    dist[0][1] = dist[1][0] = 0.4
    dist[3][4] = dist[4][3] = 0.4
    dist[1][2] = dist[2][1] = 0.6
    dist[4][5] = dist[5][4] = 0.6
    return {
        "genus": 2,
        "distances": dist,
        "loop_radii": [10.0] * n,
        "arcs": [
            {"kind": "edge", "i": 1, "j": 2},
            {"kind": "edge", "i": 4, "j": 5},
            {"kind": "edge", "i": 2, "j": 3},
            {"kind": "edge", "i": 6, "j": 5, "at": 1},
        ],
    }


def attach_path_model():
    return hypmodel.SyntheticModel(attach_path_data())


@pytest.mark.parametrize(
    "make", [forced_selftouch_model, fig4_style_model, attach_path_model]
)
def test_synthetic_build_arc_graph_repeats(make):
    m = make()
    log = growth.simulate(m)
    before = copy.deepcopy(vars(m))
    first = growth.arc_graph(log, m)
    assert vars(m) == before        # a loaded model is read-only
    assert m.build_arc_graph(log).to_dict() == first.to_dict()
    assert len(first.arcs) == len(log.events)
    for ev in log.events:
        assert m.realize_arc(ev) == m.realize_arc(ev)


# -- placement lookup against the first-unused table scan ----------------


class FirstUnusedModel(hypmodel.SyntheticModel):
    """Reference: the former placement rule, which scanned the whole arc
    table for the first descriptor of the event's kind and endpoints not
    yet used in the current embedding."""

    def __init__(self, data):
        super().__init__(data)
        self.table = [
            self._arc_entry(idx, entry) for idx, entry in enumerate(data.get("arcs", []))
        ]

    def build_arc_graph(self, log):
        self.used = set()
        return super().build_arc_graph(log)

    def realize_arc(self, event):
        kind, i, j = event["kind"], event["i"], event["j"]
        want = "loop" if kind == "self" else "edge"
        for idx, emb in enumerate(self.table):
            if idx in self.used or emb.kind != want:
                continue
            if emb.i == i if want == "loop" else {emb.i, emb.j} == {i, j}:
                self.used.add(idx)
                return emb
        raise EmbeddingError(f"no unused arc descriptor for event {kind} ({i}, {j})")


def embedded(model, log):
    """The arc graph as a dict, or the raised error with the reference's
    word "unused" dropped from its message."""
    try:
        return growth.arc_graph(log, model).to_dict()
    except HyperbasisError as e:
        return (type(e).__name__, str(e).replace("no unused ", "no "))


def with_duplicates(data):
    """The table followed by a second, different descriptor per key."""
    again = [a | {"at": a.get("at", 0) + 1, "enclosed": []} for a in data["arcs"]]
    return data | {"arcs": data["arcs"] + again}


def truncated(data):
    return data | {"arcs": data["arcs"][:1]}


def growth_tables():
    for make in (forced_selftouch_data, fig4_style_data, attach_path_data):
        for change in (dict, with_duplicates, truncated):
            yield change(make())


def nested_tables():
    sys.path.insert(0, str(PERFBENCH))
    try:
        gen = importlib.import_module("gen")
    finally:
        sys.path.remove(str(PERFBENCH))
    rng = random.Random(5)
    for n in range(8, 65, 2):
        yield gen.nested_arrangement(rng, n)[1]


@pytest.mark.parametrize("tables", [growth_tables, nested_tables])
def test_placement_lookup_matches_first_unused_scan(tables):
    for data in tables():
        model, reference = hypmodel.SyntheticModel(data), FirstUnusedModel(data)
        log = growth.simulate(model)
        assert embedded(model, log) == embedded(reference, log)


# -- differential test against the per-round rescan ---------------------


def rescan_simulate(model):
    """Reference: the growth loop that asks the model again every round."""
    n = model.n_points
    active = set(range(1, n + 1))
    frozen_radius = {}
    events = []
    j = 0
    r_prev = 0.0
    while active:
        candidates = []
        for i in sorted(active):
            candidates.append(
                (
                    model.loop_radius(i),
                    1,
                    (i, i),
                    {"kind": "self", "i": i, "j": None, "other_frozen": False, "k": 1},
                )
            )
            for w in sorted(active):
                if w <= i:
                    continue
                candidates.append(
                    (
                        model.pair_distance(i, w) / 2.0,
                        0,
                        (i, w),
                        {"kind": "pair", "i": i, "j": w, "other_frozen": False, "k": 2},
                    )
                )
            for f, rf in sorted(frozen_radius.items()):
                candidates.append(
                    (
                        model.pair_distance(i, f) - rf,
                        0,
                        (min(i, f), max(i, f)),
                        {"kind": "pair", "i": i, "j": f, "other_frozen": True, "k": 1},
                    )
                )
        r_min = min(c[0] for c in candidates)
        tol = abs(r_min) * 1e-9 + 1e-18
        tied = [c for c in candidates if c[0] <= r_min + tol]
        tied.sort(key=lambda c: (c[1], c[2]))
        r, _, _, ev = tied[0]
        # a tie may take the larger radius first: a decrease counts only
        # past the tie window, 1e-9 relative, or 1e-9 below radius 1
        if r < r_prev - max(1e-9, abs(r_prev) * 1e-9):
            raise InvalidMetric(
                f"event radius {r} decreases below {r_prev} at step {len(events) + 1}"
            )
        if r <= 0:
            raise InvalidMetric(f"nonpositive event radius {r}")
        events.append(
            {
                "m": len(events) + 1,
                "kind": ev["kind"],
                "i": ev["i"],
                "j": ev["j"],
                "other_frozen": ev["other_frozen"],
                "r": r,
                "k": ev["k"],
                "j_before": j,
            }
        )
        newly = (ev["i"],) if ev["k"] == 1 else (ev["i"], ev["j"])
        for v in newly:
            active.remove(v)
            frozen_radius[v] = r
        j += ev["k"]
        r_prev = max(r_prev, r)
    log = growth.GrowthLog(genus=model.genus, model=model.name, events=events)
    log.validate()
    return log


class OracleModel:
    """Delegates to a model, counting or memoising its oracle calls."""

    def __init__(self, inner, memo=False):
        self.inner = inner
        self.genus = inner.genus
        self.name = inner.name
        self.n_points = inner.n_points
        self.memo = {} if memo else None
        self.calls = {"loop_radius": 0, "pair_distance": 0}

    def _ask(self, method, *args):
        self.calls[method] += 1
        if self.memo is None:
            return getattr(self.inner, method)(*args)
        key = (method,) + args
        if key not in self.memo:
            self.memo[key] = getattr(self.inner, method)(*args)
        return self.memo[key]

    def loop_radius(self, i):
        return self._ask("loop_radius", i)

    def pair_distance(self, i, j):
        return self._ask("pair_distance", i, j)


def outcome(run, model):
    """Event rows with radii as exact hex strings, or the raised error."""
    try:
        log = run(model)
    except (InvalidMetric, InputError) as e:
        return (type(e).__name__, str(e))
    return [ev | {"r": ev["r"].hex()} for ev in log.events]


def synthetic(distances, loop_radii, genus=2):
    return hypmodel.SyntheticModel(
        {"genus": genus, "distances": distances, "loop_radii": loop_radii}
    )


def table(n, default, pairs):
    dist = [[0.0 if a == b else default for b in range(n)] for a in range(n)]
    for (a, b), d in pairs.items():
        dist[a - 1][b - 1] = dist[b - 1][a - 1] = d
    return dist


TIE_MODELS = {
    # loop radius of 1 equals half of d(1, 2): the pair event wins
    "pair-before-self": synthetic(
        table(6, 4.0, {(1, 2): 1.0}), [0.5, 9.0, 9.0, 9.0, 9.0, 9.0]
    ),
    # every distance equal: each event ties every pair, active or frozen,
    # and the lexicographically first one wins
    "equal-pairs": synthetic(table(6, 2.0, {}), [9.0] * 6),
    # after (5, 6) freezes at 0.5, the frozen pair (3, 5) ties the active
    # pair (1, 2) at 1.0, and (1, 2) is lexicographically first; the frozen
    # pair (1, 5) then ties the active pair (3, 4) and wins
    "frozen-vs-active": synthetic(
        table(8, 6.0, {(5, 6): 1.0, (1, 2): 2.0, (3, 5): 1.5, (1, 5): 2.5, (3, 4): 3.0}),
        [9.0] * 8,
        genus=3,
    ),
    # a relative gap of 5e-10 is a tie: the larger radius of pair (1, 2)
    # is recorded, not the smaller one of pair (3, 4)
    "near-tie": synthetic(
        table(6, 4.0, {(1, 2): 2.0 * (1.0 + 5e-10), (3, 4): 2.0}), [9.0] * 6
    ),
    "self-touches": forced_selftouch_model(),
    # after bone 4-5 at 0.5 and vertex 6's loop at 0.9, bone 1-2 at
    # 1.05000000102 ties with vertex 3's loop at 1.05 and goes first; the
    # loop comes 1.02e-9 lower, inside the window, and is logged after it
    "decrease-inside-window": synthetic(
        table(6, 5000.0, {(4, 5): 1.0, (1, 2): 2.10000000204}),
        [5000.0, 5000.0, 1.05, 5000.0, 5000.0, 0.9],
    ),
}


@functools.cache
def rescan_regular(g):
    # memoising the reference's oracle changes no value, only its speed
    return outcome(rescan_simulate, OracleModel(hypmodel.regular_model(g), memo=True))


@pytest.mark.parametrize("g", range(2, 41))
def test_simulate_matches_rescan_regular(g):
    assert outcome(growth.simulate, hypmodel.regular_model(g)) == rescan_regular(g)


def regular_prediction(model):
    """Reference for the regular model in O(n): bone (1, 2) at d/2, then
    (n, 1), (3, 2), ..., (n - 1, n - 2), each at d - r_f with the other end
    frozen at r_f.  Every d is the model's own ``pair_distance`` on the
    sorted pair, and the arithmetic is ``simulate``'s."""
    n = model.n_points
    r = model.pair_distance(1, 2) / 2.0
    froze_at = {1: r, 2: r}
    events = [{"kind": "pair", "i": 1, "j": 2, "other_frozen": False, "k": 2,
               "m": 1, "r": r, "j_before": 0}]
    for m, (i, f) in enumerate([(n, 1)] + [(v, v - 1) for v in range(3, n)], start=2):
        r = model.pair_distance(min(i, f), max(i, f)) - froze_at[f]
        froze_at[i] = r
        events.append({"kind": "pair", "i": i, "j": f, "other_frozen": True, "k": 1,
                       "m": m, "r": r, "j_before": m})
    log = growth.GrowthLog(genus=model.genus, model=model.name, events=events)
    log.validate()
    return log


@pytest.mark.parametrize("g", range(2, 41))
def test_regular_prediction_matches_rescan(g):
    assert outcome(regular_prediction, hypmodel.regular_model(g)) == rescan_regular(g)


@pytest.mark.parametrize("g", [100, 200])
def test_simulate_matches_regular_prediction_at_scale(g):
    m = hypmodel.regular_model(g)
    assert outcome(growth.simulate, m) == outcome(regular_prediction, m)


@pytest.mark.parametrize("name", sorted(TIE_MODELS))
def test_simulate_matches_rescan_on_ties(name):
    m = TIE_MODELS[name]
    expected = outcome(rescan_simulate, m)
    assert isinstance(expected, list)
    assert outcome(growth.simulate, m) == expected


def test_tie_models_exercise_the_tie_rule():
    def pairs(name):
        return [
            (ev["i"], ev["j"], ev["other_frozen"])
            for ev in growth.simulate(TIE_MODELS[name]).events
        ]

    assert pairs("pair-before-self")[0] == (1, 2, False)
    assert pairs("equal-pairs") == [(1, 2, False)] + [(v, 1, True) for v in range(3, 7)]
    assert pairs("frozen-vs-active")[:3] == [(5, 6, False), (1, 2, False), (3, 5, True)]
    near = growth.simulate(TIE_MODELS["near-tie"]).events[0]
    assert (near["i"], near["j"], near["r"]) == (1, 2, 1.0 + 5e-10)
    bone, loop = growth.simulate(TIE_MODELS["decrease-inside-window"]).events[2:]
    assert (bone["i"], bone["j"], loop["i"], loop["j"]) == (1, 2, 3, None)
    assert loop["r"] < bone["r"] - 1e-9


def test_simulate_matches_rescan_past_the_tie_window():
    # bone 1-2 at 1000.0000005 ties with the pair 1-3 at 999.99999975 and
    # goes first; vertex 3 then meets frozen vertex 1 1.5e-6 lower, past
    # the window of 1e-6, and both loops raise the same error
    m = synthetic(table(6, 5000.0, {(1, 2): 2000.000001, (1, 3): 1999.9999995}), [5000.0] * 6)
    expected = (
        "InvalidMetric", "event radius 999.999999 decreases below 1000.0000005 at step 2"
    )
    assert outcome(rescan_simulate, m) == expected
    assert outcome(growth.simulate, m) == expected


def test_simulate_matches_rescan_on_quantised_tables():
    """Tables drawn from a few values, so ties and metric errors are common;
    then continuous tables up to genus 9, where candidates go stale without
    ties: distances between random points of the unit square (a metric) or
    drawn uniformly (not one)."""
    rng = random.Random(7)
    for _ in range(300):
        g = rng.choice((2, 3, 4))
        n = 2 * g + 2
        pairs = {
            (a, b): rng.choice((1.0, 1.5, 2.0, 3.0))
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
        }
        radii = [rng.choice((0.5, 0.75, 1.0, 5.0)) for _ in range(n)]
        m = synthetic(table(n, 1.0, pairs), radii, genus=g)
        assert outcome(growth.simulate, m) == outcome(rescan_simulate, m)
    rng = random.Random(8)
    for planar in [True, False] * 150:
        g = rng.randint(2, 9)
        n = 2 * g + 2
        if planar:
            points = [(rng.random(), rng.random()) for _ in range(n)]
            pairs = {
                (a, b): math.dist(points[a - 1], points[b - 1])
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
            }
        else:
            pairs = {
                (a, b): rng.uniform(0.2, 3.0)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
            }
        radii = [rng.uniform(0.05, 1.5) for _ in range(n)]
        m = synthetic(table(n, 1.0, pairs), radii, genus=g)
        assert outcome(growth.simulate, m) == outcome(rescan_simulate, m)


@pytest.mark.parametrize(
    "inner", [hypmodel.regular_model(7), TIE_MODELS["frozen-vs-active"]]
)
def test_simulate_reads_each_oracle_value_once(inner):
    m = OracleModel(inner)
    growth.simulate(m)
    n = inner.n_points
    assert m.calls == {"loop_radius": n, "pair_distance": n * (n - 1) // 2}


@pytest.mark.parametrize(
    "method, value, message",
    [
        ("loop_radius", math.nan, "loop radius of vertex 1 is nan"),
        ("pair_distance", math.inf, "distance between 1 and 2 is inf"),
    ],
)
def test_nonfinite_oracle_value_is_invalid_metric(method, value, message):
    m = OracleModel(hypmodel.regular_model(2))
    setattr(m, method, lambda *args: value)
    with pytest.raises(InvalidMetric, match=message):
        growth.simulate(m)
