import dataclasses
import math

import pytest

from hyperbasis import bounds, growth, hypmodel, prune
from hyperbasis.errors import BoundViolation, EmbeddingError, InputError, InvalidMetric
from hyperbasis.spheremap import Arc, ComponentKind, SphereMap, classify_components
from mapfactory import euler_summary, polygon_cycle


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
        assert (ev.kind, ev.i, ev.j, ev.other_frozen, ev.k) == (kind, i, j, frozen, k)
        assert ev.r == pytest.approx(half_side, abs=1e-12)
        assert ev.r == pytest.approx(0.6584789, abs=1e-7)
    assert log.consumed_total() == 6
    assert log.j_final() == 5
    assert [ev.j_before for ev in log.events] == [0, 2, 3, 4, 5]


def test_first_radius_below_acosh2():
    for g in range(2, 13):
        log = growth.simulate(hypmodel.regular_model(g))
        assert log.events[0].r < math.acosh(2.0)


@pytest.mark.parametrize("g", range(2, 13))
def test_regular_soundness(g):
    log = growth.simulate(hypmodel.regular_model(g))
    assert g + 1 <= log.M <= 2 * g + 2
    assert log.consumed_total() == 2 * g + 2
    assert log.j_final() in (2 * g, 2 * g + 1)
    radii = [ev.r for ev in log.events]
    assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))
    report = growth.verify_radius_bounds(log)
    assert all(row["slack"] >= -1e-9 for row in report)


def test_determinism_byte_identical():
    from hyperbasis import jsonio

    m = hypmodel.regular_model(5)
    a = jsonio.dumps(growth.log_to_dict(growth.simulate(m)))
    b = jsonio.dumps(growth.log_to_dict(growth.simulate(hypmodel.regular_model(5))))
    assert a == b


def test_tampered_log_violates_bound():
    log = growth.simulate(hypmodel.regular_model(2))
    bad = growth.GrowthLog(
        genus=2,
        model="tampered",
        events=[growth.GrowthEvent(1, "pair", 1, 2, False, 10.0, 2, 0)]
        + [
            growth.GrowthEvent(ev.m, ev.kind, ev.i, ev.j, ev.other_frozen, 10.0, ev.k, ev.j_before)
            for ev in log.events[1:]
        ],
    )
    with pytest.raises(BoundViolation) as exc:
        growth.verify_radius_bounds(bad)
    assert exc.value.step == 1


def forced_selftouch_model():
    n = 6
    dist = [[0.0 if a == b else 2.0 for b in range(n)] for a in range(n)]
    return hypmodel.load_synthetic(
        {
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
    )


def test_synthetic_forced_self_touch():
    m = forced_selftouch_model()
    log = growth.simulate(m)
    first = log.events[0]
    assert (first.kind, first.i, first.k, first.r) == ("self", 1, 1, 0.3)
    assert log.M == 6 and log.consumed_total() == 6


def fig4_style_model():
    """Two quick bones, then loops around them: the block picture."""
    n = 6
    dist = [[0.0 if a == b else 2.0 for b in range(n)] for a in range(n)]
    dist[1][2] = dist[2][1] = 0.4
    dist[4][5] = dist[5][4] = 0.4
    return hypmodel.load_synthetic(
        {
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
    )


def test_fig4_style_synthetic_log():
    m = fig4_style_model()
    log = growth.simulate(m)
    assert [(ev.kind, ev.i) for ev in log.events] == [
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
    data = growth.log_to_dict(log)
    back = growth.GrowthLog(
        genus=data["genus"],
        model=data["model"],
        events=[growth.GrowthEvent(**ev) for ev in data["events"]],
    )
    assert back == log
    back.validate()
    with pytest.raises(InputError):
        growth.GrowthLog(genus=3, model="?", events=[]).validate()
    mangled = dataclasses.replace(log.events[0], k=1)
    with pytest.raises(InputError):
        growth.GrowthLog(log.genus, log.model, [mangled] + log.events[1:]).validate()


def test_missing_arc_descriptor():
    m = forced_selftouch_model()
    m.arc_table = m.arc_table[:1]
    log = growth.simulate(m)
    with pytest.raises(EmbeddingError):
        growth.arc_graph(log, m)


def test_every_event_has_bound():
    for g in (2, 4, 8):
        log = growth.simulate(hypmodel.regular_model(g))
        for ev in log.events:
            assert ev.r <= bounds.radius_bound(g, ev.j_before) + 1e-9


def test_partial_log_single_self_touch():
    m = forced_selftouch_model()
    partial = growth.GrowthLog(
        genus=2,
        model=m.name,
        events=[growth.GrowthEvent(1, "self", 1, None, False, 0.3, 1, 0)],
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
        side_event[side] = ev.m
    sub = master.without_arcs(set(master.arcs) - set(side_event))
    arcs = {
        side_event[a.id]: Arc(
            id=side_event[a.id], kind=a.kind, u=a.u, v=a.v, darts=a.darts
        )
        for a in sub.arcs.values()
    }
    return SphereMap(
        sub.rotations, arcs, regions=[dict(r) for r in sub.regions]
    )


def region_contents(smap):
    """Every region as its isolated vertices and the arcs along its
    faces, free of dart numbering."""
    arc_of = {d: a.id for a in smap.arcs.values() for d in a.darts}
    face_by_key = {f[0]: f for f in smap.faces}
    return sorted(
        (
            tuple(r["isolated"]),
            tuple(sorted({arc_of[d] for k in r["faces"] for d in face_by_key[k]})),
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


def attach_path_model():
    """Two quick bones, then a fresh vertex attached to each."""
    n = 6
    dist = [[0.0 if a == b else 2.0 for b in range(n)] for a in range(n)]
    dist[0][1] = dist[1][0] = 0.4
    dist[3][4] = dist[4][3] = 0.4
    dist[1][2] = dist[2][1] = 0.6
    dist[4][5] = dist[5][4] = 0.6
    return hypmodel.load_synthetic(
        {
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
    )


@pytest.mark.parametrize(
    "make", [forced_selftouch_model, fig4_style_model, attach_path_model]
)
def test_synthetic_build_arc_graph_repeats(make):
    m = make()
    log = growth.simulate(m)
    first = m.build_arc_graph(log)
    assert m.build_arc_graph(log).to_dict() == first.to_dict()
    assert len(first.arcs) == len(log.events)


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
        if r < r_prev - 1e-9:
            raise InvalidMetric(
                f"event radius {r} decreases below {r_prev} at step {len(events) + 1}"
            )
        if r <= 0:
            raise InvalidMetric(f"nonpositive event radius {r}")
        events.append(
            growth.GrowthEvent(
                m=len(events) + 1,
                kind=ev["kind"],
                i=ev["i"],
                j=ev["j"],
                other_frozen=ev["other_frozen"],
                r=r,
                k=ev["k"],
                j_before=j,
            )
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
    """Event fields with radii as exact hex strings, or the raised error."""
    try:
        log = run(model)
    except (InvalidMetric, InputError) as e:
        return (type(e).__name__, str(e))
    return [
        (ev.m, ev.kind, ev.i, ev.j, ev.other_frozen, ev.r.hex(), ev.k, ev.j_before)
        for ev in log.events
    ]


def synthetic(distances, loop_radii, genus=2):
    return hypmodel.load_synthetic(
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
}


@pytest.mark.parametrize("g", range(2, 41))
def test_simulate_matches_rescan_regular(g):
    m = hypmodel.regular_model(g)
    # memoising the reference's oracle changes no value, only its speed
    assert outcome(growth.simulate, m) == outcome(
        rescan_simulate, OracleModel(m, memo=True)
    )


@pytest.mark.parametrize("name", sorted(TIE_MODELS))
def test_simulate_matches_rescan_on_ties(name):
    m = TIE_MODELS[name]
    expected = outcome(rescan_simulate, m)
    assert isinstance(expected, list)
    assert outcome(growth.simulate, m) == expected


def test_tie_models_exercise_the_tie_rule():
    def pairs(name):
        return [(ev.i, ev.j, ev.other_frozen) for ev in growth.simulate(TIE_MODELS[name]).events]

    assert pairs("pair-before-self")[0] == (1, 2, False)
    assert pairs("equal-pairs") == [(1, 2, False)] + [(v, 1, True) for v in range(3, 7)]
    assert pairs("frozen-vs-active")[:3] == [(5, 6, False), (1, 2, False), (3, 5, True)]
    near = growth.simulate(TIE_MODELS["near-tie"]).events[0]
    assert (near.i, near.j, near.r) == (1, 2, 1.0 + 5e-10)


def test_simulate_matches_rescan_on_quantised_tables():
    """Tables drawn from a few values, so ties and metric errors are common."""
    import random

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
