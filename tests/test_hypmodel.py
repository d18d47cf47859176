import math

import pytest

from hyperbasis import growth, hypmodel
from hyperbasis.errors import EmbeddingError, InputError

# -- hyperboloid reference geometry -------------------------------------
# Points of the hyperbolic plane as (x, y, t) with the Minkowski form
# <a, b> = a_x b_x + a_y b_y - a_t b_t; the package itself needs only the
# closed forms these check.


def _mdot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]


def _mcross(a, b):
    """Vector Minkowski-orthogonal to both arguments."""
    c = (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
    return (c[0], c[1], -c[2])


def _dist(a, b) -> float:
    return math.acosh(max(1.0, -_mdot(a, b)))


def _point_segment_distance(p, u, v) -> float:
    """Distance from a hyperboloid point to the closed geodesic segment."""
    n = _mcross(u, v)
    nn = _mdot(n, n)
    if nn <= 0:
        raise InputError("degenerate geodesic segment")
    t = _mdot(p, n) / nn
    f = (p[0] - t * n[0], p[1] - t * n[1], p[2] - t * n[2])
    ff = _mdot(f, f)
    if ff < 0:
        f = tuple(x / math.sqrt(-ff) for x in f)
        # foot = a*u + b*v; inside the segment iff both weights nonnegative
        c = _mdot(u, v)
        fu, fv = _mdot(f, u), _mdot(f, v)
        det = 1.0 - c * c
        a = -(fu + c * fv) / det
        b = -(c * fu + fv) / det
        if a >= -1e-12 and b >= -1e-12:
            return _dist(p, f)
    return min(_dist(p, u), _dist(p, v))


def polygon_vertices(m):
    """Polygon vertex k (cone point k + 1) at angle 2*pi*k/N on the
    circle of radius ``m.circumradius`` about (0, 0, 1)."""
    n = m.n_points
    sr, cr = math.sinh(m.circumradius), math.cosh(m.circumradius)
    return [
        (
            sr * math.cos(2.0 * math.pi * k / n),
            sr * math.sin(2.0 * math.pi * k / n),
            cr,
        )
        for k in range(n)
    ]


def reflect(x, u, v):
    """Reflect a hyperboloid point across the geodesic through u, v."""
    n = _mcross(u, v)
    scale = _mdot(n, n)
    t = 2.0 * _mdot(x, n) / scale
    return (x[0] - t * n[0], x[1] - t * n[1], x[2] - t * n[2])


class TwoSideScanModel(hypmodel.RegularDoubledPolygonModel):
    """The regular model with each loop radius measured on the
    hyperboloid: the distance to the two sides next to the incident
    ones, sides ``i`` and ``i - 3`` (mod N), where side k joins polygon
    vertices k and k + 1."""

    def loop_radius(self, i: int) -> float:
        self._check_vertex(i)
        n = self.n_points
        vertices = polygon_vertices(self)
        p = vertices[i - 1]
        return min(
            _point_segment_distance(p, vertices[k % n], vertices[(k + 1) % n])
            for k in (i, i + n - 3)
        )


def vertex_angle(m):
    """Interior polygon angle at a vertex, from the law of cosines in
    the triangle of two adjacent sides."""
    a = m.pair_distance(1, 2)
    c = m.pair_distance(1, 3)
    cosg = (math.cosh(a) ** 2 - math.cosh(c)) / math.sinh(a) ** 2
    return math.acos(cosg)


def test_regular_model_g2_constants():
    m = hypmodel.regular_model(2)
    assert m.n_points == 6
    assert m.circumradius == pytest.approx(math.acosh(math.sqrt(3.0)), abs=1e-12)
    assert m.circumradius == pytest.approx(1.1462158347805889, abs=1e-9)
    assert m.side == pytest.approx(math.acosh(2.0), abs=1e-12)
    assert math.cosh(m.side) == pytest.approx(2.0, abs=1e-12)


def test_regular_model_g3_circumradius():
    m = hypmodel.regular_model(3)
    assert math.cosh(m.circumradius) == pytest.approx(1.0 / math.tan(math.pi / 8), abs=1e-12)
    assert math.cosh(m.circumradius) == pytest.approx(2.4142136, abs=1e-6)


@pytest.mark.parametrize("g", [2, 3, 4, 7, 12])
def test_right_angles(g):
    m = hypmodel.regular_model(g)
    assert vertex_angle(m) == pytest.approx(math.pi / 2.0, abs=1e-9)


@pytest.mark.parametrize("g", [2, 3, 5])
def test_pair_distance_symmetric_increasing(g):
    m = hypmodel.regular_model(g)
    n = m.n_points
    for i in range(1, n + 1):
        assert m.pair_distance(i, i) == 0.0
        for j in range(i + 1, n + 1):
            assert m.pair_distance(i, j) == m.pair_distance(j, i) > 0
    steps = [m.pair_distance(1, 1 + k) for k in range(1, n // 2 + 1)]
    assert steps[0] == pytest.approx(m.side, abs=1e-12)
    assert all(a < b for a, b in zip(steps, steps[1:]))


@pytest.mark.parametrize("g", [2, 3])
def test_triangle_inequality_sampled(g):
    m = hypmodel.regular_model(g)
    n = m.n_points
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                assert m.pair_distance(i, j) <= (
                    m.pair_distance(i, k) + m.pair_distance(k, j) + 1e-12
                )


@pytest.mark.parametrize("g", range(2, 8))
def test_distances_against_unfolding_oracle(g):
    """Reflecting across the polygon sides unfolds paths on the double;
    no reflected image may beat the in-polygon segment."""
    m = hypmodel.regular_model(g)
    n = m.n_points
    vertices = polygon_vertices(m)
    sides = [(vertices[k], vertices[(k + 1) % n]) for k in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            target = vertices[j - 1]
            images = [target]
            images += [reflect(target, u, v) for u, v in sides]
            images += [
                reflect(im, u, v) for u, v in sides for im in images[1 : n + 1]
            ]
            brute = min(_dist(vertices[i - 1], im) for im in images)
            assert brute == pytest.approx(m.pair_distance(i, j), abs=1e-9)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_loop_radius_reflection_oracle(g):
    """Shortest loop crosses one side: length twice the distance to the
    side, bounded by half the distance to the reflected image."""
    m = hypmodel.regular_model(g)
    n = m.n_points
    vertices = polygon_vertices(m)
    for i in range(1, n + 1):
        p = vertices[i - 1]
        best = math.inf
        for k in range(n):
            if (i - 1) in (k, (k + 1) % n):
                continue
            u, v = vertices[k], vertices[(k + 1) % n]
            best = min(best, _dist(p, reflect(p, u, v)) / 2.0)
        assert m.loop_radius(i) == pytest.approx(best, abs=1e-9)
        assert m.loop_radius(i) > 0


def full_scan_loop_radius(m, i):
    """Distance from vertex i to every non-incident side, minimised."""
    n = m.n_points
    vertices = polygon_vertices(m)
    p = vertices[i - 1]
    best = math.inf
    for k in range(n):
        u, w = k, (k + 1) % n
        if (i - 1) in (u, w):
            continue
        best = min(best, _point_segment_distance(p, vertices[u], vertices[w]))
    return best


def test_loop_radius_matches_full_side_scan():
    """``loop_radius`` is the side length; the scan over every
    non-incident side on the hyperboloid agrees to rounding."""
    for g in range(2, 61):
        m = hypmodel.regular_model(g)
        for i in range(1, m.n_points + 1):
            assert m.loop_radius(i) == m.side
            assert full_scan_loop_radius(m, i) == pytest.approx(m.side, rel=1e-10)


def test_loop_radius_g2_equals_side():
    m = hypmodel.regular_model(2)
    for i in range(1, 7):
        assert m.loop_radius(i) == m.side
    # pair touches happen strictly before self touches on this model
    assert m.pair_distance(1, 2) / 2 < m.loop_radius(1)


def closed_form_distance(m, i, j):
    """The regular chord between vertices i and j, evaluated afresh from
    the circumradius."""
    if i == j:
        return 0.0
    n = m.n_points
    k = abs(i - j) % n
    cr, sr = math.cosh(m.circumradius), math.sinh(m.circumradius)
    return math.acosh(cr * cr - sr * sr * math.cos(2.0 * math.pi * k / n))


@pytest.mark.parametrize("g", [*range(2, 61), 200])
def test_pair_distance_is_the_closed_form_to_the_bit(g):
    # d(1, n) and d(1, 2) are the same chord, but the reports keep the bits
    # of each: the table is indexed by |i - j|, not by the shorter way round
    m = hypmodel.regular_model(g)
    vertices = range(1, m.n_points + 1)
    assert [m.pair_distance(i, j).hex() for i in vertices for j in vertices] == [
        closed_form_distance(m, i, j).hex() for i in vertices for j in vertices
    ]


def test_pair_distance_checks_both_vertices():
    m = hypmodel.regular_model(3)
    n = m.n_points
    for i, j, bad in [(0, 1, 0), (1, 0, 0), (n + 1, 1, n + 1), (1, n + 1, n + 1),
                      (-1, 2, -1), (n, n + 1, n + 1), (0, n + 1, 0)]:
        with pytest.raises(InputError, match=rf"^vertex {bad} out of range 1\.\.{n}$"):
            m.pair_distance(i, j)


def test_loop_radius_checks_the_vertex():
    m = hypmodel.regular_model(3)
    for i in (0, m.n_points + 1):
        with pytest.raises(InputError):
            m.loop_radius(i)


@pytest.mark.parametrize("g", [*range(2, 41), 60])
def test_growth_matches_two_side_scan(g):
    """The loop radius never decides an event, so growth on the
    hyperboloid-measured model yields the same events bit for bit."""
    assert (
        growth.simulate(TwoSideScanModel(g)).events
        == growth.simulate(hypmodel.regular_model(g)).events
    )


def test_realize_arc_rejects_chords_and_loops():
    m = hypmodel.regular_model(2)

    ev = {"kind": "pair", "i": 1, "j": 3}
    with pytest.raises(EmbeddingError):
        m.realize_arc(ev)
    with pytest.raises(EmbeddingError):
        m.realize_arc(ev | {"kind": "self"})


def synthetic_data():
    n = 6
    dist = [[0.0 if a == b else 2.0 for b in range(n)] for a in range(n)]
    return {
        "genus": 2,
        "distances": dist,
        "loop_radii": [0.3, 1.0, 1.0, 1.0, 1.0, 1.0],
        "arcs": [],
    }


def test_synthetic_passthrough():
    m = hypmodel.SyntheticModel(synthetic_data())
    assert m.loop_radius(1) == 0.3
    assert m.pair_distance(2, 5) == 2.0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(genus=1),
        lambda d: d["distances"][0].__setitem__(1, -2.0),
        lambda d: d["distances"][0].__setitem__(1, 3.0),       # asymmetry
        lambda d: d["distances"][0].__setitem__(0, 0.5),       # diagonal
        lambda d: d.update(loop_radii=[1.0] * 5),
        lambda d: d.update(loop_radii=[1.0] * 5 + [-1.0]),
        lambda d: d.update(arcs=[{"kind": "chord", "i": 1, "j": 2}]),
    ],
)
def test_synthetic_validation(mutate):
    data = synthetic_data()
    mutate(data)
    with pytest.raises(InputError):
        hypmodel.SyntheticModel(data)


def test_load_synthetic_file(tmp_path):
    import json

    path = tmp_path / "model.json"
    path.write_text(json.dumps(synthetic_data()))
    m = hypmodel.load_synthetic(str(path))
    assert m.genus == 2
    with pytest.raises(InputError):
        hypmodel.load_synthetic(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InputError):
        hypmodel.load_synthetic(str(bad))
