import math

import pytest
from hypothesis import given, strategies as st

from hyperbasis import bounds, jacobian
from hyperbasis.errors import DomainError

# -- reference formulas: the area argument and the Bavard bound ----------
# No command evaluates these; the tests below check the package's bounds
# against them.


def half_disk_area(r: float) -> float:
    """Area of an embedded radius-r disk around a cone point of angle pi."""
    if r < 0:
        raise DomainError(f"radius must be nonnegative, got {r!r}")
    return math.pi * (math.cosh(r) - 1.0)


def sphere_area(g: int) -> float:
    """Total area 2*pi*(g-1) of the quotient cone sphere."""
    bounds._check_genus(g)
    return 2.0 * math.pi * (g - 1)


def bavard_bound(g: int) -> float:
    """Sharp genus-g upper bound for the homology systole of the double,
    4*arccosh(1/(2*sin(pi*(g+1)/(12*g))))."""
    bounds._check_genus(g)
    return 4.0 * math.acosh(1.0 / (2.0 * math.sin(math.pi * (g + 1) / (12.0 * g))))


def bavard_limit() -> float:
    """Genus-independent limit 2*log(3 + 2*sqrt(3) + 2*sqrt(5 + 3*sqrt(3)))
    of bavard_bound, about 5.1067."""
    s3 = math.sqrt(3.0)
    return 2.0 * math.log(3.0 + 2.0 * s3 + 2.0 * math.sqrt(5.0 + 3.0 * s3))


def test_half_disk_area_exact_points():
    assert half_disk_area(0.0) == 0.0
    assert half_disk_area(math.acosh(2.0)) == pytest.approx(math.pi, abs=1e-12)
    # pi*(cosh 1 - 1), evaluated independently
    assert half_disk_area(1.0) == pytest.approx(1.7061381326424508, abs=1e-12)


def test_half_disk_area_rejects_negative():
    with pytest.raises(DomainError):
        half_disk_area(-1e-9)


@pytest.mark.parametrize("g,expected", [(2, 2 * math.pi), (3, 4 * math.pi), (10, 18 * math.pi)])
def test_sphere_area(g, expected):
    assert sphere_area(g) == pytest.approx(expected, abs=1e-12)


def test_sphere_area_rejects_small_genus():
    for g in (1, 0, -3):
        with pytest.raises(DomainError):
            sphere_area(g)


def test_radius_bound_values():
    assert bounds.radius_bound(2, 0) == pytest.approx(math.acosh(4.0 / 3.0), abs=1e-12)
    assert bounds.radius_bound(2, 0) == pytest.approx(0.7953654612239056, abs=1e-9)
    assert bounds.radius_bound(2, 2) == pytest.approx(math.acosh(1.5), abs=1e-12)
    assert bounds.radius_bound(2, 2) == pytest.approx(0.9624236501192069, abs=1e-9)


def test_radius_bound_first_step_below_acosh2():
    for g in range(2, 65):
        assert bounds.radius_bound(g, 0) < math.acosh(2.0)


def test_radius_bound_matches_area_packing():
    # (2g+2-j) disks of the bound radius exactly fill the sphere area
    for g in (2, 5, 17):
        for j in (0, 1, g, 2 * g + 1):
            filled = (2 * g + 2 - j) * half_disk_area(bounds.radius_bound(g, j))
            assert filled == pytest.approx(sphere_area(g), rel=1e-12)


def test_radius_bound_domain():
    with pytest.raises(DomainError):
        bounds.radius_bound(2, 6)   # 2g+2 would divide by zero
    with pytest.raises(DomainError):
        bounds.radius_bound(2, -1)


def test_alpha_length_bound_values():
    assert bounds.alpha_length_bound(2, 0) == pytest.approx(4 * math.log(8.0 / 3.0), abs=1e-12)
    assert bounds.alpha_length_bound(2, 0) == pytest.approx(3.9233170120469048, abs=1e-9)


def test_alpha_bound_dominates_radius_form():
    # arccosh(x) <= log(2x) turns 4*radius_bound into alpha_length_bound
    for g in (2, 3, 8, 33):
        for j in range(0, 2 * g + 2):
            assert 4 * bounds.radius_bound(g, j) <= bounds.alpha_length_bound(g, j) + 1e-12


def test_alpha_bound_uniform_cap():
    for g in range(2, 65):
        for j in (0, g, 2 * g, 2 * g + 1):
            assert bounds.alpha_length_bound(g, j) <= 4 * math.log(4 * g) + 1e-12
        assert bounds.alpha_length_bound(g, 2 * g + 1) == pytest.approx(
            4 * math.log(4 * (g - 1) + 2), abs=1e-12
        )


@given(st.floats(min_value=1.0, max_value=1e8))
def test_arccosh_le_log2x(x):
    assert math.acosh(x) <= math.log(2 * x) + 1e-12


def test_bavard_limit_value():
    # closed form 2*log(3 + 2*sqrt(3) + 2*sqrt(5 + 3*sqrt(3)))
    assert bavard_limit() == pytest.approx(5.1067, abs=1e-4)
    assert bavard_limit() == pytest.approx(5.106747473521382, abs=1e-12)


def test_naive_first_step_constant():
    assert 4 * math.acosh(2.0) == pytest.approx(5.2678, abs=1e-4)


def test_bavard_bound_below_limit():
    assert bavard_bound(2) == pytest.approx(
        4 * math.acosh(1.0 / (2.0 * math.sin(math.pi / 8.0))), abs=1e-12
    )
    assert bavard_bound(2) == pytest.approx(3.0571418389619964, abs=1e-9)
    prev = 0.0
    for g in range(2, 40):
        val = bavard_bound(g)
        assert prev < val < bavard_limit()
        prev = val


@pytest.mark.parametrize("g,expected", [(2, 2), (4, 4), (10, 8)])
def test_kappa(g, expected):
    assert bounds.kappa(g) == expected


def test_theorem_bound_values():
    assert bounds.theorem_bound(2, 1) == pytest.approx(4 * math.log(4.0), abs=1e-12)
    assert bounds.theorem_bound(2, 1) == pytest.approx(5.545177444479562, abs=1e-9)
    assert bounds.theorem_bound(2, 2) == pytest.approx(4 * math.log(6.0), abs=1e-12)
    assert bounds.theorem_bound(2, 2) == pytest.approx(7.16703787691222, abs=1e-9)


def test_theorem_bound_domain():
    with pytest.raises(DomainError):
        bounds.theorem_bound(2, 0)
    with pytest.raises(DomainError):
        bounds.theorem_bound(2, 3)


def test_theorem_bound_dominates_chain_alpha():
    # worst consumed count for the k-th kept arc: j = 2g+1-kappa+k, since
    # the final count never exceeds 2g+1 and the kept counts increase
    for g in range(2, 65):
        kap = bounds.kappa(g)
        for k in range(1, kap + 1):
            j = 2 * g + 1 - kap + k
            assert bounds.alpha_length_bound(g, j) <= bounds.theorem_bound(g, k) + 1e-9


@given(st.integers(min_value=2, max_value=64))
def test_monotonicity_in_j_and_k(g):
    radii = [bounds.radius_bound(g, j) for j in range(0, 2 * g + 2)]
    alphas = [bounds.alpha_length_bound(g, j) for j in range(0, 2 * g + 2)]
    assert all(a < b for a, b in zip(radii, radii[1:]))
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    thms = [bounds.theorem_bound(g, k) for k in range(1, bounds.kappa(g) + 1)]
    assert all(a < b for a, b in zip(thms, thms[1:]))
    assert thms[-1] == max(thms)


def test_n_lambda_values():
    assert bounds.n_lambda(0.5) == pytest.approx(4 * math.log(14.0), abs=1e-12)
    assert bounds.n_lambda(0.5) == pytest.approx(10.556229318461034, abs=1e-9)
    # limit toward 0 is 4*log(8)
    assert bounds.n_lambda(1e-12) == pytest.approx(4 * math.log(8.0), abs=1e-9)
    assert 4 * math.log(8.0) == pytest.approx(8.317766166719343, abs=1e-9)


def test_n_lambda_increasing_and_domain():
    vals = [bounds.n_lambda(l / 20) for l in range(1, 20)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(DomainError):
            bounds.n_lambda(bad)


def test_count_lambda():
    assert bounds.count_lambda(9, 0.5) == 3
    assert bounds.count_lambda(2, 0.9) == 2


def test_lambda_count_stays_below_n_lambda():
    """The headline claim's arithmetic: the first count_lambda(g, lambda)
    per-index bounds lie below N(lambda), unclamped, and the count never
    exceeds kappa(g)."""
    lams = [i / 100 for i in range(1, 100)]
    for g in [*range(2, 121), 200, 399, 1000, 1600]:
        for lam in lams:
            count, cap = bounds.count_lambda(g, lam), bounds.n_lambda(lam)
            assert count <= bounds.kappa(g)
            for k in range(1, count + 1):
                assert bounds.theorem_bound(g, k) < cap


def test_bound_table_shape_and_invariants():
    for g in (2, 5, 12):
        rows = bounds.bound_table(g)
        kap = bounds.kappa(g)
        assert [r["k"] for r in rows] == list(range(1, kap + 1))
        for r in rows:
            assert r["alpha_bound"] <= 4 * math.log(4 * g) + 1e-12
            assert r["alpha_bound"] <= r["theorem_bound"] + 1e-9
        js = [r["j"] for r in rows]
        assert all(a < b for a, b in zip(js, js[1:]))
        lr = jacobian.lambda_row(g, 0.5)
        n = bounds.n_lambda(0.5)
        assert lr == {
            "lambda": 0.5,
            "count": bounds.count_lambda(g, 0.5),
            "N": n,
            "w": jacobian.collar_width(n),
            "D": jacobian.d_lambda(0.5),
        }
        assert lr["count"] == bounds.count_lambda(g, 0.5)
        assert lr["D"] > 0
