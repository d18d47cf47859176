import inspect
import math

import pytest
from hypothesis import given, strategies as st

from hyperbasis import bounds, jacobian
from hyperbasis.errors import DomainError


def test_collar_width_fixed_point():
    l = 2 * math.asinh(1.0)
    assert jacobian.collar_width(l) == pytest.approx(math.asinh(1.0), abs=1e-12)


def test_collar_width_value_and_blowup():
    assert jacobian.collar_width(2.0) == pytest.approx(
        math.asinh(1.0 / math.sinh(1.0)), abs=1e-12
    )
    assert jacobian.collar_width(2.0) == pytest.approx(0.7719368329053048, abs=1e-9)
    assert jacobian.collar_width(1e-6) > 14.0  # diverges as the length shrinks
    with pytest.raises(DomainError):
        jacobian.collar_width(0.0)


@given(st.floats(min_value=1e-3, max_value=50.0))
def test_collar_width_decreasing(l):
    assert jacobian.collar_width(l) > jacobian.collar_width(l * 1.5)


def test_energy_bound_exact_trig():
    w = math.acosh(2.0)          # arcsin(1/2) = pi/6, denominator 2*pi/3
    assert jacobian.energy_bound(1.0, w) == pytest.approx(3.0 / (2.0 * math.pi), abs=1e-12)


def test_energy_bound_asinh1_width():
    # cosh(arcsinh 1) = sqrt(2): denominator pi - pi/2, bound exactly 2/pi
    assert jacobian.energy_bound(1.0, math.asinh(1.0)) == pytest.approx(
        2.0 / math.pi, abs=1e-12
    )


def test_energy_bound_limit_large_width():
    assert jacobian.energy_bound(1.0, 40.0) == pytest.approx(1.0 / math.pi, rel=1e-9)


def test_energy_bound_domain():
    for l, w in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(DomainError):
            jacobian.energy_bound(l, w)


def test_energy_monotonicity():
    assert jacobian.energy_bound(2.0, 1.0) > jacobian.energy_bound(1.0, 1.0)
    assert jacobian.energy_bound(1.0, 0.5) > jacobian.energy_bound(1.0, 1.0)


def test_arcsin_arccos_identity():
    for i in range(1000):
        x = i / 1000.0
        assert math.pi - 2 * math.asin(x) == pytest.approx(2 * math.acos(x), abs=1e-12)


def test_d_lambda_value_and_direct_formula():
    d = jacobian.d_lambda(0.5)
    assert d == pytest.approx(517.2597247657123, rel=1e-9)
    n = bounds.n_lambda(0.5)
    w = jacobian.collar_width(n)
    direct = n / (math.pi - 2.0 * math.asin(1.0 / math.cosh(w)))
    assert d == pytest.approx(direct, rel=1e-6)


def test_d_lambda_grid_finite_positive_increasing():
    grid = [l / 100.0 for l in range(1, 100)]
    vals = [jacobian.d_lambda(l) for l in grid]
    assert all(math.isfinite(v) and v > 0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_d_lambda_has_no_genus_parameter():
    params = inspect.signature(jacobian.d_lambda).parameters
    assert list(params) == ["lam"]


def test_basis_energy_table():
    rows = jacobian.basis_energy_table(9, 0.5)
    assert len(rows) == 3
    cap = jacobian.d_lambda(0.5)
    for r in rows:
        assert bounds.theorem_bound(9, r["k"]) < bounds.n_lambda(0.5)
        assert r["energy_bound"] <= cap + 1e-9
        assert r["width"] > 0
        assert r["energy_bound"] > r["length_bound"] / math.pi
        assert r["energy_bound"] == pytest.approx(
            jacobian.energy_bound(
                r["length_bound"], jacobian.collar_width(r["length_bound"])
            ),
            rel=1e-12,
        )
    assert len(jacobian.basis_energy_table(2, 0.9)) == 2


def test_d_lambda_precision_exhaustion():
    # close to 1 the collar width underflows and the denominator dies;
    # that is reported, not silently turned into infinity
    with pytest.raises(DomainError):
        jacobian.d_lambda(1.0 - 1e-9)
