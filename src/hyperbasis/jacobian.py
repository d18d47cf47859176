"""Collar widths and harmonic-energy upper bounds for period lattice vectors.

The energy of the harmonic form dual to a simple closed geodesic of
length l, supported in a collar of half-width w, is at most
l / (pi - 2*arcsin(1/cosh w)).  Squared lattice-vector lengths in the
Jacobian equal such energies, so these formulas bound them.  The
denominator is evaluated through 2*arccos(1/cosh w), which is exact for
the same expression and stable as the argument approaches 1.
"""

from __future__ import annotations

import math

from . import bounds
from .errors import DomainError

__all__ = [
    "collar_width",
    "energy_bound",
    "d_lambda",
    "lambda_row",
    "basis_energy_table",
]

_MIN_DENOMINATOR = 1e-15


def collar_width(l: float) -> float:
    """Half-width arcsinh(1/sinh(l/2)) of the embedded collar around a
    simple closed geodesic of length l."""
    if l <= 0:
        raise DomainError(f"geodesic length must be positive, got {l!r}")
    return math.asinh(1.0 / math.sinh(l / 2.0))


def energy_bound(l: float, w: float) -> float:
    """Energy bound l / (pi - 2*arcsin(1/cosh w)) for the dual harmonic form.

    Raises DomainError once the denominator falls below 1e-15 (precision
    exhausted for w -> 0) instead of returning a garbage quotient.
    """
    if l <= 0:
        raise DomainError(f"geodesic length must be positive, got {l!r}")
    if w <= 0:
        raise DomainError(f"collar width must be positive, got {w!r}")
    denom = 2.0 * math.acos(1.0 / math.cosh(w))
    if denom < _MIN_DENOMINATOR:
        raise DomainError(
            f"energy denominator {denom!r} below precision floor for width {w!r}"
        )
    return l / denom


def d_lambda(lam: float) -> float:
    """Genus-independent energy bound D(lambda) at length N(lambda) and
    collar width w(lambda) = arcsinh(1/sinh(N(lambda)/2))."""
    n = bounds.n_lambda(lam)
    return energy_bound(n, collar_width(n))


def lambda_row(g: int, lam: float) -> dict:
    """The report's lambda row {lambda, count, N, w, D}: the number of
    loops guaranteed below N(lambda), N(lambda) itself, its collar width
    and D(lambda)."""
    count = bounds.count_lambda(g, lam)
    n = bounds.n_lambda(lam)
    return {
        "lambda": lam,
        "count": count,
        "N": n,
        "w": collar_width(n),
        "D": d_lambda(lam),
    }


def basis_energy_table(g: int, lam: float) -> list[dict]:
    """The report's energy rows {k, length_bound, width, energy_bound} for
    the ceil(lambda*(2/3)*g) lattice vectors.

    Row k uses the sharper per-index length bound, which stays below
    N(lambda) for every admissible k, so each energy stays below
    d_lambda(lam).
    """
    rows = []
    n_cap = bounds.n_lambda(lam)
    for k in range(1, bounds.count_lambda(g, lam) + 1):
        length = min(bounds.theorem_bound(g, k), n_cap)
        w = collar_width(length)
        rows.append(
            {
                "k": k,
                "length_bound": length,
                "width": w,
                "energy_bound": energy_bound(length, w),
            }
        )
    return rows
