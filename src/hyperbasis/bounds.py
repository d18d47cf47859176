"""Closed-form length bounds for the disk-growth loop construction.

Every function here is a pure evaluation in binary64 of one of the
inequalities governing the growth process on a cone sphere with 2g+2
cone points of angle pi: per-step radius bounds from the area argument,
the log-form loop-length bounds, the guaranteed-count bounds after
pruning, and the genus-independent constants N(lambda).  Logarithms are
natural throughout.  Out-of-domain arguments raise DomainError rather
than being clamped.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "radius_bound",
    "alpha_length_bound",
    "kappa",
    "theorem_bound",
    "n_lambda",
    "count_lambda",
    "bound_table",
]


def _check_genus(g: int) -> int:
    if not isinstance(g, int) or isinstance(g, bool) or g < 2:
        raise DomainError(f"genus must be an integer >= 2, got {g!r}")
    return g


def radius_bound(g: int, j: int) -> float:
    """Largest radius the growth process can reach with j disks consumed.

    From (2g+2-j) disks of common radius r packed into area 2*pi*(g-1):
    r <= arccosh(2(g-1)/(2g+2-j) + 1).
    """
    _check_genus(g)
    if not 0 <= j <= 2 * g + 1:
        raise DomainError(f"consumed count must lie in [0, 2g+1], got {j!r}")
    return math.acosh(2.0 * (g - 1) / (2 * g + 2 - j) + 1.0)


def alpha_length_bound(g: int, j: int) -> float:
    """Log-form upper bound 4*log(4(g-1)/(2g+2-j) + 2) for the loop produced
    at a step entered with j disks consumed (arccosh(x) <= log(2x))."""
    _check_genus(g)
    if not 0 <= j <= 2 * g + 1:
        raise DomainError(f"consumed count must lie in [0, 2g+1], got {j!r}")
    return 4.0 * math.log(4.0 * (g - 1) / (2 * g + 2 - j) + 2.0)


def kappa(g: int) -> int:
    """Guaranteed number ceil((2g+2)/3) of independent loops after pruning."""
    _check_genus(g)
    return -((2 * g + 2) // -3)


def theorem_bound(g: int, k: int) -> float:
    """Length bound 4*log(12(g-1)/(2g+5-3k) + 2) for the k-th kept loop."""
    _check_genus(g)
    if not 1 <= k <= kappa(g):
        raise DomainError(f"index must lie in [1, kappa(g)={kappa(g)}], got {k!r}")
    return 4.0 * math.log(12.0 * (g - 1) / (2 * g + 5 - 3 * k) + 2.0)


def _check_ratio(lam: float) -> float:
    if not 0.0 < lam < 1.0:
        raise DomainError(f"ratio must lie in (0, 1), got {lam!r}")
    return lam


def n_lambda(lam: float) -> float:
    """Genus-free bound N(lambda) = 4*log(6/(1-lambda) + 2)."""
    _check_ratio(lam)
    return 4.0 * math.log(6.0 / (1.0 - lam) + 2.0)


def count_lambda(g: int, lam: float) -> int:
    """Number ceil(lambda * (2/3) * g) of loops guaranteed below N(lambda)."""
    _check_genus(g)
    _check_ratio(lam)
    return math.ceil(lam * 2.0 * g / 3.0)


def bound_table(g: int) -> list[dict]:
    """The report's bound rows {k, j, radius_bound, alpha_bound,
    theorem_bound} for k = 1..kappa(g).

    Row k carries the worst admissible consumed count j = 2g+1-kappa(g)+k
    (the chain j_{m_k} <= j_M - (kappa-k) with j_M <= 2g+1), so that
    alpha_bound is defined for every row and dominated by theorem_bound.
    """
    kap = kappa(g)
    rows = []
    for k in range(1, kap + 1):
        j = 2 * g + 1 - kap + k
        rows.append(
            {
                "k": k,
                "j": j,
                "radius_bound": radius_bound(g, j),
                "alpha_bound": alpha_length_bound(g, j),
                "theorem_bound": theorem_bound(g, k),
            }
        )
    return rows
