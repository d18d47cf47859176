"""Deterministic JSON emission: sorted keys, floats at 9 significant
digits; and the integer check of JSON input."""

from __future__ import annotations

import json
import math

from .errors import InputError


def json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer (a bool is not), else InputError."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def round_floats(obj):
    """Recursively round floats to 9 significant digits."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj!r} in report")
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(x) for x in obj]
    return obj


def dumps(obj) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, separators=(",", ":"))


def dumps_pretty(obj) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, indent=2)
