"""Deterministic JSON emission: sorted keys, floats at 9 significant
digits; and the integer check of JSON input.

One writer makes both report forms.  It takes str keys only, as every
report key is one.  Its bytes are those of
``json.dumps(round_floats(obj), sort_keys=True)`` with ``indent=2`` or
with compact separators: the stdlib's separator and indent rules and
its string escapes.  It rounds floats as it goes, and leaves no
reference cycle behind (the stdlib's indenting encoder leaves one per
call)."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter

from .errors import InputError


def json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer (a bool is not), else InputError."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _round(x: float) -> float:
    """``x`` at 9 significant digits; a non-finite value is an error."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report")
    return float(f"{x:.9g}")


def round_floats(obj):
    """Recursively round floats to 9 significant digits."""
    if isinstance(obj, float):
        return _round(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(x) for x in obj]
    return obj


_first = itemgetter(0)


def _write(obj, out: list, nl: str, step: str, colon: str) -> None:
    """Append the JSON text of ``obj`` to ``out``.  ``nl`` is the newline
    and indent of the current depth and ``step`` one more level of it
    (both empty when compact); ``colon`` follows each key."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + step
        sep = "," + inner
        lead = "{" + inner
        for key, value in sorted(obj.items(), key=_first):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = lead + _string(key) + colon
            lead = sep
            kind = type(value)
            if kind is int:
                out.append(head + int.__repr__(value))
            elif kind is str:
                out.append(head + _string(value))
            elif kind is float:
                out.append(head + float.__repr__(_round(value)))
            elif kind is bool:
                out.append(head + ("true" if value else "false"))
            elif value is None:
                out.append(head + "null")
            else:
                out.append(head)
                _write(value, out, inner, step, colon)
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + step
        sep = "," + inner
        if all(type(x) is int for x in obj):
            out.append("[" + inner + sep.join(map(int.__repr__, obj)) + nl + "]")
            return
        lead = "[" + inner
        for x in obj:
            out.append(lead)
            lead = sep
            _write(x, out, inner, step, colon)
        out.append(nl + "]")
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(_round(obj)))
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dumps(obj) -> str:
    out: list = []
    _write(obj, out, "", "", ":")
    return "".join(out)


def dumps_pretty(obj) -> str:
    out: list = []
    _write(obj, out, "\n", "  ", ": ")
    return "".join(out)
