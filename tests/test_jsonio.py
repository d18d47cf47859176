"""The report writer gives the bytes of the stdlib's ``sort_keys`` output
of the rounded document, in both forms, and leaves no cyclic garbage."""

import gc
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from hyperbasis import jsonio
from hyperbasis.jsonio import round_floats


def reference_pretty(doc) -> str:
    return json.dumps(round_floats(doc), sort_keys=True, indent=2)


def reference_compact(doc) -> str:
    return json.dumps(round_floats(doc), sort_keys=True, separators=(",", ":"))


WRITERS = [(jsonio.dumps_pretty, reference_pretty), (jsonio.dumps, reference_compact)]

strings = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", " ", "日本", "\U0001f600"]),
)
# Ten-digit mantissas: most of them round at 9 significant digits.
ten_digit_floats = st.builds(
    lambda m, e: float(f"{m}e{e}"), st.integers(10**9, 10**10 - 1), st.integers(-330, 290)
)
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    ten_digit_floats,
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.0000000005, 0.1]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**1000), 10**1000),
    finite_floats,
    strings,
)
def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.dictionaries(strings, children, max_size=5),
    )


documents = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=500, deadline=None)
@given(documents)
def test_writer_matches_stdlib_sort_keys_output(doc):
    for write, reference in WRITERS:
        assert write(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(documents, st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_value_raises_the_reference_error(doc, bad):
    doc = {"a": doc, "b": [1, {"c": bad}]}
    with pytest.raises(ValueError) as reference_error:
        reference_compact(doc)
    for write, _ in WRITERS:
        with pytest.raises(ValueError) as error:
            write(doc)
        assert str(error.value) == str(reference_error.value) == f"non-finite value {bad!r} in report"


@pytest.mark.parametrize(
    "doc",
    [{}, [], (), {"a": []}, [{}], [[[]]], {"k": ()}, [True, 1, False], [2**70, -3]],
    ids=repr,
)
def test_empty_containers_and_int_lists(doc):
    for write, reference in WRITERS:
        assert write(doc) == reference(doc)


def test_unsupported_values_and_keys_raise_the_stdlib_type_error():
    for write, _ in WRITERS:
        with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
            write({"a": {1}})
        with pytest.raises(TypeError, match="^keys must be str, not int$"):
            write({1: 3})


@pytest.mark.parametrize("write", [jsonio.dumps_pretty, jsonio.dumps])
def test_one_call_leaves_nothing_for_the_cyclic_collector(write):
    report = {
        "kept": [1, 2, 3],
        "trace": [{"action": "drop-loop", "arc": 4, "r": 0.5, "freed": None}],
        "verification": {"partial_basis": True, "rank": 3, "rows": [[1.25, "x"]]},
    }
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        write(report)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
