import contextlib
import copy
import importlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperbasis import cli, cover, families, prune
from hyperbasis.errors import ConstructionError
from mapfactory import bones, sibling_loops

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_json(capsys):
    code, out, _ = run(["bounds", "--genus", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["kappa"] == 2
    assert [r["theorem_bound"] for r in data["rows"]] == pytest.approx(
        [4 * math.log(4), 4 * math.log(6)], abs=1e-6
    )


def test_bounds_csv_and_lambda(capsys):
    code, out, _ = run(
        ["bounds", "--genus", "2", "--lambda", "0.5", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,j,radius_bound,alpha_bound,theorem_bound"
    assert len(lines[1].split(",")) == 5
    assert any(line.startswith("lambda,") for line in lines)
    # values rounded to 1e-7
    assert lines[1].split(",")[4] == f"{4 * math.log(4):.7f}"


def test_bounds_bad_genus(capsys):
    code, _, _ = run(["bounds", "--genus", "1"], capsys)
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["bounds", "--nope"]) == 2


def test_simulate_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "log.json"
    code, _, _ = run(
        ["simulate", "--genus", "2", "--out", str(out_path)], capsys
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["events"]) == 5
    assert data["events"][0]["r"] == pytest.approx(math.acosh(2) / 2, abs=1e-7)


def test_pipeline_golden(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["pipeline", "--genus", "2", "--out", str(out1)], capsys)[0] == 0
    assert run(["pipeline", "--genus", "2", "--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["growth"]["M"] == 5
    assert report["prune"]["kept"] == [1, 3, 4, 5]
    assert report["verification"]["rank"] == 4
    assert report["verification"]["partial_basis"] is True
    assert report["verification"]["theorem_chain_ok"] is True


def test_pipeline_with_lambda(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(
        ["pipeline", "--genus", "3", "--lambda", "0.9", "--out", str(out)], capsys
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["jacobian"]) == 2    # ceil(0.9 * 2/3 * 3)


def test_parsed_values_do_not_leak_between_calls(tmp_path, capsys):
    """One parser serves every call in the process."""
    out = tmp_path / "r.json"
    code, _, _ = run(
        ["pipeline", "--genus", "3", "--lambda", "0.5", "--out", str(out)], capsys
    )
    assert code == 0
    assert "jacobian" in json.loads(out.read_text())
    assert run(["pipeline", "--genus", "3", "--out", str(out)], capsys)[0] == 0
    assert "jacobian" not in json.loads(out.read_text())


def test_pipeline_bad_model_exits_3(tmp_path, capsys):
    bad = tmp_path / "badmap.json"
    bad.write_text(sibling_loops(8).to_json())
    code, _, _ = run(["prune", "--map", str(bad)], capsys)
    assert code == 3


def test_prune_map_file(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(families.block_family(4).to_json())
    out = tmp_path / "pruned.json"
    code, _, _ = run(["prune", "--map", str(path), "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["kept"]) == 4
    assert data["verification"]["rank"] == 4


def test_verify_exit_codes(tmp_path, capsys):
    three = tmp_path / "three.json"
    three.write_text(bones([(1, 2), (3, 4), (5, 6)], 6).to_json())
    code, out, err = run(["verify", "--map", str(three)], capsys)
    assert code == 1
    assert "separating" in err
    code, out, err = run(
        ["verify", "--map", str(three), "--subset", "1,2"], capsys
    )
    assert code == 0
    assert json.loads(out)["partial_basis"] is True


def test_verify_malformed_map(tmp_path, capsys):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"vertices": [')
    code, _, _ = run(["verify", "--map", str(bad)], capsys)
    assert code == 2
    code, _, _ = run(["verify", "--map", str(tmp_path / "missing.json")], capsys)
    assert code == 2


def test_synthetic_model_through_cli(tmp_path, capsys):
    n = 6
    dist = [[0.0 if a == b else 2.0 for b in range(n)] for a in range(n)]
    dist[1][2] = dist[2][1] = 0.4
    dist[4][5] = dist[5][4] = 0.4
    model = {
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
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "rep.json"
    code, _, _ = run(["pipeline", "--model", str(path), "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verification"]["partial_basis"] is True
    assert report["verification"]["arcs_kept"] == 2


def test_pipeline_nongeometric_model_exits_3(tmp_path, capsys):
    n = 8
    dist = [[0.0 if a == b else 4.0 for b in range(n)] for a in range(n)]
    model = {
        "genus": 3,
        "distances": dist,
        "loop_radii": [0.1 + 0.05 * i for i in range(n)],
        "arcs": [{"kind": "loop", "i": i, "enclosed": []} for i in range(1, n + 1)],
    }
    path = tmp_path / "badmodel.json"
    path.write_text(json.dumps(model))
    code, _, _ = run(["pipeline", "--model", str(path)], capsys)
    assert code == 3


def genus2_model(**changes):
    n = 6
    model = {
        "genus": 2,
        "distances": [[0.0 if a == b else 2.0 for b in range(n)] for a in range(n)],
        "loop_radii": [0.5] * n,
        "arcs": [{"kind": "loop", "i": i, "enclosed": []} for i in range(1, n + 1)],
    }
    model.update(changes)
    return model


def run_model(model, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))    # NaN and Infinity are JSON literals here
    return run(["pipeline", "--model", str(path)], capsys)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"loop_radii": [0.5, math.nan, 0.5, 0.5, 0.5, 0.5]}, "loop_radii must be finite, got nan"),
        ({"loop_radii": [0.5] * 5 + [math.inf]}, "loop_radii must be finite, got inf"),
        (
            {"distances": [[0.0 if a == b else -math.inf for b in range(6)] for a in range(6)]},
            "distances must be finite, got -inf",
        ),
        ({"loop_radii": [0.5] * 5 + ["x"]}, "loop_radii must hold numbers"),
        # numbers are never coerced: a string or a boolean is rejected
        (
            {"distances": [[0.0 if a == b else "2.0" for b in range(6)] for a in range(6)]},
            "distances must hold numbers, got '2.0'",
        ),
        ({"loop_radii": [0.5] * 5 + [True]}, "loop_radii must hold numbers, got True"),
        ({"loop_radii": [0.5] * 5 + ["5"]}, "loop_radii must hold numbers, got '5'"),
        ({"loop_radii": [0.5] * 5 + [10**400]}, "loop_radii must be finite, got 1000000"),
    ],
)
def test_nonfinite_model_values_exit_2(changes, message, tmp_path, capsys):
    code, _, err = run_model(genus2_model(**changes), tmp_path, capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    ['{"genus": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
    ids=["integer of 5000 digits", "arrays nested 100000 deep"],
)
def test_json_the_parser_refuses_exits_2(text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    for argv in (["pipeline", "--model", str(path)], ["prune", "--map", str(path)]):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "invalid input: bad" in err and "Traceback" not in err


def test_nonfinite_oracle_value_exits_2(monkeypatch, capsys):
    from hyperbasis import hypmodel

    monkeypatch.setattr(
        hypmodel.RegularDoubledPolygonModel, "loop_radius", lambda self, i: math.nan
    )
    code, _, err = run(["pipeline", "--genus", "2"], capsys)
    assert code == 2
    assert "loop radius of vertex 1 is nan" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"kind": "edge", "i": 2}, "arc entry 1: missing 'j'"),
        ({"kind": "loop", "enclosed": []}, "arc entry 1: missing 'i'"),
        ({"kind": "edge", "i": "2", "j": 3}, "arc entry 1: 'i' must be an integer, got '2'"),
        ({"kind": "edge", "i": 2, "j": 3.5}, "arc entry 1: 'j' must be an integer, got 3.5"),
        ({"kind": "edge", "i": 2, "j": 3, "at": None}, "arc entry 1: 'at' must be an integer"),
        ({"kind": "loop", "i": 2, "enclosed": [1, True]}, "arc entry 1: 'enclosed' must be an integer"),
        ({"kind": "loop", "i": 2, "enclosed": 1}, "arc entry 1: 'enclosed' must be a list"),
        ({"kind": "bone", "i": 2}, "arc entry 1: kind must be edge or loop"),
        (["edge", 2, 3], "arc entry 1 must be an object"),
    ],
)
def test_malformed_arc_entry_exits_2(entry, message, tmp_path, capsys):
    arcs = [{"kind": "loop", "i": 1, "enclosed": []}, entry]
    code, _, err = run_model(genus2_model(arcs=arcs), tmp_path, capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_arcs_not_a_list_exits_2(tmp_path, capsys):
    code, _, err = run_model(genus2_model(arcs={"kind": "loop"}), tmp_path, capsys)
    assert code == 2
    assert "arcs must be a list" in err


@pytest.mark.parametrize(
    "genus, message",
    [
        (2.7, "genus must be an integer, got 2.7"),
        ("2", "genus must be an integer, got '2'"),
        (2.0, "genus must be an integer, got 2.0"),
        (True, "genus must be an integer, got True"),
        (None, "genus must be an integer, got None"),
    ],
)
def test_non_integer_model_genus_exits_2(genus, message, tmp_path, capsys):
    code, _, err = run_model(genus2_model(genus=genus), tmp_path, capsys)
    assert code == 2
    assert message in err


def block4_with(mutate):
    data = families.block_family(4).to_dict()
    mutate(data)
    return data


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(regions=5), "regions must be a list, got 5"),
        (lambda d: d.update(regions=[5]), "regions[0] must be an object, got 5"),
        (lambda d: d["regions"][0].update(faces=5), "regions[0].faces must be a list, got 5"),
        (lambda d: d["regions"][1].update(isolated="7"), "regions[1].isolated must be a list, got '7'"),
        (lambda d: d["regions"][0].update(faces=[[0]]), "regions[0].faces must hold integers, got [0]"),
        (lambda d: d["regions"][0].update(isolated=[None]), "regions[0].isolated must hold integers, got None"),
        (lambda d: d["arcs"][2].update(kind="foo"), "arc 3: kind must be edge or loop, got 'foo'"),
        (lambda d: d["arcs"][0].update(kind=None), "arc 1: kind must be edge or loop, got None"),
        (lambda d: d["arcs"][1].update(darts=[2, 99]), "arc 2 uses unknown dart 99"),
        (lambda d: d["arcs"][1].update(darts=[2]), "arc 2: darts must list two darts"),
        (lambda d: d["vertices"][0].update(cone="false"), "vertices[0].cone must be a boolean, got 'false'"),
        (lambda d: d["vertices"][0].update(cone=1), "vertices[0].cone must be a boolean, got 1"),
        (lambda d: d["vertices"][2].update(id=1.7), "vertices[2].id must be an integer, got 1.7"),
        (lambda d: d["vertices"][2].update(id="3"), "vertices[2].id must be an integer, got '3'"),
        (lambda d: d["vertices"][1].update(rotation=[2.0]), "vertices[1].rotation must hold integers, got 2.0"),
        (lambda d: d["vertices"][1].update(rotation=7), "vertices[1].rotation must be a list, got 7"),
        (lambda d: d["arcs"][0].update(id=True), "arcs[0].id must be an integer, got True"),
        (lambda d: d["arcs"][0].update(darts=[0, "1"]), "arcs[0].darts must hold integers, got '1'"),
        (lambda d: d["vertices"].append(dict(d["vertices"][11])), "vertices[12] repeats vertex id 12"),
        (lambda d: d["arcs"].append(dict(d["arcs"][7])), "arcs[8] repeats arc id 8"),
        (lambda d: d.update(genus=5.0), "genus must be an integer, got 5.0"),
        (lambda d: d.update(genus="5"), "genus must be an integer, got '5'"),
    ],
)
def test_malformed_map_exits_2(mutate, message, tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(block4_with(mutate)))
    code, _, err = run(["prune", "--map", str(path)], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "subset, message",
    [
        ("a,b", "--subset entries must be arc ids, got 'a'"),
        ("1,,2", "--subset entries must be arc ids, got ''"),
        ("1,2x", "--subset entries must be arc ids, got '2x'"),
        ("", "--subset entries must be arc ids, got ''"),
    ],
)
def test_verify_bad_subset_exits_2(subset, message, tmp_path, capsys):
    path = tmp_path / "three.json"
    path.write_text(bones([(1, 2), (3, 4), (5, 6)], 6).to_json())
    code, out, err = run(["verify", "--map", str(path), "--subset", subset], capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_construction_error_exits_4(monkeypatch, tmp_path, capsys):
    def broken(*args):
        raise ConstructionError("lift table out of step")

    monkeypatch.setattr(cover, "build_cover", broken)
    path = tmp_path / "fam.json"
    path.write_text(families.block_family(4).to_json())
    code, out, err = run(["verify", "--map", str(path)], capsys)
    assert code == 4
    assert out == ""
    assert "Traceback" in err
    assert "ConstructionError: lift table out of step" in err


def test_unexpected_exception_exits_4(monkeypatch, tmp_path, capsys):
    def broken(smap):
        raise RuntimeError("prune fell over")

    monkeypatch.setattr(prune, "prune", broken)
    path = tmp_path / "fam.json"
    path.write_text(families.block_family(4).to_json())
    code, out, err = run(["prune", "--map", str(path)], capsys)
    assert code == 4
    assert out == ""
    assert "Traceback" in err
    assert "RuntimeError: prune fell over" in err


def test_genus_one_prune_exits_2_before_pruning(monkeypatch, tmp_path, capsys):
    path = tmp_path / "genus1.json"
    path.write_text(families.random_growth_map(random.Random(0), 4).to_json())
    code, _, _ = run(["verify", "--map", str(path)], capsys)
    assert code == 1                 # a genus-1 map is still verifiable
    calls = []
    monkeypatch.setattr(prune, "prune", calls.append)
    code, out, err = run(["prune", "--map", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: genus must be an integer >= 2, got 1\n"
    assert calls == []


@pytest.mark.parametrize("command", ["prune", "verify"])
def test_map_file_not_utf8_exits_2(command, tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_bytes(b"\xff\xfe" + families.block_family(4).to_json().encode("utf-16-le"))
    code, out, err = run([command, "--map", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: map file is not UTF-8")


@pytest.mark.parametrize("marked", [(2, 5), (1, 4)], ids=["bone ends", "loop bases"])
@pytest.mark.parametrize(
    "argv", [["prune"], ["verify"], ["verify", "--subset", "2,4"]], ids=" ".join
)
def test_non_cone_vertex_exits_2(marked, argv, tmp_path, capsys):
    data = families.block_family(4).to_dict()
    del data["genus"]
    for v in data["vertices"]:
        if v["id"] in marked:
            v["cone"] = False
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    code, out, err = run([argv[0], "--map", str(path), *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    assert err == f"invalid input: vertex {marked[0]} is not a cone point (\"cone\": false)\n"


@pytest.fixture
def parity_flipped(monkeypatch):
    """The parity test answers the opposite of what it finds."""
    real_map, real_region = cli.sphere.is_nonseparating, prune.region_admits_odd_curve
    monkeypatch.setattr(cli.sphere, "is_nonseparating", lambda m, s: not real_map(m, s))
    monkeypatch.setattr(prune, "region_admits_odd_curve", lambda t, n: not real_region(t, n))


@pytest.mark.parametrize(
    "subset, verdicts",
    [
        ("1,2", "parity separating, cover nonseparating"),
        ("1,2,3", "parity nonseparating, cover separating"),
    ],
)
def test_verify_oracles_disagreeing_exits_4(parity_flipped, subset, verdicts, tmp_path, capsys):
    path = tmp_path / "three.json"
    path.write_text(bones([(1, 2), (3, 4), (5, 6)], 6).to_json())
    code, out, err = run(["verify", "--map", str(path), "--subset", subset], capsys)
    assert code == 4
    assert out == ""
    assert f"ConstructionError: oracles disagree on arcs [{subset.replace(',', ', ')}]: {verdicts}" in err


def test_prune_oracles_disagreeing_exits_4(parity_flipped, tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(families.block_family(4).to_json())
    code, out, err = run(["prune", "--map", str(path)], capsys)
    assert code == 4
    assert out == ""
    assert "ConstructionError: oracles disagree on arcs [1, 3, 5, 7]: " \
        "parity separating, cover nonseparating" in err


# -- mutated inputs only ever exit with a documented input-side code -------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(0, 5)
    | st.just(math.nan)
    | st.sampled_from(["", "1", "false", "loop"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "kind", "i", "faces"]), inner, max_size=2),
    max_leaves=4,
)


def json_paths(doc, prefix=()):
    """Every (container path, key) of a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three entries replaced, deleted or repeated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        if not paths:
            break
        *head, key = draw(st.sampled_from(paths))
        parent = doc
        for k in head:
            parent = parent[k]
        action = draw(st.sampled_from(["replace", "delete", "repeat"]))
        if action == "delete":
            del parent[key]
        elif action == "repeat" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = draw(JSON_VALUES)
    return doc


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@pytest.fixture(scope="module")
def nested_model():
    sys.path.insert(0, str(PERFBENCH))
    try:
        gen = importlib.import_module("gen")
    finally:
        sys.path.remove(str(PERFBENCH))
    return gen.nested_arrangement(random.Random(3), 10)[1]


BLOCK3 = families.block_family(3).to_dict()


@settings(max_examples=200, deadline=None)
@given(doc=mutated(BLOCK3), command=st.sampled_from(["prune", "verify"]))
def test_mutated_map_exits_with_documented_code(doc, command, scratch):
    path = scratch / "map.json"
    path.write_text(json.dumps(doc))
    code, err = run_quiet([command, "--map", str(path)])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_model_exits_with_documented_code(data, nested_model, scratch):
    path = scratch / "model.json"
    path.write_text(json.dumps(data.draw(mutated(nested_model))))
    code, err = run_quiet(["pipeline", "--model", str(path)])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
