"""``prune --map`` derives each structure of a map once.

One run builds one sphere map (the input, which ``prune.verify`` also
checks the kept arcs on) and one master complex for the cover oracle,
which copies the map's rotation tables, so it runs one component pass
and one rotation-system construction, and the rank reduces every
face-boundary row and every kept cycle once.
Preliminary steps that drop loops and leaves read the input too, so a
map with looped and branched trees costs no more passes.  The passes are
counted, not timed, so a reintroduced pass fails on any host."""

import json
import random
import sys
from collections import Counter

import pytest

from hyperbasis import cli, cover, families, spheremap
from mapfactory import map_json, random_growth_map


def count_calls(monkeypatch, counts, key, owners, name):
    """Count calls of ``owners[0].name`` under every owner's binding."""
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)


# (map, whether its preliminary steps drop both a loop and a leaf)
MAPS = [
    pytest.param(lambda: families.block_family(10), False, id="10"),
    pytest.param(lambda: families.block_family(40), False, id="40"),
    pytest.param(lambda: random_growth_map(random.Random(0), 16), True, id="random-16"),
]


@pytest.mark.parametrize("make, trims", MAPS)
def test_prune_map_derives_each_structure_once(make, trims, tmp_path, monkeypatch, capsys):
    smap = make()
    path = tmp_path / "map.json"
    path.write_text(map_json(smap))
    out = tmp_path / "report.json"
    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "hyperbasis"]
    binds_components = [
        m for m in package if getattr(m, "components", None) is spheremap.components
    ]
    counts: Counter = Counter()
    with monkeypatch.context() as patch:
        count_calls(patch, counts, "components", binds_components, "components")
        count_calls(patch, counts, "rotation_systems", [spheremap.RotationSystem], "__init__")
        count_calls(patch, counts, "gf2_reductions", [cover], "_gf2_reduce")
        assert cli.main(["prune", "--map", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    if trims:
        actions = {t["action"] for t in report["trace"]}
        assert {"prelim-drop-loop", "prelim-drop-leaf"} <= actions
    rows = cover.build_cover(smap, report["kept"]).n_faces + len(report["kept"])
    assert counts == {"components": 1, "rotation_systems": 1, "gf2_reductions": rows}
