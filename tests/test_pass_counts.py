"""``prune --map`` derives each structure of a map once.

One run builds two sphere maps (the input and the final map checked by
``prune.verify``) and one master complex for the cover oracle, so it
runs two component passes and three rotation-system constructions, and
the rank reduces every face-boundary row and every kept cycle once.
The passes are counted, not timed, so a reintroduced pass fails on any
host."""

import json
import sys
from collections import Counter

import pytest

from hyperbasis import cli, cover, families, spheremap


def count_calls(monkeypatch, counts, key, owners, name):
    """Count calls of ``owners[0].name`` under every owner's binding."""
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("blocks", [10, 40])
def test_prune_map_derives_each_structure_once(blocks, tmp_path, monkeypatch, capsys):
    smap = families.block_family(blocks)
    path = tmp_path / "blocks.json"
    path.write_text(smap.to_json())
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
    final = smap.without_arcs(set(report["deleted"]))
    rows = cover.build_cover(final, report["kept"]).n_faces + len(report["kept"])
    assert counts == {"components": 2, "rotation_systems": 3, "gf2_reductions": rows}
