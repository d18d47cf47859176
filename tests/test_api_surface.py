"""The package keeps only what a command or the benchmark reaches: every
top-level function and class in ``src/hyperbasis``, and every method
that is not a dunder, is used somewhere in ``src`` (as a name, an
attribute or an imported name) or is named in ``perfbench/*.py``.  A
string in ``__all__`` or a docstring is not a use.  Code that only the
tests call belongs in ``tests/``.  No module outside ``__init__.py``
imports a name at module level that it never reads, so no linter is
needed to catch a leftover import."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperbasis"
PERFBENCH = ROOT / "perfbench"


def definitions(source: str) -> list[tuple[str, str]]:
    """(qualified name, name) of every top-level function or class and
    every non-dunder method."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    found.append((f"{node.name}.{item.name}", item.name))
    return found


def used_names(source: str) -> set[str]:
    """Names read as a name, an attribute or an import in ``source``."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def unused(sources: dict[str, str], perfbench_text: str) -> list[str]:
    """``module.qualified_name`` of every definition that no source uses
    and the benchmark does not name."""
    used = set().union(*(used_names(s) for s in sources.values()))
    named = set(re.findall(r"\w+", perfbench_text))
    return [
        f"{module}.{qualified}"
        for module, source in sorted(sources.items())
        for qualified, name in definitions(source)
        if name not in used and name not in named
    ]


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that ``source`` never reads as a name
    (which covers the base of an attribute).  ``from __future__`` and an
    import on a line marked ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append(name)
    return found


def test_scan_counts_uses_not_strings():
    sources = {
        "a": (
            '__all__ = ["listed", "Box"]\n'
            "def listed():\n    'Calls helper() in prose only.'\n"
            "def helper():\n    pass\n"
            "def traced():\n    pass\n"
            "class Box:\n"
            "    def __init__(self):\n        pass\n"
            "    def read(self):\n        pass\n"
            "    def spare(self):\n        pass\n"
        ),
        "b": "from .a import Box\nBox().read()\n",
    }
    assert unused(sources, 'TARGETS = [("a", "traced")]') == [
        "a.listed",
        "a.helper",
        "a.Box.spare",
    ]


def test_package_defines_nothing_unreached():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    perfbench_text = "\n".join(
        p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))
    )
    assert sources and perfbench_text
    assert unused(sources, perfbench_text) == []


def test_import_scan_counts_reads_only():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import sys\n"
        "from json import dumps, loads as read\n"
        "from .a import (\n    kept,  # noqa: F401  wrapped by name\n    spare,\n)\n"
        "__all__ = ['sys']\n"
        "def f():\n    'Returns spare in prose only.'\n"
        "    return math.pi, os.path.sep, read\n"
    )
    assert unused_imports(source) == ["sys", "dumps", "spare"]


def test_package_imports_nothing_unread():
    found = {
        p.stem: unused_imports(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    assert found and {m: names for m, names in found.items() if names} == {}
