"""The package is pure standard library (``dependencies = []``): every
absolute import in ``src/hyperbasis`` names a module that ships with
Python."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperbasis"


def absolute_imports(source: str) -> set[str]:
    """Top-level module names of the absolute imports in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_absolute_imports_are_read():
    source = "import os.path\nfrom json import dumps\nfrom . import cover\ndef f():\n    import numpy\n"
    assert absolute_imports(source) == {"os", "json", "numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = absolute_imports(path.read_text(encoding="utf-8")) - sys.stdlib_module_names
    assert not outside, f"{path.name} imports {sorted(outside)}"
