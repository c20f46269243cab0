"""Every name a library module imports is used in that module.

The package's ``__init__.py`` is exempt: its imports are the re-exported API.
Names count as used when they appear as a name anywhere in the module's
syntax tree, string annotations included.
"""

import ast
from pathlib import Path

import pytest

import eventnilm

MODULES = sorted(
    p for p in Path(eventnilm.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def imported_names(tree):
    """(bound name, line) for each import, ``from __future__`` excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "PowerSignal"
                names |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .modes import MIN_CLUSTERS, extract_states\n"
        "def f(x: 'np.ndarray'):\n"
        "    return extract_states(x)\n"
    )
    assert unused_imports(source) == [("os", 3), ("MIN_CLUSTERS", 4)]
