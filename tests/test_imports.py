"""Every name a library module imports is used in that module.

The package's ``__init__.py`` is exempt: its imports are the re-exported API.
Names count as used when they appear as a name anywhere in the module's
syntax tree, string annotations included.
"""

import ast
import importlib
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


def test_package_exports_resolve_to_their_submodules():
    """Each ``__all__`` name is the object its submodule defines, whether read
    as an attribute or bound by ``from eventnilm import *``."""
    star = {}
    exec("from eventnilm import *", star)
    assert set(eventnilm.__all__) <= set(star)
    for name in eventnilm.__all__:
        value = getattr(eventnilm, name)
        assert star[name] is value
        if name != "__version__":
            home = importlib.import_module(value.__module__)
            assert home.__name__.startswith("eventnilm.") and getattr(home, name) is value


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        eventnilm.no_such_name
    assert not hasattr(eventnilm, "no_such_name")


def test_submodules_import_from_the_package():
    from eventnilm import evaluation, pipeline

    assert pipeline is importlib.import_module("eventnilm.pipeline")
    assert evaluation.match_events is eventnilm.match_events
