"""Every name a library module imports is used in that module, and every
library name the benchmark imports or wraps resolves.

The package's ``__init__.py`` is exempt: its imports are the re-exported API.
Names count as used when they appear as a name anywhere in the module's
syntax tree, string annotations and ``__all__`` entries included.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import eventnilm

BENCH = Path(__file__).resolve().parents[1] / "bench"
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


def test_synth_truth_is_columns_only():
    assert "GroundTruthEvent" not in eventnilm.__all__
    assert not hasattr(eventnilm.SynthResult, "truth")


def test_bench_trace_sites_resolve(monkeypatch):
    """The traced benchmark wraps each ``(module, attribute)`` of
    ``bench/spans.SITES``; one that no longer resolves fails the bench's own
    tests, which this suite does not run."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert len(spans.SITES) > 20
    missing = [(m, a) for m, a, *_ in spans.SITES if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_bench_workload_imports_resolve():
    """Every ``from eventnilm... import ...`` of ``bench/workloads.py`` runs."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eventnilm")
    ]
    assert len(imports) > 3
    for node in imports:
        exec(ast.unparse(node), {})  # ImportError if a name is gone


def dead_definitions(sources, exported, bench_names):
    """Public top-level ``def``s and ``class``es, as ``module.name``, that no
    other top-level statement of ``sources`` names, ``exported`` leaves out
    and the benchmark does not name."""
    used, defined = set(), []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = node.name
                defined.append((module, own))
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            used |= names - {own}
    return [f"{m}.{name}" for m, name in defined if name not in used | exported | bench_names]


def bench_names():
    """Every name, attribute and identifier string in the benchmark's files,
    which wrap library functions by ``(module, attribute)`` strings."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_definition_is_used():
    """A public definition of the library that nothing in it calls, that the
    package does not export and that the benchmark does not use is a second
    path or dead code."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_definitions(sources, set(eventnilm.__all__), bench_names()) == []


def test_dead_definition_checker_finds_an_unused_definition():
    sources = {
        "a": "def f():\n    return g()\ndef g():\n    return 1\ndef h():\n    return h()\n",
        "b": "class C:\n    pass\nclass D:\n    pass\nTABLE = {'d': D}\ndef _private():\n    pass\n",
    }
    assert dead_definitions(sources, {"f"}, {"C"}) == ["a.h"]
