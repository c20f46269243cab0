"""Input boundary: a damaged model file is a data error, never an internal one.

A seeded sweep makes one mutation of a trained model file per trial, in the
shape real damage takes: a value of the wrong type, NaN, an infinite or huge
number, an empty value, a deleted key, or a list entry duplicated or dropped.
Each mutated file goes through ``disaggregate`` and ``evaluate`` in process.
Every exit must be 0 (the file still describes usable models) or 2 (a data
error naming the file); 3, an internal error, is a bug.
"""

import json
import math
import random

import pytest

from eventnilm import cli

TRIALS = 300

REPLACEMENTS = (
    7, -3, 2.5, 0, True, None, "x", "", "nan", "inf", "7", [], [1, 2], {}, {"a": 1},
    math.nan, math.inf, -math.inf, 1e308, -1e308,
)


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """A 2-day demo dataset, its trained model document and a report."""
    root = tmp_path_factory.mktemp("boundary")
    manifest, models, report = root / "manifest.cfg", root / "models.json", root / "report.tsv"
    args = ["--output", str(root), "--days", "2", "--train-days", "1", "--period", "60"]
    assert cli.main(["synth", *args, "--seed", "3"]) == 0
    assert cli.main(["train", "--manifest", str(manifest), "--output", str(models)]) == 0
    command = ["disaggregate", "--manifest", str(manifest), "--model", str(models)]
    assert cli.main([*command, "--output", str(report)]) == 0
    return root, json.loads(models.read_text(encoding="utf-8"))


def positions(node, path=()):
    """The path of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from positions(value, (*path, key))


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, spots, strings, rng):
    """A copy of ``doc`` with one seeded mutation at one of ``spots``, and
    what it was. A rename puts one of ``strings`` (the document's own) in."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(spots)
    parent, key = lookup(doc, path[:-1]), path[-1]
    kind = rng.choice(("replace", "replace", "rename", "delete", "duplicate"))
    if kind == "duplicate" and not isinstance(parent, list):
        kind = "replace"
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate":
        parent.insert(key, parent[key])
    elif kind == "rename":
        parent[key] = rng.choice(strings)
    else:
        parent[key] = rng.choice(REPLACEMENTS)
    return doc, f"{kind} at {'/'.join(map(str, path))}"


def commands(root, models, out):
    """The ``disaggregate`` and ``evaluate`` argument lists that read ``models``."""
    common = ["--manifest", str(root / "manifest.cfg"), "--model", str(models)]
    return [
        ["disaggregate", *common, "--output", str(out / "report.tsv")],
        ["evaluate", *common, "--report", str(root / "report.tsv")],
    ]


def test_mutated_model_file_exits_0_or_2(flow, tmp_path, capsys):
    root, doc = flow
    spots = list(positions(doc))
    strings = sorted({v for p in spots if isinstance(v := lookup(doc, p), str)})
    models = tmp_path / "models.json"
    rng = random.Random(20)
    codes, bad = set(), []
    for trial in range(TRIALS):
        mutated, what = mutate(doc, spots, strings, rng)
        models.write_text(json.dumps(mutated), encoding="utf-8")
        for args in commands(root, models, tmp_path):
            code = cli.main(args)
            err = capsys.readouterr().err
            codes.add(code)
            if code not in (0, 2):
                bad.append(f"trial {trial}, {what}: {args[0]} exit {code}: {err.strip()}")
    assert not bad, "\n".join(bad)
    assert codes == {0, 2}  # the sweep reaches both outcomes


@pytest.mark.parametrize(
    "path, value",
    [
        ((0, "states", 1, "mode"), 7),
        ((0, "participation"), [["off->on1", 0.5]]),
        ((0, "id"), ["washer"]),
        ((0, "transitions", 0, "low"), "nan"),
        ((0, "transitions", 0, "high"), math.nan),
        ((0, "behaviors"), 3),
        ((0, "states", 1, "mode"), "off"),  # two OFF states: a duplicate mode
        ((1, "id"), None),  # set below to appliance 0's id: a duplicate id
        ((0, "transitions", 0, "from"), "on9"),  # a mode the appliance lacks
        ((0, "behaviors", "signature", "to"), "on9"),
    ],
)
def test_damaged_model_entry_is_a_data_error(flow, tmp_path, capsys, path, value):
    root, doc = flow
    doc = json.loads(json.dumps(doc))
    entries = doc["appliances"]
    lookup(entries, path[:-1])[path[-1]] = entries[0]["id"] if value is None else value
    models = tmp_path / "models.json"
    models.write_text(json.dumps(doc), encoding="utf-8")
    for args in commands(root, models, tmp_path):
        assert cli.main(args) == 2
        assert f"error: {models}: " in capsys.readouterr().err
