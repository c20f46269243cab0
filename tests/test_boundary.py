"""Input boundary: a damaged input file is a data error, never an internal one.

A seeded sweep makes one mutation of a trained model file per trial, in the
shape real damage takes: a value of the wrong type, NaN, an infinite or huge
number, an empty value, a deleted key, or a list entry duplicated or dropped.
Each mutated file goes through ``disaggregate`` and ``evaluate`` in process.
Every exit must be 0 (the file still describes usable models) or 2 (a data
error naming the file); 3, an internal error, is a bug.

Two more sweeps mutate the ``key = value`` files one line at a time: the
dataset manifest, through ``train``, and the run config, through ``train``
and ``disaggregate``. Three more mutate one line of the other inputs: a
channel file, through ``train`` and ``evaluate``; the labels file, through
``train``; and an event report, through ``evaluate``. There every exit must
be 0, 1 or 2.
"""

import json
import math
import random
from dataclasses import fields

import pytest

from eventnilm import cli
from eventnilm.config import RunConfig

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


def sweep(cases, runs, capsys):
    """Run each case's commands; the exit codes seen, and every exit not 0, 1 or 2."""
    codes, bad = set(), []
    for what in cases:
        for args in runs:
            code = cli.main(args)
            err = capsys.readouterr().err
            codes.add(code)
            if code not in (0, 1, 2):
                bad.append(f"{what}: {args[0]} exit {code}: {err.strip()}")
    return codes, bad


def test_mutated_model_file_exits_0_or_2(flow, tmp_path, capsys):
    root, doc = flow
    spots = list(positions(doc))
    strings = sorted({v for p in spots if isinstance(v := lookup(doc, p), str)})
    models = tmp_path / "models.json"
    rng = random.Random(20)

    def cases():
        for trial in range(TRIALS):
            mutated, what = mutate(doc, spots, strings, rng)
            models.write_text(json.dumps(mutated), encoding="utf-8")
            yield f"trial {trial}, {what}"

    codes, bad = sweep(cases(), commands(root, models, tmp_path), capsys)
    assert not bad, "\n".join(bad)
    assert codes == {0, 2}  # the sweep reaches both outcomes, and no usage error


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


# Values a damaged `key = value` file may hold. No small positive number is
# here: a period of a millisecond would make a grid that really allocates.
TEXT_REPLACEMENTS = (
    "x", "", "nan", "inf", "-inf", "1e308", "-1e308", "0", "-3", "2.5", "1e-300",
)


def text_mutations(text, rng, extra=()):
    """Every one-line mutation of a `key = value` text, and what it was: each
    key's value replaced by each of ``TEXT_REPLACEMENTS`` and by another key's
    value (a seeded pick), each line deleted, duplicated or stripped of its
    ``=``, and each of the ``extra`` lines added."""
    lines = text.splitlines()
    pairs = [line.partition("=") for line in lines]
    for i, (key, _, value) in enumerate(pairs):
        others = [v for j, (_, _, v) in enumerate(pairs) if j != i]
        for new in (*TEXT_REPLACEMENTS, rng.choice(others).strip()):
            changed = [*lines[:i], f"{key}= {new}", *lines[i + 1 :]]
            yield changed, f"{key.strip()} = {new!r}"
        yield [*lines[:i], *lines[i + 1 :]], f"{key.strip()} deleted"
        yield [*lines[: i + 1], *lines[i:]], f"{key.strip()} duplicated"
        yield [*lines[:i], key + value, *lines[i + 1 :]], f"{key.strip()} without '='"
    for line in extra:
        yield [*lines, line], f"{line!r} added"


def test_mutated_manifest_exits_0_1_or_2(flow, tmp_path, capsys):
    root, _ = flow
    base = (root / "manifest.cfg").read_text(encoding="utf-8") + "max_gap = 90\n"
    for channel in root.glob("*.dat"):
        (tmp_path / channel.name).write_bytes(channel.read_bytes())
    manifest = tmp_path / "manifest.cfg"
    train = ["train", "--manifest", str(manifest), "--output", str(tmp_path / "models.json")]

    def cases():  # period = 1e-300 among them: a grid too long to index
        for lines, what in text_mutations(base, random.Random(21)):
            manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
            yield what

    codes, bad = sweep(cases(), [train], capsys)
    assert not bad, "\n".join(bad)
    assert {0, 2} <= codes


def test_mutated_config_exits_0_1_or_2(flow, tmp_path, capsys):
    root, _ = flow
    base = "".join(f"{f.name} = {getattr(RunConfig(), f.name)}\n" for f in fields(RunConfig))
    cfg = tmp_path / "run.cfg"
    common = ["--manifest", str(root / "manifest.cfg"), "--config", str(cfg)]
    runs = [
        ["train", *common, "--output", str(tmp_path / "models.json")],
        ["disaggregate", *common, "--model", str(root / "models.json"),
         "--output", str(tmp_path / "report.tsv")],
    ]

    def cases():
        for lines, what in text_mutations(base, random.Random(22), ["speed = 3"]):
            cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
            yield what

    codes, bad = sweep(cases(), runs, capsys)
    assert not bad, "\n".join(bad)
    assert {0, 2} <= codes


def copy_dataset(root, dst):
    """The manifest of a copy of ``root``'s dataset files in ``dst``."""
    for path in [root / "manifest.cfg", *root.glob("*.dat")]:
        (dst / path.name).write_bytes(path.read_bytes())
    return dst / "manifest.cfg"


CHANNEL_TRIALS = 80
CHANNEL_MUTATIONS = (
    "drop", "duplicate", "timestamp", "watts", "third field", "trailing #", "not UTF-8",
)


def mutate_channel_line(line, kind, rng):
    """The lines that replace one ``timestamp watts`` line of a channel file."""
    if kind == "drop":
        return []
    if kind == "duplicate":
        return [line, line]
    if kind in ("timestamp", "watts"):
        fields = line.split(b" ")
        fields[kind == "watts"] = rng.choice(TEXT_REPLACEMENTS).encode()
        return [b" ".join(fields)]
    if kind == "third field":
        return [line + b" 0"]
    if kind == "trailing #":
        return [line + b" #"]
    return [line[:1] + b"\xff" + line[1:]]


def test_mutated_channel_exits_0_1_or_2(flow, tmp_path, capsys):
    """Through dataset commands only: there the grid spans the channels'
    common span, so a timestamp of 0 or 1e308 cannot ask for a huge grid."""
    root, _ = flow
    manifest = copy_dataset(root, tmp_path)
    channels = sorted(tmp_path.glob("channel_*.dat"))
    common = ["--manifest", str(manifest), "--model", str(root / "models.json")]
    runs = [
        ["train", "--manifest", str(manifest), "--output", str(tmp_path / "models.json")],
        ["evaluate", *common, "--report", str(root / "report.tsv")],
    ]
    rng = random.Random(23)

    def cases():
        for trial in range(CHANNEL_TRIALS):
            path = rng.choice(channels)
            original = path.read_bytes()
            lines = original.split(b"\n")
            i = rng.randrange(len(lines) - 1)  # the text ends in a newline
            kind = rng.choice(CHANNEL_MUTATIONS)
            changed = [*lines[:i], *mutate_channel_line(lines[i], kind, rng), *lines[i + 1 :]]
            path.write_bytes(b"\n".join(changed))
            yield f"trial {trial}, {path.name}:{i + 1} {kind}"
            path.write_bytes(original)

    codes, bad = sweep(cases(), runs, capsys)
    assert not bad, "\n".join(bad)
    assert {0, 2} <= codes


def label_mutations(lines, rng):
    """Each line deleted, duplicated, swapped with the next, renumbered (to
    another line's channel or to one with no file) and renamed (to another
    line's name), and a comment line added, with what each was."""
    numbers, names = zip(*(line.split(None, 1) for line in lines))
    for i in range(len(lines)):
        j = (i + 1) % len(lines)
        swapped = list(lines)
        swapped[i], swapped[j] = lines[j], lines[i]
        number = rng.choice([n for n in numbers if n != numbers[i]] + [str(len(lines) + 1)])
        name = rng.choice([n for n in names if n != names[i]])
        yield [*lines[:i], *lines[i + 1 :]], f"line {i + 1} deleted"
        yield [*lines[: i + 1], *lines[i:]], f"line {i + 1} duplicated"
        yield swapped, f"lines {i + 1} and {j + 1} swapped"
        yield [*lines[:i], f"{number} {names[i]}", *lines[i + 1 :]], f"line {i + 1} as {number}"
        yield [*lines[:i], f"{numbers[i]} {name}", *lines[i + 1 :]], f"line {i + 1} named {name}"
    yield ["# channel name", *lines], "comment line added"


def test_mutated_labels_exit_0_1_or_2(flow, tmp_path, capsys):
    root, _ = flow
    manifest = copy_dataset(root, tmp_path)
    labels = tmp_path / "labels.dat"
    base = labels.read_text(encoding="utf-8").splitlines()
    train = ["train", "--manifest", str(manifest), "--output", str(tmp_path / "models.json")]

    def cases():
        for lines, what in label_mutations(base, random.Random(24)):
            labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
            yield what

    codes, bad = sweep(cases(), [train], capsys)
    assert not bad, "\n".join(bad)
    assert {0, 2} <= codes


REPORT_TRIALS = 80
REPORT_INDICES = ("x", "", "2.5", "1e3", "-3", "0x10", "9223372036854775808", "-9" * 12)


def mutate_report_line(line, kind, rng):
    """The lines that replace one tab-separated line of an event report."""
    fields = line.split("\t")
    if kind == "deleted":
        return []
    if kind == "field dropped":
        del fields[rng.randrange(len(fields))]
    elif kind == "field added":
        fields.insert(rng.randrange(len(fields) + 1), "x")
    elif kind == "index":
        fields[1] = rng.choice(REPORT_INDICES)
    else:  # an appliance or mode no model knows
        fields[rng.choice((3, 4, 5))] = "unknown"
    return ["\t".join(fields)]


def test_mutated_report_exits_0_1_or_2(flow, tmp_path, capsys):
    root, _ = flow
    base = (root / "report.tsv").read_text(encoding="utf-8").splitlines()
    data = [i for i, line in enumerate(base) if line[:1].isdigit()]
    report = tmp_path / "report.tsv"
    common = ["--manifest", str(root / "manifest.cfg"), "--model", str(root / "models.json")]
    evaluate = ["evaluate", *common, "--report", str(report)]
    rng = random.Random(25)

    def cases():
        for trial in range(REPORT_TRIALS):
            i = rng.choice(data)
            kind = rng.choice(("deleted", "field dropped", "field added", "index", "label"))
            lines = [*base[:i], *mutate_report_line(base[i], kind, rng), *base[i + 1 :]]
            report.write_text("\n".join(lines) + "\n", encoding="utf-8")
            yield f"trial {trial}, line {i + 1} {kind}"

    codes, bad = sweep(cases(), [evaluate], capsys)
    assert not bad, "\n".join(bad)
    assert {0, 2} <= codes
