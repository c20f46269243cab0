"""Model file persistence, and the text helpers shared by every file the
package reads or writes.

Models are stored as one JSON document with a schema version, keys sorted
and floats in shortest round-trip form, so identical models serialize to
byte-identical files. The other helpers: the number format
(``format_number``, ``format_numbers``), the one tab-separated table writer
(``format_table``), its cell joiner (``join_cells``) and its rule on names
(``fits_one_cell``), the UTF-8 and ``key = value`` readers, and
``atomic_write``, a temp file then a rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import OutputError, ParseError
from .features import ApplianceModel, BehaviorSet, Transition
from .modes import State, StateSet

SCHEMA_VERSION = 2


def format_number(x: float) -> str:
    """Shortest faithful decimal: integers bare, floats via repr round-trip."""
    x = float(x)
    return str(int(x)) if x.is_integer() else repr(x)


def format_numbers(values, sep: str = "") -> np.ndarray:
    """``format_number`` of each element of a float64 array, ``sep`` appended,
    as an object array of texts.

    Each run of equal neighbours, then each distinct value, is formatted
    once: a meter column repeats a few thousand levels over many samples, an
    idle one the same level for hours. ``-0.0`` and ``0.0``, and all NaNs,
    share a text, so merging them is exact. Whole numbers within 2**53 of
    zero are printed as int64s.
    """
    v = np.asarray(values, dtype=np.float64)
    # the first sample of each run of equal neighbours (none if v is empty)
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]][: v.size])
    distinct, position = np.unique(v[starts], return_inverse=True)
    whole = (np.trunc(distinct) == distinct) & (np.abs(distinct) <= 2.0**53)
    texts = np.empty(distinct.size, dtype=object)
    texts[whole] = [str(i) + sep for i in distinct[whole].astype(np.int64).tolist()]
    texts[~whole] = [format_number(x) + sep for x in distinct[~whole].tolist()]
    return np.repeat(texts[position], np.diff(np.r_[starts, v.size]))


def fits_one_cell(text: str) -> bool:
    """Whether ``text`` holds no tab and no line break: one tab-separated cell."""
    return "\t" not in text and "".join(text.splitlines()) == text


def join_cells(*columns: np.ndarray) -> str:
    """The text of a table given column by column as object arrays of cells,
    each cell ending in its separator (see ``format_numbers``): one join."""
    return "".join(np.column_stack(columns).ravel().tolist())


def format_table(header: str, *columns) -> str:
    """``header``, then one line per row: its cells joined by tabs, ending in
    a newline. A column is numbers, each cell its ``format_numbers`` text, or
    a ``(texts, codes)`` pair whose cell in row i is ``texts[codes[i]]``."""
    cells = []
    for k, column in enumerate(columns):
        sep = "\n" if k == len(columns) - 1 else "\t"
        if isinstance(column, tuple):
            texts, codes = column
            cells.append(np.array([t + sep for t in texts], dtype=object)[codes])
        else:
            cells.append(format_numbers(column, sep))
    return header + "\n" + join_cells(*cells)


@contextmanager
def _writing(path: Path):
    """Report an OSError while writing ``path`` as an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write bytes, or text as UTF-8, to a temp file that replaces ``path``."""
    path = Path(path)
    with _writing(path):
        fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.")
        try:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives a new file
            with os.fdopen(fd, "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def make_dirs(path: str | Path) -> Path:
    """``path`` as a directory, made with its parents where missing."""
    path = Path(path)
    with _writing(path):
        path.mkdir(parents=True, exist_ok=True)
    return path


def read_text(path: Path) -> str:
    """A UTF-8 text file with universal newlines; other bytes are a ParseError."""
    return decode_text(path.read_bytes(), path)


def decode_text(data: bytes, path: Path) -> str:
    """``read_text`` of the file at ``path`` whose bytes are ``data``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_settings(path: Path, keys, error: type[Exception]) -> dict[str, str]:
    """The ``key = value`` lines of a settings file, values stripped; blank
    and ``#`` lines are skipped. A line without ``=``, a key not in ``keys``
    or a key given twice raises ``error`` naming the line."""
    values, line_of = {}, {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise error(f"{path}:{lineno}: expected key = value")
        if key not in keys:
            raise error(f"{path}:{lineno}: unknown key {key!r}")
        if key in line_of:
            raise error(f"{path}:{lineno}: key {key!r} repeats line {line_of[key]}")
        values[key], line_of[key] = value.strip(), lineno
    return values


def _key_str(key: tuple[str, str]) -> str:
    return f"{key[0]}->{key[1]}"


def _key_tuple(text: str) -> tuple[str, str]:
    a, sep, b = text.partition("->")
    if not sep:
        raise ValueError(f"bad transition key {text!r}")
    return (a, b)


def _transition_to_dict(t: Transition) -> dict:
    return {"from": t.from_mode, "to": t.to_mode, "low": t.low, "high": t.high}


def _model_to_dict(model: ApplianceModel) -> dict:
    beh = model.behaviors
    return {
        "id": model.appliance_id,
        "states": [asdict(s) for s in model.states.states],  # field names are the keys
        "transitions": [_transition_to_dict(t) for t in model.transitions],
        "participation": {
            _key_str(k): v for k, v in sorted(model.participation.items())
        },
        "behaviors": None
        if beh is None
        else {
            **asdict(beh),
            "signature": None if beh.signature is None else _transition_to_dict(beh.signature),
        },
    }


def _take(entry, key: str, kind: type | tuple[type, ...], what: str):
    """``entry[key]`` if it is a ``kind`` (a bool is no number), else ValueError."""
    if not isinstance(entry, dict):
        raise ValueError(f"expected an object, got {json.dumps(entry)[:60]}")
    if key not in entry:
        raise ValueError(f"missing key {key!r}")
    value = entry[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be {what}, got {json.dumps(value)[:60]}")
    return value


def _text(entry, key: str) -> str:
    text = _take(entry, key, str, "a string")
    if not fits_one_cell(text):  # every text is a name that a report line must hold
        raise ValueError(f"{key!r} {text!r} holds a tab or line break")
    return text


def _number(entry, key: str) -> float:
    value = float(_take(entry, key, (int, float), "a number"))  # OverflowError past 1e308
    if not math.isfinite(value):
        raise ValueError(f"{key!r} must be finite, got {value}")
    return value


def _transition(entry, modes: list[str]) -> Transition:
    """The transition an entry describes; both its modes must be in ``modes``."""
    t = Transition(
        _text(entry, "from"), _text(entry, "to"), _number(entry, "low"), _number(entry, "high")
    )
    for mode in t.key:
        if mode not in modes:
            raise ValueError(f"transition {_key_str(t.key)} names mode {mode!r}, not in {modes}")
    return t


def _model_from_dict(data) -> ApplianceModel:
    """The model a file entry describes, or ValueError naming its first flaw."""
    states = tuple(
        State(
            mode=_text(s, "mode"),
            low=_number(s, "low"),
            high=_number(s, "high"),
            centroid=_number(s, "centroid"),
            size=_take(s, "size", int, "an integer"),
        )
        for s in _take(data, "states", list, "a list")
    )
    modes = [s.mode for s in states]
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {modes}")
    shares = _take(data, "participation", dict, "an object")
    beh = _take(data, "behaviors", (dict, type(None)), "an object or null")
    behaviors = None
    if beh is not None:
        sig = _take(beh, "signature", (dict, type(None)), "an object or null")
        behaviors = BehaviorSet(
            signature=None if sig is None else _transition(sig, modes),
            overshoot_min=_number(beh, "overshoot_min"),
            min_off_gap_s=_number(beh, "min_off_gap_s"),
        )
    return ApplianceModel(
        appliance_id=_text(data, "id"),
        states=StateSet(states=states),
        transitions=tuple(
            _transition(t, modes) for t in _take(data, "transitions", list, "a list")
        ),
        participation={_key_tuple(k): _number(shares, k) for k in shares},
        behaviors=behaviors,
    )


def save_models(path: str | Path, models: list[ApplianceModel]) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "appliances": [
            _model_to_dict(m) for m in sorted(models, key=lambda m: m.appliance_id)
        ],
    }
    # a non-finite number is refused here, not written as a file load_models refuses
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def load_models(path: str | Path) -> list[ApplianceModel]:
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"model file not found: {path}")
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ParseError(f"{path}: missing schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(
            f"{path}: schema version {doc['schema_version']} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    try:
        models = [_model_from_dict(d) for d in _take(doc, "appliances", list, "a list")]
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed model entry: {exc}") from None
    ids = [m.appliance_id for m in models]
    if len(set(ids)) != len(ids):
        raise ParseError(f"{path}: duplicate appliance ids in {ids}")
    return models
