"""Model file persistence.

Models are stored as one JSON document with a schema version, keys sorted
and floats in shortest round-trip form, so identical models serialize to
byte-identical files. Writes go through a temp-file-then-rename step.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ParseError
from .features import ApplianceModel, BehaviorSet, Transition
from .modes import State, StateSet

SCHEMA_VERSION = 2


def format_number(x: float) -> str:
    """Shortest faithful decimal: integers bare, floats via repr round-trip."""
    x = float(x)
    return str(int(x)) if x.is_integer() else repr(x)


def format_numbers(values) -> list[str]:
    """``format_number`` of each element of a float64 array.

    Each distinct value is formatted once: a meter column repeats a few
    thousand levels over many samples. ``-0.0`` and ``0.0``, and all NaNs,
    share a text, so merging them is exact.
    """
    distinct, position = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True)
    texts = [str(int(x)) if x.is_integer() else repr(x) for x in distinct.tolist()]
    return np.array(texts, dtype=object)[position].tolist()


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write bytes, or text as UTF-8, to a temp file that replaces ``path``."""
    path = Path(path)
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


def read_text(path: Path) -> str:
    """A UTF-8 text file with universal newlines; other bytes are a ParseError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text") from None


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
        "states": [
            {
                "mode": s.mode,
                "low": s.low,
                "high": s.high,
                "centroid": s.centroid,
                "size": s.size,
            }
            for s in model.states.states
        ],
        "transitions": [_transition_to_dict(t) for t in model.transitions],
        "participation": {
            _key_str(k): v for k, v in sorted(model.participation.items())
        },
        "behaviors": None
        if beh is None
        else {
            "signature": None if beh.signature is None else _transition_to_dict(beh.signature),
            "overshoot_min": beh.overshoot_min,
            "min_off_gap_s": beh.min_off_gap_s,
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
    return _take(entry, key, str, "a string")


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
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
