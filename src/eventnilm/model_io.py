"""Model file persistence.

Models are stored as one JSON document with a schema version, keys sorted
and floats in shortest round-trip form, so identical models serialize to
byte-identical files. Writes go through a temp-file-then-rename step.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .errors import ParseError
from .features import ApplianceModel, BehaviorSet, Transition
from .modes import State, StateSet

SCHEMA_VERSION = 2


def format_number(x: float) -> str:
    """Shortest faithful decimal: integers bare, floats via repr round-trip."""
    x = float(x)
    return str(int(x)) if x.is_integer() else repr(x)


def format_numbers(values) -> list[str]:
    """``format_number`` of each element of a float64 array, in one pass."""
    return [str(int(x)) if x.is_integer() else repr(x) for x in values.tolist()]


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
        raise ParseError(f"bad transition key {text!r}")
    return (a, b)


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
        "transitions": [
            {"from": t.from_mode, "to": t.to_mode, "low": t.low, "high": t.high}
            for t in model.transitions
        ],
        "participation": {
            _key_str(k): v for k, v in sorted(model.participation.items())
        },
        "behaviors": None
        if beh is None
        else {
            "signature": None
            if beh.signature is None
            else {
                "from": beh.signature.from_mode,
                "to": beh.signature.to_mode,
                "low": beh.signature.low,
                "high": beh.signature.high,
            },
            "overshoot_min": beh.overshoot_min,
            "min_off_gap_s": beh.min_off_gap_s,
        },
    }


def _model_from_dict(data: dict) -> ApplianceModel:
    try:
        states = StateSet(
            states=tuple(
                State(
                    mode=s["mode"],
                    low=float(s["low"]),
                    high=float(s["high"]),
                    centroid=float(s["centroid"]),
                    size=int(s["size"]),
                )
                for s in data["states"]
            )
        )
        transitions = tuple(
            Transition(t["from"], t["to"], float(t["low"]), float(t["high"]))
            for t in data["transitions"]
        )
        participation = {
            _key_tuple(k): float(v) for k, v in data["participation"].items()
        }
        beh = data["behaviors"]
        behaviors = None
        if beh is not None:
            sig = beh["signature"]
            behaviors = BehaviorSet(
                signature=None
                if sig is None
                else Transition(sig["from"], sig["to"], float(sig["low"]), float(sig["high"])),
                overshoot_min=float(beh["overshoot_min"]),
                min_off_gap_s=float(beh["min_off_gap_s"]),
            )
        return ApplianceModel(
            appliance_id=data["id"],
            states=states,
            transitions=transitions,
            participation=participation,
            behaviors=behaviors,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model entry: {exc}") from exc


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
    return [_model_from_dict(d) for d in doc.get("appliances", [])]
