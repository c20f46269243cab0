"""Model persistence: JSON round trips and the plain-text number format."""

import json
import os

import numpy as np
import pytest

from eventnilm.config import RunConfig
from eventnilm.errors import ParseError
from eventnilm.features import ApplianceModel, BehaviorSet, Transition
from eventnilm.model_io import (
    SCHEMA_VERSION,
    atomic_write,
    format_number,
    format_numbers,
    load_models,
    save_models,
)
from eventnilm.modes import State, StateSet
from eventnilm.pipeline import train_models
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import reference_format_numbers, state, two_mode_model


def rich_model():
    """A model exercising every optional field."""
    states = StateSet(
        (state("off", 0.0, 0.0), state("on1", 80.0, 120.0), state("on2", 400.0, 450.0))
    )
    transitions = (
        Transition("off", "on1", 80.0, 120.0),
        Transition("on1", "on2", 280.0, 370.0),
        Transition("on2", "off", -450.0, -400.0),
    )
    behaviors = BehaviorSet(
        signature=Transition("on1", "on2", 280.0, 370.0),
        overshoot_min=75.5,
        min_off_gap_s=120.0,
    )
    return ApplianceModel(
        appliance_id="washer",
        states=states,
        transitions=transitions,
        participation={("off", "on1"): 0.25, ("on1", "on2"): 0.25},
        behaviors=behaviors,
    )


class TestFormatNumber:
    def test_integral_values_bare(self):
        assert format_number(0.0) == "0"
        assert format_number(500.0) == "500"
        assert format_number(-20.0) == "-20"

    def test_fractional_values_full(self):
        assert format_number(2.5) == "2.5"
        assert float(format_number(0.1)) == 0.1

    def test_numpy_scalars_clean(self):
        assert format_number(np.float64(3.0)) == "3"
        text = format_number(np.float64(2.5))
        assert "float64" not in text
        assert float(text) == 2.5


    def test_column_form_matches(self):
        values = np.array([0.0, -0.0, 500.0, -20.0, 2.5, 0.1, 1e16, 1e300, -1e-300, np.inf, np.nan])
        values = np.concatenate([values, np.random.default_rng(0).normal(0.0, 1e4, 1000)])
        assert format_numbers(values) == [format_number(v) for v in values]

    @pytest.mark.parametrize("seed", range(3))
    def test_distinct_values_match_the_per_element_rule(self, seed):
        rng = np.random.default_rng(seed)
        big = [2.0**63, -(2.0**63), 1e300]
        specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, *big])
        cases = [
            rng.choice(rng.normal(0.0, 1e3, 40).round(1), 5000),  # heavy repeats
            rng.normal(0.0, 1e4, 5000),  # all distinct
            np.full(1000, rng.normal(0.0, 1e3)),  # one value repeated
            np.array([]),
            rng.choice(np.array([-0.0, 0.0]), 500),  # mixes of -0.0 and 0.0
            np.concatenate([np.full(20, np.nan), [1.0, -0.0], np.full(30, np.nan)]),
            rng.choice(specials, 2000),
            rng.permutation(np.concatenate([specials, rng.integers(-9, 9, 200) * 0.5])),
        ]
        for values in cases:
            assert format_numbers(values) == reference_format_numbers(values)


class TestAtomicWrite:
    def test_creates_and_replaces(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write(p, "first\n")
        assert p.read_text() == "first\n"
        atomic_write(p, "second\n")
        assert p.read_text() == "second\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_bytes_written_as_given(self, tmp_path):
        p = tmp_path / "out.bin"
        atomic_write(p, b"\x00\xff\r\n")
        assert p.read_bytes() == b"\x00\xff\r\n"
        atomic_write(p, "\u00e9\n")
        assert p.read_bytes() == "\u00e9\n".encode("utf-8")
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_is_what_open_gives(self, tmp_path, umask, mode):
        p = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            atomic_write(p, "x\n")
            with open(tmp_path / "by_open.txt", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        assert p.stat().st_mode & 0o777 == mode
        assert (tmp_path / "by_open.txt").stat().st_mode & 0o777 == mode


class TestRoundTrip:
    def test_full_model(self, tmp_path):
        path = tmp_path / "models.json"
        save_models(path, [rich_model()])
        loaded = load_models(path)
        assert loaded == [rich_model()]

    def test_minimal_model_without_behaviors(self, tmp_path):
        m = two_mode_model("heater", 900.0, 1100.0)
        m = ApplianceModel(
            appliance_id=m.appliance_id,
            states=m.states,
            transitions=m.transitions,
            participation=m.participation,
            behaviors=None,
        )
        path = tmp_path / "models.json"
        save_models(path, [m])
        assert load_models(path) == [m]

    def test_appliances_sorted_by_id(self, tmp_path):
        a = two_mode_model("zed", 10.0, 20.0)
        b = two_mode_model("abc", 30.0, 40.0)
        path = tmp_path / "models.json"
        save_models(path, [a, b])
        loaded = load_models(path)
        assert [m.appliance_id for m in loaded] == ["abc", "zed"]

    def test_save_is_deterministic(self, tmp_path):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        save_models(p1, [rich_model(), two_mode_model("b", 40.0, 60.0)])
        save_models(p2, [rich_model(), two_mode_model("b", 40.0, 60.0)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_then_save_is_stable(self, tmp_path):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        save_models(p1, [rich_model()])
        save_models(p2, load_models(p1))
        assert p1.read_bytes() == p2.read_bytes()


class TestTrainedRoundTrip:
    """save -> load -> save keeps the bytes of models trained on every household."""

    @pytest.mark.parametrize("household", ["demo", "balanced"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_resave_is_identical(self, tmp_path, household, seed):
        make = demo_household if household == "demo" else balanced_household
        result = generate(make(), days=7, seed=seed)
        models = train_models(result.appliances, result.aggregate, RunConfig()).models
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_models(first, models)
        save_models(second, load_models(first))
        assert second.read_bytes() == first.read_bytes()


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_models(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="not valid JSON"):
            load_models(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_bytes(b'{\n"schema_version": 1,\n"id": "\xff"}')
        with pytest.raises(ParseError, match=r"m\.json:3: not UTF-8 text"):
            load_models(p)

    def test_missing_schema_version(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"appliances": []}), encoding="utf-8")
        with pytest.raises(ParseError, match="schema_version"):
            load_models(p)

    def test_wrong_schema_version(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps({"schema_version": 99, "appliances": []}), encoding="utf-8"
        )
        with pytest.raises(ParseError, match=r"schema version 99 unsupported"):
            load_models(p)

    def test_truncated_model_entry(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION, "appliances": [{"id": "x"}]}),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="malformed"):
            load_models(p)
